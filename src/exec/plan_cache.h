// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// PlanCache — a thread-safe LRU of compiled ScanPlans keyed by a canonical
// *execution signature* of the bound query: the joined tables in bound
// order, FK/PK pairing, GROUP BY layout, measure terms, and the predicate
// (column, domain) sets — with predicate conjunction order normalized away,
// like query::CanonicalKey, but with ε and the predicate *bounds* omitted.
// A plan is pure bound-independent scaffolding, so one entry serves every
// privacy budget, every tenant replaying the query, every re-filtering of
// it with different constants, and every noisy Predicate Mechanism
// re-execution.
//
// Invalidation: tables are append-only, so a plan is stale exactly when one
// of its tables is no longer the same object or has grown. Every hit is
// validated with ScanPlan::Matches before use; callers can never execute
// against a stale scaffold. A stale entry whose only change is fact-table
// growth (streaming ingest) is *extended* in place via ScanPlan::ExtendFrom
// — tail-only work instead of a full recompile — and only dropped when the
// extension is declined (e.g. a fact group key outgrew its packed field).
// Any other staleness (a table object replaced, a dimension grew) drops the
// entry and recompiles; the two classes are counted separately. The service
// layer shares one PlanCache across all pool engines (see
// service/query_service.h).
//
// Plans are assembled from shared scaffold components (exec/scaffold.h): the
// cache owns the intern table, so a miss builds only the components no live
// plan holds yet — FK resolutions, weights, runs and run-ordered arrays
// already built for another signature are picked up, not rebuilt. Likewise
// an append extends each shared component once. The byte budget counts each
// component once however many cached plans reference it; a component is
// released when the last plan holding it is evicted.
//
// Plans keep only what their callers' sweeps read. A batch caller
// (RunSort::kDefer — the Predicate Mechanism's shared-scan AnswerBatch)
// takes any cached plan and compiles a miss without the run-sorted
// scaffold: FK rows, weights and ordinals only. A single-query caller (the
// default) never gets a run-less grouped plan: the first time one reaches a
// cached run-less entry, the cache recompiles it with runs — the entry's
// FK, weights and ordinal components come back from the intern table by
// pointer, so only the runs are built — and replaces and re-accounts the
// entry, as an extension does. Published plans are never mutated.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "exec/scan_plan.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief Thread-safe canonical-keyed LRU of compiled scan plans.
class PlanCache {
 public:
  /// Default entry capacity. Eviction is governed by a byte budget as well
  /// as this entry cap; popular queries dominate hits long before either
  /// matters.
  static constexpr size_t kDefaultCapacity = 32;
  /// Default budget for the unique scaffold bytes of all cached plans — each
  /// shared component counted once (LRU entries are evicted past it; the
  /// most recent plan is always kept).
  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MB

  /// Hit/miss/invalidation accounting, as returned by GetStats().
  struct Stats {
    uint64_t hits = 0;    ///< validated hits, extends and upgrades included
    uint64_t misses = 0;  ///< lookups that compiled a fresh plan
    /// Append-stale entries revalidated by ScanPlan::ExtendFrom (each also
    /// counts as a hit: the cached scaffold was reused, not recompiled).
    uint64_t extends = 0;
    /// Run-less entries recompiled with their runs for a single-query
    /// caller (each also counts as a hit). Two callers racing to upgrade one
    /// entry may both build the runs; only the published upgrade counts.
    uint64_t run_upgrades = 0;
    /// Stale entries dropped — always invalidated_append +
    /// invalidated_identity.
    uint64_t invalidations = 0;
    /// The fact table grew but the tail could not be spliced (packed group
    /// field overflow, or the plan was scalar-fallback).
    uint64_t invalidated_append = 0;
    /// A table object was replaced or a dimension changed size — nothing of
    /// the scaffold is salvageable.
    uint64_t invalidated_identity = 0;
    uint64_t evictions = 0;
    /// Scaffold components built by compiles and extensions (each one a
    /// fact- or dimension-sized pass no cached plan could supply).
    uint64_t components_built = 0;
    /// Component lookups served by a component some other plan already
    /// holds — the reason a miss or an extension can be cheap.
    uint64_t components_reused = 0;
    /// Bytes of the distinct components referenced by cached plans, each
    /// counted once (a gauge: the component share of bytes()).
    uint64_t component_bytes = 0;

    /// hits / (hits + misses), 0 when empty.
    double HitRate() const {
      uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  /// A capacity of 0 disables caching (every call compiles a fresh plan).
  explicit PlanCache(size_t capacity = kDefaultCapacity,
                     size_t max_bytes = kDefaultMaxBytes);

  /// \brief Returns the cached plan for `q`'s execution signature: a
  /// validated hit when fresh, an incremental extension when only the fact
  /// table grew, and a full compile otherwise. Extension and compilation
  /// both run outside the cache lock; two threads racing on the same cold
  /// key may both compile, and the first insert wins — wasted work, never
  /// wrong results. Components are looked up in, and published to, the
  /// cache's intern table; those builds run outside the lock too, and the
  /// first of two racing builds of one component is the one kept.
  ///
  /// `runs` says what the caller sweeps: kBuild (single queries) returns a
  /// plan carrying its run-sorted scaffold whenever the plan can have one,
  /// upgrading a cached run-less entry if needed; kDefer (batches) accepts
  /// any plan and compiles a miss without runs.
  ///
  /// A non-null `trace` gets `plan_cache_hit` set on a validated hit, a
  /// successful extension or a run upgrade, the extend span
  /// (obs::Stage::kPlanExtend) recorded on the extension path, and the
  /// compile span (obs::Stage::kPlanCompile) recorded on a miss or upgrade.
  Result<std::shared_ptr<const ScanPlan>> GetOrCompile(
      const query::BoundQuery& q, obs::Trace* trace = nullptr,
      RunSort runs = RunSort::kBuild);

  /// Drops every entry (stats are preserved).
  void Clear();

  /// Current entry count.
  size_t size() const;
  /// Approximate bytes currently cached: every distinct component once,
  /// plus each cached plan's own small bookkeeping.
  size_t bytes() const;
  /// Configured capacity.
  size_t capacity() const { return capacity_; }

  /// A consistent snapshot of the accounting counters.
  Stats GetStats() const;

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const ScanPlan>>;

  // Adds / removes one cached plan's share of bytes_: its own bytes, plus
  // the bytes of every component it is the first / last cached holder of.
  void Account(const ScanPlan& plan);
  void Unaccount(const ScanPlan& plan);
  // Unlinks `it` from the LRU and the index, and unaccounts its plan.
  void Drop(std::list<Entry>::iterator it);

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_bytes_;
  size_t bytes_ = 0;            ///< Σ OwnBytes() + component_bytes_
  size_t component_bytes_ = 0;  ///< Σ bytes over component_refs_' keys
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// component → number of cached plans referencing it.
  std::unordered_map<const ScaffoldComponent*, size_t> component_refs_;
  Stats stats_;
  /// Components of every plan this cache assembles. It has its own lock,
  /// never held together with mu_.
  ScaffoldInterner interner_;
};

}  // namespace dpstarj::exec
