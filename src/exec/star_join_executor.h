// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The star-join executor: evaluates a bound star-join query with hash
// semi-joins. For each dimension it compiles the predicate verdicts into a
// dense FK-indexed table (pass bit fused with a small-int group ordinal), then
// streams the fact table in morsels — optionally in parallel — combining
// verdicts with one array probe per dimension, accumulating COUNT/SUM per
// packed uint64 group code and rendering string group labels once per group
// at the end (see exec/group_code.h, exec/parallel.h).
//
// The executor accepts *predicate overrides* so that DP mechanisms can run
// the same plan under perturbed predicates (the heart of DP-starJ's input
// perturbation) without re-binding. The DP layer is post-processing-safe, so
// executor strategy (scalar vs vectorized, thread count) never changes noise
// semantics — only throughput.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/parallel.h"
#include "exec/query_result.h"
#include "exec/scan_plan.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief Per-dimension predicate replacements, aligned with BoundQuery::dims.
///
/// Entry semantics: nullopt = keep the dimension's own predicates; an engaged
/// vector replaces them wholesale (possibly with a different count, possibly
/// empty = no filtering on that dimension).
using DimPredicateOverride = std::optional<std::vector<query::BoundPredicate>>;
using PredicateOverrides = std::vector<DimPredicateOverride>;

/// \brief Options for the executor.
struct ExecutorOptions {
  /// When true, fact rows whose foreign key misses the dimension hash table
  /// are an error (they violate referential integrity). When false they are
  /// silently dropped, matching SQL inner-join semantics.
  bool strict_integrity = false;

  /// Worker threads for the fact scan. 1 (default) runs on the calling
  /// thread; 0 means one worker per hardware thread. Results are
  /// deterministic for any fixed value: morsels are statically assigned and
  /// worker partials merge in worker order, so aggregates whose additions are
  /// exact (COUNT, integer-valued SUM) are identical across thread counts,
  /// and inexact floating-point SUMs are reproducible run-to-run.
  int exec_threads = 1;

  /// Rows per scan morsel (parallel granularity). The default is sized to
  /// the detected per-core L2 (exec/parallel.h, DefaultMorselSize).
  int64_t morsel_size = DefaultMorselSize();

  /// Forces the legacy row-at-a-time pipeline (kept for benchmarking and as
  /// the automatic fallback when a GROUP BY key set cannot be packed into a
  /// 64-bit group code, e.g. grouping on an unbounded double fact column).
  bool force_scalar = false;
};

/// \brief Hash-join star-join evaluation.
class StarJoinExecutor {
 public:
  explicit StarJoinExecutor(ExecutorOptions options = {}) : options_(options) {}

  /// Evaluates the query as bound.
  Result<QueryResult> Execute(const query::BoundQuery& q) const;

  /// Evaluates with per-dimension predicate overrides (for DP mechanisms).
  Result<QueryResult> Execute(const query::BoundQuery& q,
                              const PredicateOverrides& overrides) const;

  /// \brief Evaluates against a pre-compiled ScanPlan (see exec/scan_plan.h):
  /// only the per-dimension predicate bitmaps are rebuilt, and the fact scan
  /// is gathers into them plus the plan's weights (and, for passing rows of
  /// grouped queries, group ordinals or the run-sorted arrays) — the
  /// repeated-noisy-execution fast path of the Predicate Mechanism. The plan
  /// must have been compiled for `q`'s tables (checked; a stale plan is
  /// refused rather than silently mis-answered).
  ///
  /// Equivalence with the fresh-build Execute: exact aggregates (COUNT,
  /// integer-valued SUM) are bit-identical at every thread count; inexact
  /// grouped SUMs follow the plan's run-sorted sweep, which associates each
  /// group's additions in a fixed chunked order (≤64-row chunks in row
  /// order; all-pass chunks accumulate in the kernel layer's pinned
  /// four-lane split — see exec/kernels/kernels.h) that is identical at
  /// every worker count and on every ISA. Strict-integrity violations are
  /// reported with the exact row/dimension/message of the fresh pipeline.
  ///
  /// A non-null `trace` records the bitmap-rebuild and fact-sweep spans
  /// (obs::Stage::kBitmapRebuild / kScan); execution is unchanged otherwise.
  Result<QueryResult> Execute(const query::BoundQuery& q,
                              const PredicateOverrides& overrides,
                              const ScanPlan& plan,
                              obs::Trace* trace = nullptr) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  ExecutorOptions options_;
};

/// \brief Renders a merged plan-path group accumulator into a QueryResult:
/// labels are rendered once per group from the plan's layout and label parts
/// and merged by rendered label (distinct codes can format identically),
/// exactly the legacy per-row semantics. Shared by the executor's probing
/// plan path and the shared-scan batch path (exec/workload_plan.h).
QueryResult RenderPlanGroups(const query::BoundQuery& q, const ScanPlan& plan,
                             const GroupAccumulator& merged, bool is_avg);

}  // namespace dpstarj::exec
