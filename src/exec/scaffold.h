// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Scaffold components — the immutable, shareable pieces a ScanPlan is
// assembled from. Each per-fact-row (or per-dimension-row) array of a plan
// is a pure function of a few inputs, and distinct plans very often agree on
// those inputs: every query joining Customer on the same fact table resolves
// the same FKs, every SUM(revenue) query carries the same weights, every
// GROUP BY Date.year sorts the fact rows into the same runs. So each array
// lives in its own component, interned by exactly the inputs it is a
// function of:
//
//   FkRowsComponent      (fact table, FK col, dimension table, PK col)
//   WeightsComponent     (fact table, measure-term list)
//   GroupOrdinals        (dimension table, group cols)
//   OrdinalTable         (dimension table, column, domain)
//   RunsComponent        (fact table, code layout, parts → their FK/group
//                         components): the counting-sort run offsets and
//                         the pre-rendered label table
//   SortedRows           (runs component, FK component)
//   SortedWeights        (runs component, weights component)
//
// No component stores a per-row group code: a row's code is derived from
// its FK rows and the group ordinals (exec/scan_plan.h RowCodes). The last
// three components — the run-sorted scaffold — are only read by the
// single-query run sweep, so a plan is built without them when its caller
// never sweeps runs (see ScanPlan::Compile's RunSort).
//
// Every key names each table by identity *and* row count (tables are
// append-only, so (object, rows) pins the exact data), and names input
// components by identity. A component holds a reference to every table and
// input component its key names (`pins`), so no address in a live
// component's key can be reused by another object.
//
// ScaffoldInterner is the intern table: key → weak reference. A component
// lives exactly as long as some plan (or some component built from it)
// holds it; the interner never keeps one alive. PlanCache owns one interner
// for all the plans it assembles; a standalone ScanPlan::Compile passes none
// and builds private components.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/domain.h"

namespace dpstarj::exec {

/// \brief Base of every immutable scaffold component.
class ScaffoldComponent {
 public:
  ScaffoldComponent() = default;
  ScaffoldComponent(const ScaffoldComponent&) = delete;
  ScaffoldComponent& operator=(const ScaffoldComponent&) = delete;
  virtual ~ScaffoldComponent() = default;

  /// Approximate heap footprint of the component's arrays.
  virtual size_t ApproxBytes() const = 0;

  /// The tables and input components named by this component's intern key,
  /// held so their addresses stay unique while the component is alive.
  std::vector<std::shared_ptr<const void>> pins;
};

/// \brief FK→dimension-row resolution of one (fact FK, dimension PK) pair.
struct FkRowsComponent final : ScaffoldComponent {
  /// fact row → dimension row; absent FKs map to the dimension's row count
  /// (the sentinel row, whose predicate bit is always 0).
  std::vector<int32_t> rows;
  /// True when at least one entry of `rows` is the sentinel.
  bool has_absent_fk = false;
  size_t ApproxBytes() const override;
};

/// \brief Per-fact-row aggregate weight of one measure-term list.
struct WeightsComponent final : ScaffoldComponent {
  std::vector<double> weights;
  size_t ApproxBytes() const override;
};

/// \brief One dimension's dense group ordinals over its GROUP BY columns.
struct GroupOrdinals final : ScaffoldComponent {
  /// row → dense group ordinal, assigned in first-occurrence row order over
  /// all rows (predicate-independent).
  std::vector<int32_t> group_ordinal;
  /// ordinal → representative dimension row (for label rendering).
  std::vector<int64_t> rep_rows;
  size_t ApproxBytes() const override;
};

/// \brief Memoized row → domain-ordinal table for one predicate column.
struct OrdinalTable final : ScaffoldComponent {
  int column_index = -1;
  storage::AttributeDomain domain;
  std::vector<int64_t> ordinals;  ///< -1 = value outside the domain
  size_t ApproxBytes() const override;
};

/// \brief Counting-sort runs of the fact rows by group code, for dense code
/// spaces, plus the pre-rendered label table.
struct RunsComponent final : ScaffoldComponent {
  /// code → begin of its run in run order (size code_space + 1).
  std::vector<int64_t> run_offsets;
  /// Sorted unique label of every code whose run is non-empty.
  std::vector<std::string> group_labels;
  /// code → label slot, -1 for empty runs.
  std::vector<int32_t> label_of_code;
  size_t ApproxBytes() const override;
};

/// \brief A per-fact-row array permuted into a runs component's run order.
template <typename T>
struct SortedColumn final : ScaffoldComponent {
  std::vector<T> values;
  size_t ApproxBytes() const override { return values.capacity() * sizeof(T); }
};
using SortedRows = SortedColumn<int32_t>;     ///< FK rows in run order
using SortedWeights = SortedColumn<double>;   ///< weights in run order

/// \brief Thread-safe intern table of scaffold components, key → weak ref.
///
/// Lookup and Insert are separate so callers build outside the lock (and can
/// fuse the builds of several missing components into one pass). Two
/// threads racing to build the same key both build; the first Insert wins
/// and the second caller adopts the winner.
class ScaffoldInterner {
 public:
  struct Stats {
    uint64_t built = 0;   ///< Insert calls: components built by a caller
    uint64_t reused = 0;  ///< Lookup calls served by a live component
  };

  /// The live component under `key`, or null. A hit counts as a reuse.
  template <typename T>
  std::shared_ptr<const T> Lookup(const std::string& key) {
    return std::static_pointer_cast<const T>(LookupAny(key));
  }

  /// Publishes `built` under `key` and returns it — or, when another live
  /// component landed under `key` first, returns that one instead.
  template <typename T>
  std::shared_ptr<const T> Insert(const std::string& key,
                                  std::shared_ptr<const T> built) {
    return std::static_pointer_cast<const T>(InsertAny(key, std::move(built)));
  }

  Stats GetStats() const;

 private:
  std::shared_ptr<const ScaffoldComponent> LookupAny(const std::string& key);
  std::shared_ptr<const ScaffoldComponent> InsertAny(
      const std::string& key, std::shared_ptr<const ScaffoldComponent> built);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const ScaffoldComponent>>
      table_;
  size_t prune_at_ = 64;  ///< sweep expired entries when the table reaches this
  Stats stats_;
};

}  // namespace dpstarj::exec
