// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// ScanPlan — the reusable, predicate-independent scaffold of a bound
// star-join query. DP-starJ's Predicate Mechanism answers every noisy run by
// re-executing the *same* bound query with perturbed predicate bounds only,
// so everything that does not depend on predicate values is compiled once:
//
//   * FK→dimension-row resolution: one int32 per (fact row, dimension),
//     with referential misses mapped to a per-dimension sentinel row whose
//     predicate bit is permanently 0 — the hash/offset-table probe of the
//     fresh pipeline disappears entirely from the per-execution scan;
//   * the GROUP BY code layout and the per-dimension group ordinals
//     (assigned over *all* dimension rows, so they never shift when
//     predicates move). A fact row's packed group code is not stored: it is
//     the OR of its dimensions' ordinal fields, looked up through its
//     resolved FK rows, plus any fact-side key fields (RowCodes below) —
//     and a sweep derives it only for the rows that pass;
//   * the per-row aggregate weight (measure terms are fact columns);
//   * memoized domain-ordinal tables for the query's predicate columns, the
//     inputs of per-execution predicate evaluation;
//   * for grouped queries over a dense code space, the *run-sorted*
//     scaffold: the counting-sort run offsets, the pre-rendered label
//     table, and the FK rows and weights permuted into run order. Only the
//     single-query run sweep reads it, so a caller that never sweeps runs
//     (the shared-scan WorkloadPlan) compiles without it
//     (RunSort::kDefer); compiling the same query again with kBuild adds
//     it, reusing every interned component.
//
// What remains per execution is the cheap part: one *predicate bitmap* per
// dimension — bit r = "dimension row r passes every effective predicate" —
// built from the ordinal tables with branchless, autovectorizable compares
// and packed into uint64 words, then a fact scan that is just gathers into
// those bitmaps plus the weight array (and group ordinals for passing rows).
//
// The scaffold arrays are not owned by the plan: each lives in an immutable
// scaffold component (exec/scaffold.h) interned by exactly the inputs it is
// a function of, so plans that agree on those inputs share one copy — two
// signatures joining the same dimension share its FK resolution, two SUMs
// over the same measure share its weights, two GROUP BYs over the same
// layout share runs and labels. A plan is a small bundle of references to
// its components plus the per-query layout. Footprint is therefore counted
// per *component*: see ScanPlan::Components and PlanCache::bytes().
//
// Plans are immutable after Compile and safe to share across threads; see
// exec/plan_cache.h for the canonical-keyed cache with invalidation, which
// owns the intern table its plans are assembled from.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/group_code.h"
#include "exec/scaffold.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief One dimension's predicate-independent scaffold.
struct PlanDim {
  /// Dimension row count. Row id `num_rows` is the absent-FK sentinel: it has
  /// no ordinal and its bit in every predicate bitmap is 0.
  int32_t num_rows = 0;

  /// GroupCodeLayout field of this dimension, -1 when it has no group cols.
  int field = -1;

  /// Fact row → dimension row (absent FKs → num_rows).
  std::shared_ptr<const FkRowsComponent> fk;
  /// Group ordinals over the dimension's GROUP BY columns; null when the
  /// dimension contributes no group keys.
  std::shared_ptr<const GroupOrdinals> group;
  /// fk's rows permuted into run order; null unless the plan has sorted runs.
  std::shared_ptr<const SortedRows> sorted;
  /// One table per distinct (column, domain) among the query's own
  /// predicates. Overrides that keep column and domain (the Predicate
  /// Mechanism always does) evaluate against these; others compute fresh.
  std::vector<std::shared_ptr<const OrdinalTable>> ordinal_tables;

  /// True when at least one fact row's FK missed this dimension (so some
  /// entry of fk->rows is the sentinel). When false AND an execution's
  /// rebuilt bitmap passes every real row — a fully-open predicate, common
  /// under PM perturbation of wide ranges — the dimension cannot reject any
  /// fact row and the sweep drops it entirely (see the executor's plan path).
  bool has_absent_fk() const { return fk->has_absent_fk; }
  /// row → dense group ordinal (empty when the dimension has no group keys).
  /// Ordinals are assigned in first-occurrence row order over all rows —
  /// predicate-independent.
  const std::vector<int32_t>& group_ordinal() const;
  /// ordinal → representative dimension row (for label rendering).
  const std::vector<int64_t>& rep_rows() const;
};

/// \brief One rendered group-key part, in declared GROUP BY order.
struct PlanLabelPart {
  int dim_idx = -1;  ///< -1 = fact column
  int col = -1;
  int field = -1;          ///< layout field
  bool is_string = false;  ///< fact parts: dictionary-coded column
  int64_t base = 0;        ///< fact int64 parts: ordinal = value - base
};

/// \brief Whether a compile builds the run-sorted scaffold of a grouped,
/// dense-code-space plan. Plans without it answer correctly everywhere (the
/// single-query executor falls back to its probing sweep), but the single-
/// query path gets its speed and row-order per-group sums from the runs.
enum class RunSort {
  kBuild,  ///< build the runs now (single-query callers)
  kDefer,  ///< leave them out; a later kBuild compile adds them
};

/// \brief Compiled scaffold of one bound star-join query.
class ScanPlan {
 public:
  /// \brief Compiles `q`. Costs about one fresh execution (one fact pass plus
  /// the per-dimension index builds) and is amortized by every later run.
  ///
  /// With an `interner`, every component is first looked up by its key and
  /// only the missing ones are built (and published there); without one the
  /// plan builds private components. Either way the arrays are identical.
  /// `runs` = kDefer skips the run-sorted scaffold (has_sorted_runs stays
  /// false, runs_deferred() is true for plans that could carry it).
  static Result<ScanPlan> Compile(const query::BoundQuery& q,
                                  ScaffoldInterner* interner = nullptr,
                                  RunSort runs = RunSort::kBuild);

  /// \brief True when the plan was compiled against exactly the tables (by
  /// identity *and* row count — tables are append-only) and the aggregate
  /// shape of `q`. A false return means the plan is stale and must be
  /// recompiled; executing a stale plan is refused.
  bool Matches(const query::BoundQuery& q) const;

  /// \brief True when `q` binds the same tables and aggregate shape as `old`
  /// and only the fact table has grown — the precondition for ExtendFrom.
  /// The plan cache uses this to classify a stale hit as append vs identity.
  static bool IsAppendExtension(const ScanPlan& old, const query::BoundQuery& q);

  /// \brief Compiles a plan for `q` by extending `old` over the fact table's
  /// appended tail only: FK resolution and weights run over rows
  /// [old.fact_rows(), q.fact->num_rows()), and — when `old` carries runs —
  /// the tail's derived group codes are spliced into the counting-sort runs
  /// (a plan without runs extends to a plan without runs). Dimension-sized
  /// components (group ordinals, ordinal tables) carry over unchanged. Because the sort is
  /// stable and every tail row index exceeds every compiled row index, the
  /// result is bit-identical to a fresh Compile on the grown table
  /// (tests/ingest_test.cc asserts this over randomized append schedules).
  /// With an `interner`, each grown component is extended once per append:
  /// a plan that shares it with an already-extended plan picks up the
  /// extended component instead of splicing again. Returns NotSupported
  /// when the tail cannot be spliced — the plan was scalar-fallback, or a
  /// fact-side group key outgrew its packed bit field — in which case the
  /// caller falls back to a full Compile.
  static Result<ScanPlan> ExtendFrom(const ScanPlan& old,
                                     const query::BoundQuery& q,
                                     ScaffoldInterner* interner = nullptr);

  /// True when the plan could carry the run-sorted scaffold (grouped, dense
  /// code space) but was compiled without it.
  bool runs_deferred() const;

  /// The GROUP BY key set could not be packed into a 64-bit code; execution
  /// must take the scalar pipeline (no scaffold is built in this case).
  bool requires_scalar() const { return requires_scalar_; }

  /// Every component the plan references, each once.
  std::vector<const ScaffoldComponent*> Components() const;
  /// Approximate heap footprint of the plan object itself, components
  /// excluded (layout, parts, per-dimension bookkeeping). A plan's total
  /// footprint is this plus ApproxBytes() of each of its Components().
  size_t OwnBytes() const;

  // --- scaffold data, read by the executor's plan path -------------------
  bool grouped = false;
  GroupCodeLayout layout;
  std::vector<PlanLabelPart> parts;
  std::optional<uint64_t> code_space;
  std::vector<PlanDim> dims;

  /// Per dimension: fact row → dimension row, absent FKs → dims[i].num_rows.
  const std::vector<int32_t>& fact_dim_row(size_t i) const {
    return dims[i].fk->rows;
  }
  /// Per-row aggregate weight (empty = COUNT, weight 1.0).
  const std::vector<double>& weights() const;

  /// Run-sorted scaffold, built for grouped queries whose code space fits the
  /// dense accumulator unless the compile deferred it: fact rows stably
  /// partitioned by group code (counting sort, so rows stay in scan order
  /// within a run). The warm scan then sweeps each code's run once and
  /// emits one aggregate per group — sequential accumulator writes instead
  /// of a random read-modify-write per fact row, and per-group sums that
  /// associate in row order (the single-thread fresh-build order) at *any*
  /// worker count.
  bool has_sorted_runs = false;
  /// code → begin of its run in the sorted arrays (size code_space + 1).
  const std::vector<int64_t>& run_offsets() const;
  /// Per dimension: fact_dim_row permuted into run order.
  const std::vector<int32_t>& sorted_dim_row(size_t i) const;
  /// weights permuted into run order (empty = COUNT).
  const std::vector<double>& sorted_weights() const;

  /// Labels too are predicate-independent, so the run-sorted scaffold
  /// pre-renders them: the sorted unique label of every code whose run is
  /// non-empty, and code → label slot (-1 for empty runs). Warm executions
  /// never touch a string — they aggregate per label slot and emit the
  /// result map in pre-sorted order. Distinct codes may share a label (two
  /// doubles rendering identically); they merge into one slot, matching the
  /// fresh pipeline's merge-by-label semantics.
  const std::vector<std::string>& group_labels() const;
  const std::vector<int32_t>& label_of_code() const;

  int64_t fact_rows() const { return fact_rows_; }
  /// The fact table the plan was compiled against.
  const storage::Table& fact_table() const { return *fact_; }

 private:
  // Sets runs_, dims[i].sorted and sorted_weights_ once the layout, the FK
  // and group components and weights_ are in place; `old` is the plan being
  // extended (it carries runs), if any.
  Status AssembleRuns(const ScanPlan* old, const query::BoundQuery& q,
                      ScaffoldInterner* interner);

  bool requires_scalar_ = false;

  // Plan-wide components (per-dimension ones live in `dims`).
  std::shared_ptr<const RunsComponent> runs_;
  std::shared_ptr<const WeightsComponent> weights_;
  std::shared_ptr<const SortedWeights> sorted_weights_;

  // Identity for Matches(): the exact tables and aggregate shape compiled.
  std::shared_ptr<storage::Table> fact_;
  int64_t fact_rows_ = 0;
  std::vector<std::shared_ptr<storage::Table>> dim_tables_;
  std::vector<int64_t> dim_rows_;
  std::vector<std::pair<int, double>> measure_cols_;
  std::vector<std::pair<int, int>> group_key_layout_;
};

/// \brief The packed group code of any fact row of a grouped, non-scalar
/// plan, derived on demand: the OR of every grouped dimension's ordinal
/// field, looked up through the row's resolved FK (an absent FK contributes
/// 0), and every fact-side key field, read from the fact column. Sweeps call
/// it only for rows that pass — whose FK entries the verdict gather has
/// just streamed — and the run build calls it once per row.
///
/// Holds raw pointers into the plan's components and the fact table's
/// columns: valid while the plan lives and the fact table is not appended
/// to (scans hold the table's shared lock).
class RowCodes {
 public:
  explicit RowCodes(const ScanPlan& plan);

  uint64_t operator()(int64_t row) const {
    uint64_t code = 0;
    for (const DimField& d : dims_) {
      const int32_t dr = d.rows[row];
      const uint64_t ordinal =
          dr == d.sentinel ? 0 : static_cast<uint64_t>(d.ordinals[dr]);
      code |= ordinal << d.shift;
    }
    for (const FactField& f : facts_) {
      const uint64_t ordinal =
          f.codes != nullptr ? static_cast<uint64_t>(f.codes[row])
                             : static_cast<uint64_t>(f.values[row] - f.base);
      code |= ordinal << f.shift;
    }
    return code;
  }

 private:
  struct DimField {
    const int32_t* rows = nullptr;      ///< fact row → dimension row
    const int32_t* ordinals = nullptr;  ///< dimension row → group ordinal
    int32_t sentinel = 0;               ///< absent-FK dimension row
    int shift = 0;
  };
  struct FactField {
    const int32_t* codes = nullptr;   ///< dictionary codes (string parts)
    const int64_t* values = nullptr;  ///< int64 parts: ordinal = value - base
    int64_t base = 0;
    int shift = 0;
  };
  std::vector<DimField> dims_;
  std::vector<FactField> facts_;
};

/// \brief Builds one dimension's per-execution predicate bitmap: bit r = row
/// r passes every predicate in `preds`, packed into uint64 words covering
/// rows [0, num_rows] with the sentinel bit (num_rows) always 0. Evaluation
/// is branchless over the plan's memoized ordinal tables (computing a fresh
/// table when a predicate's column/domain is not memoized).
Result<std::vector<uint64_t>> BuildPassBitmap(
    const PlanDim& pd, const storage::Table& dim,
    const std::vector<query::BoundPredicate>& preds);

}  // namespace dpstarj::exec
