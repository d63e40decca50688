#include "exec/star_join_executor.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/domain_index.h"
#include "exec/group_code.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"

namespace dpstarj::exec {

namespace {

// Renders one group-key part from a column cell.
std::string RenderCell(const storage::Column& col, int64_t row) {
  return col.GetValue(row).ToString();
}

// Resolves the effective predicate list of dimension i under overrides.
const std::vector<query::BoundPredicate>* EffectivePreds(
    const query::BoundQuery& q, const PredicateOverrides& overrides, size_t i) {
  if (!overrides.empty() && overrides[i].has_value()) return &*overrides[i];
  return &q.dims[i].predicates;
}

// ------------------------------------------------------------------------
// Legacy row-at-a-time pipeline. Kept verbatim as (a) the fallback when a
// GROUP BY key set cannot be packed into a 64-bit group code and (b) the
// baseline the benches compare the vectorized pipeline against.
// ------------------------------------------------------------------------

/// Per-dimension hash table entry: predicate verdict and the dimension row
/// (needed only when the dimension contributes GROUP BY keys).
struct DimEntry {
  bool pass = true;
  int64_t row = -1;
};

struct DimState {
  std::unordered_map<int64_t, DimEntry> by_key;
};

Result<QueryResult> ExecuteScalar(const query::BoundQuery& q,
                                  const PredicateOverrides& overrides,
                                  const ExecutorOptions& options) {
  // Build one hash table per dimension.
  std::vector<DimState> states(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    const query::DimBinding& d = q.dims[i];
    DimState& st = states[i];
    const std::vector<query::BoundPredicate>* preds =
        EffectivePreds(q, overrides, i);

    // Per-predicate domain ordinals of the filtered column.
    std::vector<std::vector<int64_t>> ordinals(preds->size());
    for (size_t p = 0; p < preds->size(); ++p) {
      const query::BoundPredicate& pred = (*preds)[p];
      if (pred.column_index < 0 ||
          pred.column_index >= d.dim->schema().num_fields()) {
        return Status::InvalidArgument("predicate has bad column index");
      }
      DPSTARJ_ASSIGN_OR_RETURN(
          ordinals[p],
          ComputeDomainIndexes(d.dim->column(pred.column_index), pred.domain));
    }

    const auto& keys = d.dim->column(d.dim_pk_col).int64_data();
    st.by_key.reserve(keys.size() * 2);
    for (size_t r = 0; r < keys.size(); ++r) {
      DimEntry e;
      e.row = static_cast<int64_t>(r);
      for (size_t p = 0; p < preds->size() && e.pass; ++p) {
        int64_t ord = ordinals[p][r];
        e.pass = (ord >= 0) && (*preds)[p].Matches(ord);
      }
      auto [it, inserted] = st.by_key.emplace(keys[r], e);
      if (!inserted) {
        return Status::InvalidArgument(
            Format("duplicate primary key %lld in dimension '%s'",
                   static_cast<long long>(keys[r]), d.table.c_str()));
      }
    }
  }

  QueryResult result;
  result.grouped = !q.group_key_layout.empty();
  const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;
  double avg_rows = 0.0;
  std::map<std::string, double> group_rows;

  const int64_t fact_rows = q.fact->num_rows();
  // Resolve fk column data pointers once.
  std::vector<const std::vector<int64_t>*> fk_data(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    fk_data[i] = &q.fact->column(q.dims[i].fact_fk_col).int64_data();
  }

  std::vector<const DimEntry*> matched(q.dims.size());
  std::string label;
  for (int64_t row = 0; row < fact_rows; ++row) {
    bool pass = true;
    for (size_t i = 0; i < q.dims.size(); ++i) {
      int64_t key = (*fk_data[i])[static_cast<size_t>(row)];
      auto it = states[i].by_key.find(key);
      if (it == states[i].by_key.end()) {
        if (options.strict_integrity) {
          return Status::InvalidArgument(
              Format("fact row %lld: foreign key %lld misses dimension '%s'",
                     static_cast<long long>(row), static_cast<long long>(key),
                     q.dims[i].table.c_str()));
        }
        pass = false;
        break;
      }
      if (!it->second.pass) {
        pass = false;
        break;
      }
      matched[i] = &it->second;
    }
    if (!pass) continue;

    double w = 1.0;
    if (!q.measure_cols.empty()) {
      w = 0.0;
      for (const auto& [col, coeff] : q.measure_cols) {
        w += coeff * q.fact->column(col).GetNumeric(row);
      }
    }

    if (!result.grouped) {
      result.scalar += w;
      avg_rows += 1.0;
      continue;
    }
    // Assemble the group label in declared key order.
    label.clear();
    for (const auto& [dim_idx, col] : q.group_key_layout) {
      if (!label.empty()) label += kGroupKeyDelimiter;
      if (dim_idx < 0) {
        label += RenderCell(q.fact->column(col), row);
      } else {
        const query::DimBinding& d = q.dims[static_cast<size_t>(dim_idx)];
        label += RenderCell(d.dim->column(col),
                            matched[static_cast<size_t>(dim_idx)]->row);
      }
    }
    result.groups[label] += w;
    if (is_avg) group_rows[label] += 1.0;
  }

  if (is_avg) {
    if (!result.grouped) {
      result.scalar = avg_rows > 0.0 ? result.scalar / avg_rows : 0.0;
    } else {
      for (auto& [label_key, sum] : result.groups) {
        sum /= group_rows[label_key];  // every group has ≥ 1 row
      }
    }
  }
  return result;
}

// ------------------------------------------------------------------------
// Vectorized, morsel-parallel pipeline.
// ------------------------------------------------------------------------

// Verdict payload stored in each dimension's KeyIndex: values >= 0 mean the
// dimension row passes its predicates and carries that group ordinal (0 when
// the dimension has no GROUP BY columns); kFailVerdict means present-but-
// filtered; KeyIndex::kAbsent (from the probe) means referential miss.
constexpr int32_t kFailVerdict = -1;

struct VecDim {
  KeyIndex index;
  /// ordinal → representative dimension row (for label rendering).
  std::vector<int64_t> rep_rows;
  /// GroupCodeLayout field of this dimension, -1 when it has no group cols.
  int field = -1;
  const int64_t* fk = nullptr;  // fact-side foreign key data
};

// One group-key part in declared order.
struct GroupPart {
  int dim_idx = -1;  // -1 = fact column
  int col = -1;
  int field = -1;          // layout field (fact parts get their own field)
  bool is_string = false;  // fact parts: dictionary-coded column
  int64_t base = 0;        // fact int64 parts: ordinal = value - base
  const int64_t* i64 = nullptr;  // fact int64 parts: column data
  const int32_t* code = nullptr;  // fact string parts: dictionary codes
};

// Raw value of a dimension group-by cell as an exact int64 (doubles keyed by
// bit pattern — distinct bit patterns get distinct ordinals, which renders at
// least as finely as the legacy per-row labels; identical labels merge when
// rendered).
int64_t CellKey(const storage::Column& col, int64_t row) {
  switch (col.type()) {
    case storage::ValueType::kInt64:
      return col.GetInt64(row);
    case storage::ValueType::kString:
      return col.GetStringCode(row);
    case storage::ValueType::kDouble: {
      double d = col.GetDouble(row);
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

// Builds one dimension's verdict index: per-row predicate pass and, when the
// dimension contributes group keys, a dense ordinal per distinct group-column
// value combination (first-occurrence order, so ordinals are deterministic).
Result<VecDim> BuildVecDim(const query::DimBinding& d,
                           const std::vector<query::BoundPredicate>& preds,
                           const std::vector<int>& group_cols) {
  std::vector<std::vector<int64_t>> ordinals(preds.size());
  for (size_t p = 0; p < preds.size(); ++p) {
    if (preds[p].column_index < 0 ||
        preds[p].column_index >= d.dim->schema().num_fields()) {
      return Status::InvalidArgument("predicate has bad column index");
    }
    DPSTARJ_ASSIGN_OR_RETURN(
        ordinals[p],
        ComputeDomainIndexes(d.dim->column(preds[p].column_index),
                             preds[p].domain));
  }

  const auto& keys = d.dim->column(d.dim_pk_col).int64_data();
  VecDim vd;
  std::vector<int32_t> verdicts(keys.size());
  std::map<std::vector<int64_t>, int32_t> ordinal_of;  // group combo → ordinal
  std::vector<int64_t> combo(group_cols.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    bool pass = true;
    for (size_t p = 0; p < preds.size() && pass; ++p) {
      pass = ordinals[p][r] >= 0 && preds[p].Matches(ordinals[p][r]);
    }
    if (!pass) {
      verdicts[r] = kFailVerdict;
      continue;
    }
    int32_t ordinal = 0;
    if (!group_cols.empty()) {
      for (size_t c = 0; c < group_cols.size(); ++c) {
        combo[c] = CellKey(d.dim->column(group_cols[c]),
                           static_cast<int64_t>(r));
      }
      auto [it, inserted] = ordinal_of.emplace(
          combo, static_cast<int32_t>(vd.rep_rows.size()));
      if (inserted) vd.rep_rows.push_back(static_cast<int64_t>(r));
      ordinal = it->second;
    }
    verdicts[r] = ordinal;
  }
  auto built = KeyIndex::Build(keys, verdicts);
  if (!built.ok()) {
    return Status::InvalidArgument(
        Format("duplicate primary key in dimension '%s': %s", d.table.c_str(),
               built.status().message().c_str()));
  }
  vd.index = std::move(*built);
  return vd;
}

struct ScanPartial {
  double scalar = 0.0;
  int64_t rows = 0;
  std::unique_ptr<GroupAccumulator> groups;
  int64_t error_row = -1;  // first strict-integrity violation in scan order
  int error_dim = -1;
};

// Workers bump scalar/rows on every passing chunk, so each role's partial
// gets its own cache line (see CacheAligned in exec/parallel.h).
using ScanPartials = std::vector<CacheAligned<ScanPartial>>;

// True when bits [0, rows) are all set — a rebuilt predicate bitmap that
// passes every real dimension row. Together with PlanDim::has_absent_fk() ==
// false this proves the dimension cannot reject any fact row, so the sweep
// skips its gathers entirely (fully-open predicates are the steady state of
// PM perturbation over wide domains). The check is ISA-independent, so
// scalar and AVX2 executions still take identical code paths.
bool BitmapPassesAllRows(const std::vector<uint64_t>& words, int32_t rows) {
  const int64_t full = rows >> 6;
  for (int64_t w = 0; w < full; ++w) {
    if (words[static_cast<size_t>(w)] != ~uint64_t{0}) return false;
  }
  const int tail = rows & 63;
  if (tail == 0) return true;
  const uint64_t need = ~uint64_t{0} >> (64 - tail);
  return (words[static_cast<size_t>(full)] & need) == need;
}

// First strict-integrity violation across workers (scan order), or row -1.
std::pair<int64_t, int> FirstStrictError(const ScanPartials& partials) {
  int64_t error_row = -1;
  int error_dim = -1;
  for (const auto& slot : partials) {
    const ScanPartial& p = slot.value;
    if (p.error_row >= 0 && (error_row < 0 || p.error_row < error_row)) {
      error_row = p.error_row;
      error_dim = p.error_dim;
    }
  }
  return {error_row, error_dim};
}

Status StrictErrorStatus(const query::BoundQuery& q, int64_t error_row,
                         int error_dim) {
  int64_t key = q.fact->column(q.dims[static_cast<size_t>(error_dim)].fact_fk_col)
                    .int64_data()[static_cast<size_t>(error_row)];
  return Status::InvalidArgument(
      Format("fact row %lld: foreign key %lld misses dimension '%s'",
             static_cast<long long>(error_row), static_cast<long long>(key),
             q.dims[static_cast<size_t>(error_dim)].table.c_str()));
}

// Folds worker partials of a non-grouped scan, in worker order.
QueryResult FinalizeScalar(const ScanPartials& partials, bool is_avg) {
  QueryResult result;
  double scalar = 0.0;
  int64_t rows = 0;
  for (const auto& slot : partials) {
    scalar += slot.value.scalar;
    rows += slot.value.rows;
  }
  result.scalar =
      is_avg ? (rows > 0 ? scalar / static_cast<double>(rows) : 0.0) : scalar;
  return result;
}

// Renders labels once per group and merges by label (distinct codes can
// render identically, e.g. two doubles formatting the same) — exactly the
// legacy per-row semantics. `rep_rows[dim]` maps a dimension's group ordinal
// to a representative dimension row.
QueryResult RenderGroupedResult(
    const query::BoundQuery& q, const GroupCodeLayout& layout,
    const std::vector<PlanLabelPart>& parts,
    const std::vector<const std::vector<int64_t>*>& rep_rows,
    const GroupAccumulator& merged, bool is_avg) {
  QueryResult result;
  result.grouped = true;
  std::map<std::string, GroupAgg> by_label;
  std::string label;
  merged.ForEach([&](uint64_t code, const GroupAgg& agg) {
    label.clear();
    for (const auto& part : parts) {
      if (!label.empty()) label += kGroupKeyDelimiter;
      if (part.dim_idx >= 0) {
        uint64_t ordinal = layout.Extract(code, part.field);
        const query::DimBinding& d = q.dims[static_cast<size_t>(part.dim_idx)];
        label += RenderCell(
            d.dim->column(part.col),
            (*rep_rows[static_cast<size_t>(part.dim_idx)])[ordinal]);
      } else if (part.is_string) {
        label += q.fact->column(part.col).dictionary()->At(
            static_cast<int32_t>(layout.Extract(code, part.field)));
      } else {
        label += std::to_string(
            part.base + static_cast<int64_t>(layout.Extract(code, part.field)));
      }
    }
    GroupAgg& slot = by_label[label];
    slot.sum += agg.sum;
    slot.rows += agg.rows;
  });
  for (const auto& [label_key, agg] : by_label) {
    result.groups[label_key] =
        is_avg ? agg.sum / static_cast<double>(agg.rows) : agg.sum;
  }
  return result;
}

// Resolves the worker count for a fact scan of `fact_rows` rows.
int ResolveWorkers(const ExecutorOptions& options, int64_t fact_rows) {
  return MorselPool::ResolveWorkers(options.exec_threads, options.morsel_size,
                                    fact_rows);
}

}  // namespace

QueryResult RenderPlanGroups(const query::BoundQuery& q, const ScanPlan& plan,
                             const GroupAccumulator& merged, bool is_avg) {
  std::vector<const std::vector<int64_t>*> rep_rows(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    rep_rows[i] = &plan.dims[i].rep_rows();
  }
  return RenderGroupedResult(q, plan.layout, plan.parts, rep_rows, merged,
                             is_avg);
}

Result<QueryResult> StarJoinExecutor::Execute(const query::BoundQuery& q) const {
  return Execute(q, PredicateOverrides(q.dims.size()));
}

Result<QueryResult> StarJoinExecutor::Execute(
    const query::BoundQuery& q, const PredicateOverrides& overrides) const {
  if (!overrides.empty() && overrides.size() != q.dims.size()) {
    return Status::InvalidArgument(
        Format("override arity %zu != dimension count %zu", overrides.size(),
               q.dims.size()));
  }
  if (options_.force_scalar) return ExecuteScalar(q, overrides, options_);

  const bool grouped = !q.group_key_layout.empty();

  // ---- group-code layout: one field per group-bearing dimension (covering
  // all of its key columns jointly) plus one field per fact-side key column.
  GroupCodeLayout layout;
  std::vector<GroupPart> parts;
  std::vector<std::vector<int>> dim_group_cols(q.dims.size());
  std::vector<int> dim_fields(q.dims.size(), -1);
  if (grouped) {
    parts.reserve(q.group_key_layout.size());
    for (const auto& [dim_idx, col] : q.group_key_layout) {
      GroupPart part;
      part.dim_idx = dim_idx;
      part.col = col;
      if (dim_idx >= 0) {
        dim_group_cols[static_cast<size_t>(dim_idx)].push_back(col);
      } else {
        const storage::Column& c = q.fact->column(col);
        if (c.type() == storage::ValueType::kDouble) {
          // Unbounded ordinal space; take the label-per-row pipeline.
          return ExecuteScalar(q, overrides, options_);
        }
        uint64_t cardinality = 1;
        if (c.type() == storage::ValueType::kString) {
          part.is_string = true;
          part.code = c.code_data().data();
          cardinality = static_cast<uint64_t>(
              std::max<int32_t>(c.dictionary()->size(), 1));
        } else {
          const auto& data = c.int64_data();
          part.i64 = data.data();
          if (!data.empty()) {
            auto [lo, hi] = std::minmax_element(data.begin(), data.end());
            part.base = *lo;
            uint64_t range =
                static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
            if (range >= (uint64_t{1} << 62)) {
              return ExecuteScalar(q, overrides, options_);
            }
            cardinality = range + 1;
          }
        }
        part.field = layout.AddField(cardinality);
      }
      parts.push_back(part);
    }
  }

  // ---- per-dimension verdict tables (predicates + group ordinals).
  std::vector<VecDim> dims(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    DPSTARJ_ASSIGN_OR_RETURN(
        dims[i], BuildVecDim(q.dims[i], *EffectivePreds(q, overrides, i),
                             dim_group_cols[i]));
    dims[i].fk = q.fact->column(q.dims[i].fact_fk_col).int64_data().data();
    if (!dim_group_cols[i].empty()) {
      dim_fields[i] = layout.AddField(
          std::max<uint64_t>(dims[i].rep_rows.size(), 1));
      dims[i].field = dim_fields[i];
    }
  }
  if (grouped) {
    for (auto& part : parts) {
      if (part.dim_idx >= 0) {
        part.field = dim_fields[static_cast<size_t>(part.dim_idx)];
      }
    }
    if (!layout.Fits()) {
      // Code space exceeds 64 bits; take the label-per-row pipeline.
      return ExecuteScalar(q, overrides, options_);
    }
  }
  const std::optional<uint64_t> code_space = layout.CodeSpace();

  // ---- measure spans, hoisted out of the scan.
  std::vector<std::pair<storage::Column::NumericView, double>> measures;
  measures.reserve(q.measure_cols.size());
  for (const auto& [col, coeff] : q.measure_cols) {
    measures.emplace_back(q.fact->column(col).numeric_view(), coeff);
  }

  // ---- the morsel-parallel fact scan.
  const int64_t fact_rows = q.fact->num_rows();
  const int num_workers = ResolveWorkers(options_, fact_rows);
  const size_t num_dims = q.dims.size();
  const bool strict = options_.strict_integrity;
  ScanPartials partials(static_cast<size_t>(num_workers));
  if (grouped) {
    // Bound each worker's dense table by the rows it will actually scan: a
    // flat vector much larger than the touched code count is pure memset.
    const uint64_t dense_limit =
        static_cast<uint64_t>(fact_rows / num_workers) * 4 + 1024;
    for (auto& p : partials) {
      p.value.groups = std::make_unique<GroupAccumulator>(code_space, dense_limit);
    }
  }

  auto scan = [&](int worker, int64_t begin, int64_t end) {
    ScanPartial& p = partials[static_cast<size_t>(worker)].value;
    if (p.error_row >= 0) return;  // this worker already hit a strict error
    for (int64_t row = begin; row < end; ++row) {
      uint64_t code = 0;
      bool pass = true;
      for (size_t i = 0; i < num_dims; ++i) {
        const VecDim& vd = dims[i];
        int32_t verdict = vd.index.Lookup(vd.fk[row]);
        if (verdict >= 0) {
          if (vd.field >= 0) {
            code |= layout.Pack(vd.field, static_cast<uint64_t>(verdict));
          }
          continue;
        }
        if (verdict == KeyIndex::kAbsent && strict) {
          p.error_row = row;
          p.error_dim = static_cast<int>(i);
          return;
        }
        pass = false;
        break;
      }
      if (!pass) continue;

      double w = 1.0;
      if (!measures.empty()) {
        w = 0.0;
        for (const auto& [view, coeff] : measures) w += coeff * view[row];
      }
      if (!grouped) {
        p.scalar += w;
        p.rows += 1;
        continue;
      }
      for (const auto& part : parts) {
        if (part.dim_idx >= 0) continue;  // dim ordinals packed above
        uint64_t ordinal =
            part.is_string
                ? static_cast<uint64_t>(part.code[row])
                : static_cast<uint64_t>(part.i64[row] - part.base);
        code |= layout.Pack(part.field, ordinal);
      }
      p.groups->Add(code, w);
    }
  };
  MorselPool::Shared().Run(num_workers, fact_rows, options_.morsel_size, scan);

  // ---- deterministic merge, in worker order.
  if (strict) {
    auto [error_row, error_dim] = FirstStrictError(partials);
    if (error_row >= 0) return StrictErrorStatus(q, error_row, error_dim);
  }

  const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;
  if (!grouped) return FinalizeScalar(partials, is_avg);

  GroupAccumulator& merged = *partials[0].value.groups;
  for (size_t i = 1; i < partials.size(); ++i) {
    merged.MergeFrom(*partials[i].value.groups);
  }

  std::vector<PlanLabelPart> render_parts;
  render_parts.reserve(parts.size());
  for (const auto& part : parts) {
    PlanLabelPart rp;
    rp.dim_idx = part.dim_idx;
    rp.col = part.col;
    rp.field = part.field;
    rp.is_string = part.is_string;
    rp.base = part.base;
    render_parts.push_back(rp);
  }
  std::vector<const std::vector<int64_t>*> rep_rows(num_dims);
  for (size_t i = 0; i < num_dims; ++i) rep_rows[i] = &dims[i].rep_rows;
  return RenderGroupedResult(q, layout, render_parts, rep_rows, merged, is_avg);
}

Result<QueryResult> StarJoinExecutor::Execute(const query::BoundQuery& q,
                                              const PredicateOverrides& overrides,
                                              const ScanPlan& plan,
                                              obs::Trace* trace) const {
  if (!overrides.empty() && overrides.size() != q.dims.size()) {
    return Status::InvalidArgument(
        Format("override arity %zu != dimension count %zu", overrides.size(),
               q.dims.size()));
  }
  // Plans carry no scaffold when grouping cannot pack into 64 bits; the
  // scalar pipeline re-derives everything from the query each run.
  if (options_.force_scalar || plan.requires_scalar()) {
    obs::ScopedStage scan_span(trace, obs::Stage::kScan);
    return ExecuteScalar(q, overrides, options_);
  }
  if (!plan.Matches(q)) {
    return Status::InvalidArgument(
        "scan plan is stale for this query (a table changed since compile); "
        "recompile via PlanCache::GetOrCompile");
  }

  const size_t num_dims = q.dims.size();
  const bool grouped = plan.grouped;

  // ---- the cheap per-execution part: one predicate bitmap per dimension.
  std::vector<std::vector<uint64_t>> bitmaps(num_dims);
  {
    obs::ScopedStage bitmap_span(trace, obs::Stage::kBitmapRebuild);
    for (size_t i = 0; i < num_dims; ++i) {
      DPSTARJ_ASSIGN_OR_RETURN(
          bitmaps[i], BuildPassBitmap(plan.dims[i], *q.dims[i].dim,
                                      *EffectivePreds(q, overrides, i)));
    }
  }
  // Everything below is the fact sweep (run-sorted or probing) + merge.
  obs::ScopedStage scan_span(trace, obs::Stage::kScan);

  const int64_t fact_rows = plan.fact_rows();
  const int num_workers = ResolveWorkers(options_, fact_rows);
  const bool strict = options_.strict_integrity;
  const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;

  // ---- run-sorted fast path (grouped, dense code space, runs built,
  // non-strict): sweep each group's pre-partitioned run once and emit a
  // single aggregate into its pre-rendered label slot — sequential reads, no
  // random accumulator traffic, and no string work at all. Per-group sums
  // associate in row order, so results are identical at every worker count
  // for exact aggregates and reproducible for inexact ones.
  if (grouped && plan.has_sorted_runs && !strict) {
    const int64_t code_space = static_cast<int64_t>(*plan.code_space);
    const size_t num_labels = plan.group_labels().size();
    const int64_t* offsets = plan.run_offsets().data();
    const int32_t* label_of = plan.label_of_code().data();
    const double* sorted_w =
        plan.sorted_weights().empty() ? nullptr : plan.sorted_weights().data();
    // Only dimensions that can actually reject a fact row take part in the
    // verdict gather (see BitmapPassesAllRows).
    std::vector<const int32_t*> sorted_rows;
    std::vector<const uint64_t*> words;
    for (size_t i = 0; i < num_dims; ++i) {
      if (!plan.dims[i].has_absent_fk() &&
          BitmapPassesAllRows(bitmaps[i], plan.dims[i].num_rows)) {
        continue;
      }
      sorted_rows.push_back(plan.sorted_dim_row(i).data());
      words.push_back(bitmaps[i].data());
    }
    const size_t active_dims = sorted_rows.size();
    // Workers are sized by the real work — the fact rows inside the runs —
    // then clamped to the number of code morsels actually available.
    const int64_t code_morsel = std::max<int64_t>(
        code_space / (int64_t{std::max(num_workers, 1)} * 8) + 1, 64);
    const int64_t code_morsels = (code_space + code_morsel - 1) / code_morsel;
    const int sweep_workers = static_cast<int>(std::min<int64_t>(
        std::max(num_workers, 1), std::max<int64_t>(code_morsels, 1)));
    std::vector<std::vector<GroupAgg>> label_partials(
        static_cast<size_t>(sweep_workers), std::vector<GroupAgg>(num_labels));
    // The sweep dispatches through the kernel layer in ≤64-row chunks: one
    // pass_mask gather-AND per chunk, popcount for the row count, and a wide
    // contiguous accumulate (sum_span) when every row in the chunk passed —
    // the common case for selective-on-few-dims queries — falling back to a
    // set-bit walk for sparse chunks.
    const auto& kern = kernels::ActiveKernels();
    const int32_t* const* srows = sorted_rows.data();
    const uint64_t* const* wptrs = words.data();
    auto sweep = [&](int worker, int64_t code_begin, int64_t code_end) {
      std::vector<GroupAgg>& aggs = label_partials[static_cast<size_t>(worker)];
      for (int64_t code = code_begin; code < code_end; ++code) {
        const int64_t begin = offsets[code];
        const int64_t end = offsets[code + 1];
        if (begin == end) continue;
        double sum = 0.0;
        int64_t rows = 0;
        if (active_dims == 0) {
          // Every row of the run passes: one wide accumulate, no gathers.
          rows = end - begin;
          if (sorted_w != nullptr) sum = kern.sum_span(sorted_w + begin, rows);
        } else {
          for (int64_t j = begin; j < end; j += 64) {
            const int nbits = static_cast<int>(std::min<int64_t>(64, end - j));
            const uint64_t mask =
                kern.pass_mask(srows, wptrs, active_dims, j, nbits);
            if (mask == 0) continue;
            const int hits = __builtin_popcountll(mask);
            rows += hits;
            if (sorted_w == nullptr) continue;  // COUNT: popcount is enough
            sum += hits == nbits
                       ? kern.sum_span(sorted_w + j, nbits)
                       : kernels::SumMaskedAscending(sorted_w, j, mask);
          }
        }
        if (rows > 0) {
          GroupAgg& agg = aggs[static_cast<size_t>(label_of[code])];
          agg.sum += sorted_w != nullptr ? sum : static_cast<double>(rows);
          agg.rows += rows;
        }
      }
    };
    MorselPool::Shared().Run(sweep_workers, code_space, code_morsel, sweep);

    // Labels are pre-sorted, so the result map builds in O(groups) with an
    // end hint instead of O(groups log groups) comparisons.
    QueryResult result;
    result.grouped = true;
    for (size_t li = 0; li < num_labels; ++li) {
      GroupAgg total;
      for (const auto& aggs : label_partials) {  // worker order: deterministic
        total.sum += aggs[li].sum;
        total.rows += aggs[li].rows;
      }
      if (total.rows == 0) continue;
      result.groups.emplace_hint(
          result.groups.end(), plan.group_labels()[li],
          is_avg ? total.sum / static_cast<double>(total.rows) : total.sum);
    }
    return result;
  }

  ScanPartials partials(static_cast<size_t>(num_workers));
  if (grouped) {
    const uint64_t dense_limit =
        static_cast<uint64_t>(fact_rows / num_workers) * 4 + 1024;
    for (auto& p : partials) {
      p.value.groups =
          std::make_unique<GroupAccumulator>(plan.code_space, dense_limit);
    }
  }

  std::vector<const int32_t*> dim_rows(num_dims);
  std::vector<const uint64_t*> pass_words(num_dims);
  std::vector<int32_t> sentinels(num_dims);
  for (size_t i = 0; i < num_dims; ++i) {
    dim_rows[i] = plan.fact_dim_row(i).data();
    pass_words[i] = bitmaps[i].data();
    sentinels[i] = plan.dims[i].num_rows;
  }
  // The non-strict sweep only gathers dimensions that can reject a row
  // (BitmapPassesAllRows); strict mode keeps the full set because it must
  // report the exact (row, dimension) of an integrity violation.
  std::vector<const int32_t*> active_rows;
  std::vector<const uint64_t*> active_words;
  for (size_t i = 0; i < num_dims; ++i) {
    if (!plan.dims[i].has_absent_fk() &&
        BitmapPassesAllRows(bitmaps[i], plan.dims[i].num_rows)) {
      continue;
    }
    active_rows.push_back(dim_rows[i]);
    active_words.push_back(pass_words[i]);
  }
  const size_t active_dims = active_rows.size();
  const double* weights = plan.weights().empty() ? nullptr : plan.weights().data();
  std::optional<RowCodes> code_of;
  if (grouped) code_of.emplace(plan);

  // The scan is pure gathers: resolved dimension rows index into the pass
  // bitmaps (an absent FK hits the sentinel bit, which is always 0), the
  // weight is pre-computed per row, and a passing row's group code is
  // derived from the FK rows the gather just read. Strict mode takes a
  // separate branchy loop because it must distinguish "absent" from
  // "filtered" at the exact (row, dimension) the fresh pipeline would.
  auto scan = [&](int worker, int64_t begin, int64_t end) {
    ScanPartial& p = partials[static_cast<size_t>(worker)].value;
    if (p.error_row >= 0) return;
    if (strict) {
      for (int64_t row = begin; row < end; ++row) {
        bool pass = true;
        for (size_t i = 0; i < num_dims; ++i) {
          int32_t dr = dim_rows[i][row];
          if (dr == sentinels[i]) {
            p.error_row = row;
            p.error_dim = static_cast<int>(i);
            return;
          }
          if (((pass_words[i][dr >> 6] >> (dr & 63)) & 1) == 0) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        const double w = weights != nullptr ? weights[row] : 1.0;
        if (!grouped) {
          p.scalar += w;
          p.rows += 1;
        } else {
          p.groups->Add((*code_of)(row), w);
        }
      }
      return;
    }
    // Non-strict probing sweep: ≤64-row chunks through the kernel layer.
    // Scalar aggregates take popcount + wide sums; grouped aggregates must
    // touch the accumulator per row, so they walk the mask's set bits (the
    // verdict gather is still vectorized).
    const auto& kern = kernels::ActiveKernels();
    if (active_dims == 0 && !grouped) {
      // Nothing can reject a row: the whole morsel aggregates wide.
      p.rows += end - begin;
      p.scalar += weights != nullptr
                      ? kern.sum_span(weights + begin, end - begin)
                      : static_cast<double>(end - begin);
      return;
    }
    for (int64_t row = begin; row < end; row += 64) {
      const int nbits = static_cast<int>(std::min<int64_t>(64, end - row));
      const uint64_t mask =
          nbits == 64 && active_dims == 0
              ? ~uint64_t{0}
              : kern.pass_mask(active_rows.data(), active_words.data(),
                               active_dims, row, nbits);
      if (mask == 0) continue;
      if (!grouped) {
        const int hits = __builtin_popcountll(mask);
        p.rows += hits;
        if (weights == nullptr) {
          p.scalar += static_cast<double>(hits);
        } else {
          p.scalar += hits == nbits
                          ? kern.sum_span(weights + row, nbits)
                          : kernels::SumMaskedAscending(weights, row, mask);
        }
        continue;
      }
      uint64_t m = mask;
      while (m != 0) {
        const int bit = __builtin_ctzll(m);
        m &= m - 1;
        const int64_t r = row + bit;
        p.groups->Add((*code_of)(r), weights != nullptr ? weights[r] : 1.0);
      }
    }
  };
  MorselPool::Shared().Run(num_workers, fact_rows, options_.morsel_size, scan);

  if (strict) {
    auto [error_row, error_dim] = FirstStrictError(partials);
    if (error_row >= 0) return StrictErrorStatus(q, error_row, error_dim);
  }

  if (!grouped) return FinalizeScalar(partials, is_avg);

  GroupAccumulator& merged = *partials[0].value.groups;
  for (size_t i = 1; i < partials.size(); ++i) {
    merged.MergeFrom(*partials[i].value.groups);
  }
  return RenderPlanGroups(q, plan, merged, is_avg);
}

}  // namespace dpstarj::exec
