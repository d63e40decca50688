#include "exec/scan_plan.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/string_util.h"
#include "exec/domain_index.h"
#include "exec/kernels/kernels.h"
#include "exec/query_result.h"

namespace dpstarj::exec {

namespace {

// What an accessor returns for a component the plan does not carry.
template <typename T>
const std::vector<T>& EmptyVector() {
  static const std::vector<T> empty;
  return empty;
}

// Raw value of a dimension group-by cell as an exact int64 (doubles keyed by
// bit pattern, strings by dictionary code) — mirrors the fresh pipeline so
// distinct combos get distinct ordinals and identical labels merge on render.
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

// ---- intern keys. Tables are named by identity and row count, input
// components by identity (their `pins` keep every named address unique).

std::string TableKey(const storage::Table& t, int64_t rows) {
  return Format("%p#%lld", static_cast<const void*>(&t),
                static_cast<long long>(rows));
}

std::string DomainKey(const storage::AttributeDomain& domain) {
  if (!domain.is_categorical()) {
    return Format("i%lld,%lld", static_cast<long long>(domain.int_lo()),
                  static_cast<long long>(domain.int_hi()));
  }
  std::string key = "c";
  for (const auto& v : domain.categories()) {
    key += Format("%zu:", v.size());
    key += v;
  }
  return key;
}

std::string FkKey(const query::BoundQuery& q, const query::DimBinding& d,
                  int64_t fact_rows) {
  return "fk|" + TableKey(*q.fact, fact_rows) + Format(".%d|", d.fact_fk_col) +
         TableKey(*d.dim, d.dim->num_rows()) + Format(".%d", d.dim_pk_col);
}

std::string WeightsKey(const query::BoundQuery& q, int64_t fact_rows) {
  std::string key = "w|" + TableKey(*q.fact, fact_rows) + "|";
  for (const auto& [col, coeff] : q.measure_cols) {
    uint64_t bits;
    std::memcpy(&bits, &coeff, sizeof(bits));
    key += Format("%d*%016llx,", col, static_cast<unsigned long long>(bits));
  }
  return key;
}

std::string GroupKey(const storage::Table& dim, const std::vector<int>& cols) {
  std::string key = "grp|" + TableKey(dim, dim.num_rows()) + "|";
  for (int c : cols) key += Format("%d,", c);
  return key;
}

std::string OrdinalKey(const storage::Table& dim, int col,
                       const storage::AttributeDomain& domain) {
  return "ord|" + TableKey(dim, dim.num_rows()) + Format("|%d|", col) +
         DomainKey(domain);
}

// Runs (and labels) are a function of the fact rows' group codes: of the
// fact rows, the layout's field widths, and each part's source — a
// dimension part's FK and group components, or a fact column with its
// packing base.
std::string RunsKey(const ScanPlan& plan, const query::BoundQuery& q,
                    int64_t fact_rows) {
  std::string key = "runs|" + TableKey(*q.fact, fact_rows) + "|";
  for (int f = 0; f < plan.layout.num_fields(); ++f) {
    key += Format("m%llx,", static_cast<unsigned long long>(
                                plan.layout.FieldMask(f)));
  }
  for (const auto& part : plan.parts) {
    if (part.dim_idx >= 0) {
      const PlanDim& pd = plan.dims[static_cast<size_t>(part.dim_idx)];
      key += Format("|d%p/%p.%d@%d", static_cast<const void*>(pd.fk.get()),
                    static_cast<const void*>(pd.group.get()), part.col,
                    part.field);
    } else {
      key += Format("|f%d@%d%c%lld", part.col, part.field,
                    part.is_string ? 's' : 'i',
                    static_cast<long long>(part.base));
    }
  }
  return key;
}

std::string SortedKey(const char* kind, const void* runs, const void* source) {
  return Format("%s|%p|%p", kind, runs, source);
}

// Returns the interned component under `key`, building and publishing it
// when absent (a racing build that lands first wins); without an interner it
// just builds a private one.
template <typename T, typename Build>
Result<std::shared_ptr<const T>> Intern(ScaffoldInterner* interner,
                                        const std::string& key,
                                        Build&& build) {
  if (interner != nullptr) {
    if (std::shared_ptr<const T> hit = interner->Lookup<T>(key)) return hit;
  }
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const T> built, build());
  if (interner != nullptr) return interner->Insert<T>(key, std::move(built));
  return built;
}

// ---- component builders. Each takes an optional `base` — the same
// component over the fact table's first rows — and then only fills the
// appended tail, producing the array a full build over all rows would.

Result<std::shared_ptr<const OrdinalTable>> BuildOrdinalTable(
    const std::shared_ptr<storage::Table>& dim, int col,
    const storage::AttributeDomain& domain) {
  auto t = std::make_shared<OrdinalTable>();
  t->pins = {dim};
  t->column_index = col;
  t->domain = domain;
  DPSTARJ_ASSIGN_OR_RETURN(t->ordinals,
                           ComputeDomainIndexes(dim->column(col), domain));
  return std::shared_ptr<const OrdinalTable>(std::move(t));
}

// Group ordinals over *all* rows, first-occurrence order.
Result<std::shared_ptr<const GroupOrdinals>> BuildGroupOrdinals(
    const std::shared_ptr<storage::Table>& dim, const std::vector<int>& cols) {
  auto g = std::make_shared<GroupOrdinals>();
  g->pins = {dim};
  const size_t rows = static_cast<size_t>(dim->num_rows());
  g->group_ordinal.resize(rows);
  std::map<std::vector<int64_t>, int32_t> ordinal_of;
  std::vector<int64_t> combo(cols.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      combo[c] = CellKey(dim->column(cols[c]), static_cast<int64_t>(r));
    }
    auto [it, inserted] =
        ordinal_of.emplace(combo, static_cast<int32_t>(g->rep_rows.size()));
    if (inserted) g->rep_rows.push_back(static_cast<int64_t>(r));
    g->group_ordinal[r] = it->second;
  }
  return std::shared_ptr<const GroupOrdinals>(std::move(g));
}

// FK→row resolution for every fact row (the expensive probe, paid once).
Result<std::shared_ptr<const FkRowsComponent>> BuildFkRows(
    const query::BoundQuery& q, const query::DimBinding& d,
    const FkRowsComponent* base, int64_t end) {
  const auto& keys = d.dim->column(d.dim_pk_col).int64_data();
  std::vector<int32_t> row_payload(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    row_payload[r] = static_cast<int32_t>(r);
  }
  auto built = KeyIndex::Build(keys, row_payload);
  if (!built.ok()) {
    return Status::InvalidArgument(
        Format("duplicate primary key in dimension '%s': %s", d.table.c_str(),
               built.status().message().c_str()));
  }
  const KeyIndex index = std::move(*built);
  auto fk = std::make_shared<FkRowsComponent>();
  fk->pins = {q.fact, d.dim};
  int64_t begin = 0;
  if (base != nullptr) {
    fk->rows = base->rows;
    fk->has_absent_fk = base->has_absent_fk;
    begin = static_cast<int64_t>(base->rows.size());
  }
  const int64_t* keys_of_row = q.fact->column(d.fact_fk_col).int64_data().data();
  fk->rows.resize(static_cast<size_t>(end));
  const int32_t sentinel = static_cast<int32_t>(keys.size());
  for (int64_t r = begin; r < end; ++r) {
    int32_t dr = index.Lookup(keys_of_row[r]);
    if (dr == KeyIndex::kAbsent) {
      dr = sentinel;
      fk->has_absent_fk = true;
    }
    fk->rows[static_cast<size_t>(r)] = dr;
  }
  return std::shared_ptr<const FkRowsComponent>(std::move(fk));
}

// Per-row aggregate weights (fact measures are predicate-independent).
// Accumulation order per row is measure columns outer, rows inner, so an
// extended tail's sums associate exactly like a full build's.
Result<std::shared_ptr<const WeightsComponent>> BuildWeights(
    const query::BoundQuery& q, const WeightsComponent* base, int64_t end) {
  auto w = std::make_shared<WeightsComponent>();
  w->pins = {q.fact};
  int64_t begin = 0;
  if (base != nullptr) {
    w->weights = base->weights;
    begin = static_cast<int64_t>(base->weights.size());
  }
  w->weights.resize(static_cast<size_t>(end), 0.0);
  for (const auto& [col, coeff] : q.measure_cols) {
    storage::Column::NumericView view = q.fact->column(col).numeric_view();
    const double c = coeff;
    for (int64_t r = begin; r < end; ++r) {
      w->weights[static_cast<size_t>(r)] += c * view[r];
    }
  }
  return std::shared_ptr<const WeightsComponent>(std::move(w));
}

// (Re)renders the label of every code whose run is non-empty, merging codes
// that render identically — shared by full and extending builds so an
// extended label table is the fresh one by construction. A group-bearing
// dimension with zero rows means no fact row can ever pass (all FKs resolve
// to its sentinel), so nothing is renderable — and its empty rep_rows must
// not be indexed.
void RenderRunLabels(const ScanPlan& plan, const query::BoundQuery& q,
                     RunsComponent& out) {
  const int64_t space = static_cast<int64_t>(out.run_offsets.size()) - 1;
  bool renderable = true;
  for (const auto& part : plan.parts) {
    if (part.dim_idx >= 0 &&
        plan.dims[static_cast<size_t>(part.dim_idx)].rep_rows().empty()) {
      renderable = false;
      break;
    }
  }
  out.group_labels.clear();
  out.label_of_code.assign(static_cast<size_t>(space), -1);
  std::map<std::string, std::vector<int64_t>> codes_of_label;
  std::string label;
  for (int64_t code = 0; renderable && code < space; ++code) {
    if (out.run_offsets[static_cast<size_t>(code)] ==
        out.run_offsets[static_cast<size_t>(code) + 1]) {
      continue;
    }
    label.clear();
    for (const auto& part : plan.parts) {
      if (!label.empty()) label += kGroupKeyDelimiter;
      uint64_t ordinal =
          plan.layout.Extract(static_cast<uint64_t>(code), part.field);
      if (part.dim_idx >= 0) {
        const PlanDim& pd = plan.dims[static_cast<size_t>(part.dim_idx)];
        const query::DimBinding& d = q.dims[static_cast<size_t>(part.dim_idx)];
        label += d.dim->column(part.col)
                     .GetValue(pd.rep_rows()[ordinal])
                     .ToString();
      } else if (part.is_string) {
        label += q.fact->column(part.col).dictionary()->At(
            static_cast<int32_t>(ordinal));
      } else {
        label += std::to_string(part.base + static_cast<int64_t>(ordinal));
      }
    }
    codes_of_label[label].push_back(code);
  }
  out.group_labels.reserve(codes_of_label.size());
  for (auto& [label_key, code_list] : codes_of_label) {
    const int32_t slot = static_cast<int32_t>(out.group_labels.size());
    out.group_labels.push_back(label_key);
    for (int64_t code : code_list) {
      out.label_of_code[static_cast<size_t>(code)] = slot;
    }
  }
}

// Run offsets of a stable counting sort by group code, and the label table.
// `codes` holds the group codes of the rows the build covers: every fact row
// for a full build; only the appended tail when extending `base` (the runs
// over the compiled rows). The plan's layout, parts and dimension FK/group
// components must already be set.
Result<std::shared_ptr<const RunsComponent>> BuildRuns(
    const ScanPlan& plan, const query::BoundQuery& q, const RunsComponent* base,
    const std::vector<uint32_t>& codes) {
  auto out = std::make_shared<RunsComponent>();
  out->pins.push_back(q.fact);
  for (const PlanDim& pd : plan.dims) {
    if (pd.field < 0) continue;
    out->pins.push_back(pd.fk);
    out->pins.push_back(pd.group);
  }
  // Extending: each code's run grows by its tail count, and the label table
  // only changes when the tail populates a run that was empty (the table
  // depends only on the set of non-empty runs).
  const size_t space = static_cast<size_t>(*plan.code_space);
  std::vector<int64_t> count(space, 0);
  for (uint32_t code : codes) ++count[code];
  bool populates_empty_run = base == nullptr;
  out->run_offsets.assign(space + 1, 0);
  for (size_t c = 0; c < space; ++c) {
    int64_t old_len = 0;
    if (base != nullptr) {
      old_len = base->run_offsets[c + 1] - base->run_offsets[c];
      if (old_len == 0 && count[c] > 0) populates_empty_run = true;
    }
    out->run_offsets[c + 1] = out->run_offsets[c] + old_len + count[c];
  }
  if (populates_empty_run) {
    RenderRunLabels(plan, q, *out);
  } else {
    out->group_labels = base->group_labels;
    out->label_of_code = base->label_of_code;
  }
  return std::shared_ptr<const RunsComponent>(std::move(out));
}

// One run-ordered array to build: `src` is the per-fact-row source over all
// rows, `old` (extension only) the run-ordered array over the compiled rows.
template <typename T>
struct SortJob {
  const std::vector<T>* src = nullptr;
  const std::vector<T>* old = nullptr;
  std::shared_ptr<SortedColumn<T>> out;
};

// Builds every missing run-ordered array in one fused pass over the rows.
// `codes` are the group codes of rows [n - codes.size(), n): every row for a
// full build, the appended tail when extending `base`.
//
// Full build: a stable counting-sort scatter through per-code cursors.
// Extension: each code's new run is its old run (rows already in scan
// order) followed by its tail rows in scan order — exactly what a fresh
// stable counting sort over all rows produces, since every tail row index
// exceeds every compiled row index. The tail is counting-sorted on its own,
// so the merge emits every element exactly once, strictly in run order.
void FillSorted(const RunsComponent& runs, const RunsComponent* base,
                int64_t n, const std::vector<uint32_t>& codes,
                std::vector<SortJob<int32_t>>& rows,
                std::vector<SortJob<double>>& weights) {
  if (rows.empty() && weights.empty()) return;
  const size_t space = runs.run_offsets.size() - 1;
  auto reserve = [n](auto& jobs) {
    for (auto& job : jobs) {
      if (job.old == nullptr) {
        job.out->values.resize(static_cast<size_t>(n));
      } else {
        job.out->values.reserve(static_cast<size_t>(n));
      }
    }
  };
  reserve(rows);
  reserve(weights);
  if (base == nullptr) {
    std::vector<int64_t> cursor(runs.run_offsets.begin(),
                                runs.run_offsets.end() - 1);
    for (int64_t r = 0; r < n; ++r) {
      const size_t pos =
          static_cast<size_t>(cursor[codes[static_cast<size_t>(r)]]++);
      for (auto& job : rows) {
        job.out->values[pos] = (*job.src)[static_cast<size_t>(r)];
      }
      for (auto& job : weights) {
        job.out->values[pos] = (*job.src)[static_cast<size_t>(r)];
      }
    }
    return;
  }
  const int64_t old_rows = n - static_cast<int64_t>(codes.size());
  std::vector<int64_t> tail_begin(space + 1, 0);
  for (uint32_t code : codes) ++tail_begin[code + 1];
  for (size_t c = 0; c < space; ++c) tail_begin[c + 1] += tail_begin[c];
  std::vector<int64_t> tail_sorted(codes.size());
  {
    std::vector<int64_t> cursor(tail_begin.begin(), tail_begin.end() - 1);
    for (size_t t = 0; t < codes.size(); ++t) {
      tail_sorted[static_cast<size_t>(cursor[codes[t]]++)] =
          old_rows + static_cast<int64_t>(t);
    }
  }
  auto merge_run = [&](auto& jobs, size_t c) {
    const int64_t old_begin = base->run_offsets[c];
    const int64_t old_end = base->run_offsets[c + 1];
    for (auto& job : jobs) {
      auto& v = job.out->values;
      v.insert(v.end(), job.old->begin() + old_begin,
               job.old->begin() + old_end);
      for (int64_t t = tail_begin[c]; t < tail_begin[c + 1]; ++t) {
        v.push_back(
            (*job.src)[static_cast<size_t>(tail_sorted[static_cast<size_t>(t)])]);
      }
    }
  };
  for (size_t c = 0; c < space; ++c) {
    merge_run(rows, c);
    merge_run(weights, c);
  }
}

}  // namespace

RowCodes::RowCodes(const ScanPlan& plan) {
  for (const PlanDim& pd : plan.dims) {
    if (pd.field < 0) continue;
    DimField d;
    d.rows = pd.fk->rows.data();
    d.ordinals = pd.group->group_ordinal.data();
    d.sentinel = pd.num_rows;
    d.shift = plan.layout.Shift(pd.field);
    dims_.push_back(d);
  }
  for (const auto& part : plan.parts) {
    if (part.dim_idx >= 0) continue;
    const storage::Column& c = plan.fact_table().column(part.col);
    FactField f;
    if (part.is_string) {
      f.codes = c.code_data().data();
    } else {
      f.values = c.int64_data().data();
      f.base = part.base;
    }
    f.shift = plan.layout.Shift(part.field);
    facts_.push_back(f);
  }
}

static_assert(GroupAccumulator::kDenseLimit <= (uint64_t{1} << 32),
              "dense code spaces must fit the run build's uint32 codes");

// Assembles the run-sorted components of a plan whose layout, FK, group and
// weights components are set: interned ones are looked up, the missing ones
// built (extending `old`'s arrays when given) and then published. The group
// codes the builds sort by are derived once, for exactly the rows they
// cover, and dropped afterwards.
Status ScanPlan::AssembleRuns(const ScanPlan* old, const query::BoundQuery& q,
                              ScaffoldInterner* interner) {
  const int64_t begin = old != nullptr ? old->fact_rows_ : 0;
  const RunsComponent* base = old != nullptr ? old->runs_.get() : nullptr;
  std::vector<uint32_t> codes;  // rows [begin, fact_rows_); dense space < 2^32
  bool derived = false;
  auto derive_codes = [&] {
    if (derived) return;
    derived = true;
    const RowCodes code_of(*this);
    codes.reserve(static_cast<size_t>(fact_rows_ - begin));
    for (int64_t r = begin; r < fact_rows_; ++r) {
      codes.push_back(static_cast<uint32_t>(code_of(r)));
    }
  };
  DPSTARJ_ASSIGN_OR_RETURN(
      runs_, Intern<RunsComponent>(interner, RunsKey(*this, q, fact_rows_), [&] {
        derive_codes();
        return BuildRuns(*this, q, base, codes);
      }));

  std::vector<SortJob<int32_t>> row_jobs;
  std::vector<std::string> row_keys;
  std::vector<size_t> row_dims;
  for (size_t i = 0; i < dims.size(); ++i) {
    PlanDim& pd = dims[i];
    std::string key = SortedKey("srows", runs_.get(), pd.fk.get());
    if (interner != nullptr) pd.sorted = interner->Lookup<SortedRows>(key);
    if (pd.sorted != nullptr) continue;
    SortJob<int32_t> job;
    job.src = &pd.fk->rows;
    if (old != nullptr) job.old = &old->dims[i].sorted->values;
    job.out = std::make_shared<SortedRows>();
    job.out->pins = {runs_, pd.fk};
    row_jobs.push_back(std::move(job));
    row_keys.push_back(std::move(key));
    row_dims.push_back(i);
  }
  std::vector<SortJob<double>> weight_jobs;
  std::string weights_key;
  if (weights_ != nullptr) {
    weights_key = SortedKey("sweights", runs_.get(), weights_.get());
    if (interner != nullptr) {
      sorted_weights_ = interner->Lookup<SortedWeights>(weights_key);
    }
    if (sorted_weights_ == nullptr) {
      SortJob<double> job;
      job.src = &weights_->weights;
      if (old != nullptr) job.old = &old->sorted_weights_->values;
      job.out = std::make_shared<SortedWeights>();
      job.out->pins = {runs_, weights_};
      weight_jobs.push_back(std::move(job));
    }
  }
  if (!row_jobs.empty() || !weight_jobs.empty()) {
    derive_codes();
    FillSorted(*runs_, base, fact_rows_, codes, row_jobs, weight_jobs);
  }
  for (size_t j = 0; j < row_jobs.size(); ++j) {
    std::shared_ptr<const SortedRows> built = std::move(row_jobs[j].out);
    dims[row_dims[j]].sorted =
        interner != nullptr ? interner->Insert(row_keys[j], std::move(built))
                            : std::move(built);
  }
  if (!weight_jobs.empty()) {
    std::shared_ptr<const SortedWeights> built = std::move(weight_jobs[0].out);
    sorted_weights_ = interner != nullptr
                          ? interner->Insert(weights_key, std::move(built))
                          : std::move(built);
  }
  return Status::OK();
}

Result<ScanPlan> ScanPlan::Compile(const query::BoundQuery& q,
                                   ScaffoldInterner* interner, RunSort runs) {
  ScanPlan plan;
  plan.fact_ = q.fact;
  plan.fact_rows_ = q.fact->num_rows();
  plan.measure_cols_ = q.measure_cols;
  plan.group_key_layout_ = q.group_key_layout;
  for (const auto& d : q.dims) {
    plan.dim_tables_.push_back(d.dim);
    plan.dim_rows_.push_back(d.dim->num_rows());
  }
  plan.grouped = !q.group_key_layout.empty();

  // ---- group-code layout, fact-side parts first (fresh-pipeline order).
  std::vector<std::vector<int>> dim_group_cols(q.dims.size());
  if (plan.grouped) {
    plan.parts.reserve(q.group_key_layout.size());
    for (const auto& [dim_idx, col] : q.group_key_layout) {
      PlanLabelPart part;
      part.dim_idx = dim_idx;
      part.col = col;
      if (dim_idx >= 0) {
        dim_group_cols[static_cast<size_t>(dim_idx)].push_back(col);
      } else {
        const storage::Column& c = q.fact->column(col);
        uint64_t cardinality = 1;
        if (c.type() == storage::ValueType::kDouble) {
          // Unbounded ordinal space; execution takes the scalar pipeline.
          plan.requires_scalar_ = true;
          return plan;
        }
        if (c.type() == storage::ValueType::kString) {
          part.is_string = true;
          cardinality = static_cast<uint64_t>(
              std::max<int32_t>(c.dictionary()->size(), 1));
        } else {
          const auto& data = c.int64_data();
          if (!data.empty()) {
            auto [lo, hi] = std::minmax_element(data.begin(), data.end());
            part.base = *lo;
            uint64_t range =
                static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
            if (range >= (uint64_t{1} << 62)) {
              plan.requires_scalar_ = true;
              return plan;
            }
            cardinality = range + 1;
          }
        }
        part.field = plan.layout.AddField(cardinality);
      }
      plan.parts.push_back(part);
    }
  }

  // ---- per-dimension scaffolds.
  plan.dims.resize(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    const query::DimBinding& d = q.dims[i];
    PlanDim& pd = plan.dims[i];
    pd.num_rows = static_cast<int32_t>(d.dim->num_rows());

    // Memoized domain-ordinal tables for the query's own predicate columns.
    for (const auto& pred : d.predicates) {
      if (pred.column_index < 0 ||
          pred.column_index >= d.dim->schema().num_fields()) {
        return Status::InvalidArgument("predicate has bad column index");
      }
      bool have = false;
      for (const auto& t : pd.ordinal_tables) {
        if (t->column_index == pred.column_index && t->domain == pred.domain) {
          have = true;
          break;
        }
      }
      if (have) continue;
      DPSTARJ_ASSIGN_OR_RETURN(
          std::shared_ptr<const OrdinalTable> table,
          Intern<OrdinalTable>(
              interner, OrdinalKey(*d.dim, pred.column_index, pred.domain),
              [&] {
                return BuildOrdinalTable(d.dim, pred.column_index,
                                         pred.domain);
              }));
      pd.ordinal_tables.push_back(std::move(table));
    }

    const std::vector<int>& group_cols = dim_group_cols[i];
    if (!group_cols.empty()) {
      DPSTARJ_ASSIGN_OR_RETURN(
          pd.group,
          Intern<GroupOrdinals>(interner, GroupKey(*d.dim, group_cols), [&] {
            return BuildGroupOrdinals(d.dim, group_cols);
          }));
      pd.field = plan.layout.AddField(
          std::max<uint64_t>(pd.group->rep_rows.size(), 1));
    }

    DPSTARJ_ASSIGN_OR_RETURN(
        pd.fk, Intern<FkRowsComponent>(
                   interner, FkKey(q, d, plan.fact_rows_),
                   [&] { return BuildFkRows(q, d, nullptr, plan.fact_rows_); }));
  }

  if (plan.grouped) {
    for (auto& part : plan.parts) {
      if (part.dim_idx >= 0) {
        part.field = plan.dims[static_cast<size_t>(part.dim_idx)].field;
      }
    }
    if (!plan.layout.Fits()) {
      // Scalar execution re-derives everything from the query; drop the
      // scaffolds already referenced so the plan is just identity fields.
      plan.requires_scalar_ = true;
      plan.dims.clear();
      plan.dims.shrink_to_fit();
      plan.parts.clear();
      return plan;
    }
    plan.code_space = plan.layout.CodeSpace();
  }

  if (!q.measure_cols.empty()) {
    DPSTARJ_ASSIGN_OR_RETURN(
        plan.weights_,
        Intern<WeightsComponent>(interner, WeightsKey(q, plan.fact_rows_),
                                 [&] { return BuildWeights(q, nullptr, plan.fact_rows_); }));
  }

  // Run-sorted layout for dense code spaces: stable counting sort of fact
  // rows by group code, so warm executions aggregate each group in one
  // sequential sweep.
  if (runs == RunSort::kBuild && plan.runs_deferred()) {
    plan.has_sorted_runs = true;
    DPSTARJ_RETURN_NOT_OK(plan.AssembleRuns(nullptr, q, interner));
  }
  return plan;
}

bool ScanPlan::runs_deferred() const {
  return !has_sorted_runs && code_space.has_value() &&
         *code_space <= GroupAccumulator::kDenseLimit;
}

bool ScanPlan::IsAppendExtension(const ScanPlan& old,
                                 const query::BoundQuery& q) {
  if (q.fact != old.fact_ || q.fact->num_rows() < old.fact_rows_) return false;
  if (q.dims.size() != old.dim_tables_.size()) return false;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].dim != old.dim_tables_[i] ||
        q.dims[i].dim->num_rows() != old.dim_rows_[i]) {
      return false;
    }
  }
  return q.measure_cols == old.measure_cols_ &&
         q.group_key_layout == old.group_key_layout_;
}

Result<ScanPlan> ScanPlan::ExtendFrom(const ScanPlan& old,
                                      const query::BoundQuery& q,
                                      ScaffoldInterner* interner) {
  if (!IsAppendExtension(old, q)) {
    return Status::NotSupported(
        "plan extension requires the compiled tables with only fact growth");
  }
  if (old.requires_scalar_) {
    return Status::NotSupported(
        "scalar-fallback plans carry no scaffold to extend");
  }
  const int64_t old_rows = old.fact_rows_;
  const int64_t new_rows = q.fact->num_rows();

  // Validate the tail's fact-side group keys against the compiled layout
  // BEFORE building anything: Pack() does not mask, so an ordinal outgrowing
  // its field would corrupt neighbouring fields. A violation (a value below
  // the compiled base, or a value/dictionary code past the field's bit
  // width) means a fresh compile would lay the code out differently — the
  // caller recompiles instead.
  for (const auto& part : old.parts) {
    if (part.dim_idx >= 0) continue;
    const storage::Column& c = q.fact->column(part.col);
    const uint64_t mask = old.layout.FieldMask(part.field);
    if (part.is_string) {
      const int32_t* code = c.code_data().data();
      for (int64_t r = old_rows; r < new_rows; ++r) {
        if (static_cast<uint64_t>(code[static_cast<size_t>(r)]) > mask) {
          return Status::NotSupported(
              "fact group-by dictionary outgrew the compiled field");
        }
      }
    } else {
      const int64_t* i64 = c.int64_data().data();
      for (int64_t r = old_rows; r < new_rows; ++r) {
        const int64_t v = i64[static_cast<size_t>(r)];
        if (v < part.base || static_cast<uint64_t>(v - part.base) > mask) {
          return Status::NotSupported(
              "fact group-by value outgrew the compiled field");
        }
      }
    }
  }

  // The layout and every dimension-sized component (group ordinals, ordinal
  // tables) carry over; the per-fact-row components (and the runs, when the
  // plan carries them) are extended over the tail — or, when another plan
  // already extended the same component for this append, picked up from the
  // interner.
  ScanPlan plan;
  plan.fact_ = old.fact_;
  plan.fact_rows_ = new_rows;
  plan.dim_tables_ = old.dim_tables_;
  plan.dim_rows_ = old.dim_rows_;
  plan.measure_cols_ = old.measure_cols_;
  plan.group_key_layout_ = old.group_key_layout_;
  plan.grouped = old.grouped;
  plan.layout = old.layout;
  plan.parts = old.parts;
  plan.code_space = old.code_space;
  plan.has_sorted_runs = old.has_sorted_runs;
  plan.dims.resize(old.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    const query::DimBinding& d = q.dims[i];
    const PlanDim& from = old.dims[i];
    PlanDim& pd = plan.dims[i];
    pd.num_rows = from.num_rows;
    pd.field = from.field;
    pd.group = from.group;
    pd.ordinal_tables = from.ordinal_tables;
    DPSTARJ_ASSIGN_OR_RETURN(
        pd.fk, Intern<FkRowsComponent>(
                   interner, FkKey(q, d, new_rows),
                   [&] { return BuildFkRows(q, d, from.fk.get(), new_rows); }));
  }
  if (old.weights_ != nullptr) {
    DPSTARJ_ASSIGN_OR_RETURN(
        plan.weights_,
        Intern<WeightsComponent>(interner, WeightsKey(q, new_rows), [&] {
          return BuildWeights(q, old.weights_.get(), new_rows);
        }));
  }
  if (plan.has_sorted_runs) {
    DPSTARJ_RETURN_NOT_OK(plan.AssembleRuns(&old, q, interner));
  }
  return plan;
}

std::vector<const ScaffoldComponent*> ScanPlan::Components() const {
  std::vector<const ScaffoldComponent*> out;
  for (const auto& d : dims) {
    out.push_back(d.fk.get());
    out.push_back(d.group.get());
    out.push_back(d.sorted.get());
    for (const auto& t : d.ordinal_tables) out.push_back(t.get());
  }
  out.push_back(runs_.get());
  out.push_back(weights_.get());
  out.push_back(sorted_weights_.get());
  out.erase(std::remove(out.begin(), out.end(), nullptr), out.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ScanPlan::OwnBytes() const {
  size_t bytes = sizeof(ScanPlan) + parts.capacity() * sizeof(PlanLabelPart) +
                 dims.capacity() * sizeof(PlanDim);
  for (const auto& d : dims) {
    bytes += d.ordinal_tables.capacity() * sizeof(d.ordinal_tables[0]);
  }
  return bytes;
}

const std::vector<int32_t>& PlanDim::group_ordinal() const {
  return group != nullptr ? group->group_ordinal : EmptyVector<int32_t>();
}

const std::vector<int64_t>& PlanDim::rep_rows() const {
  return group != nullptr ? group->rep_rows : EmptyVector<int64_t>();
}

const std::vector<int32_t>& ScanPlan::sorted_dim_row(size_t i) const {
  const PlanDim& d = dims[i];
  return d.sorted != nullptr ? d.sorted->values : EmptyVector<int32_t>();
}

const std::vector<double>& ScanPlan::weights() const {
  return weights_ != nullptr ? weights_->weights : EmptyVector<double>();
}

const std::vector<int64_t>& ScanPlan::run_offsets() const {
  return runs_ != nullptr ? runs_->run_offsets : EmptyVector<int64_t>();
}

const std::vector<double>& ScanPlan::sorted_weights() const {
  return sorted_weights_ != nullptr ? sorted_weights_->values
                                    : EmptyVector<double>();
}

const std::vector<std::string>& ScanPlan::group_labels() const {
  return runs_ != nullptr ? runs_->group_labels : EmptyVector<std::string>();
}

const std::vector<int32_t>& ScanPlan::label_of_code() const {
  return runs_ != nullptr ? runs_->label_of_code : EmptyVector<int32_t>();
}

bool ScanPlan::Matches(const query::BoundQuery& q) const {
  if (q.fact != fact_ || q.fact->num_rows() != fact_rows_) return false;
  if (q.dims.size() != dim_tables_.size()) return false;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].dim != dim_tables_[i] ||
        q.dims[i].dim->num_rows() != dim_rows_[i]) {
      return false;
    }
  }
  // The canonical key sorts dimensions and measure terms, so two equivalent
  // spellings can reach the same cache slot with different internal order;
  // execution order affects inexact float association, so require the exact
  // shape the plan was compiled for (a mismatch just recompiles).
  return q.measure_cols == measure_cols_ &&
         q.group_key_layout == group_key_layout_;
}

Result<std::vector<uint64_t>> BuildPassBitmap(
    const PlanDim& pd, const storage::Table& dim,
    const std::vector<query::BoundPredicate>& preds) {
  const int64_t rows = pd.num_rows;
  // One compare → pack pass per predicate over the memoized ordinal table,
  // ANDed directly into the bitmap words by the dispatched kernel (AVX2 when
  // the host has it). Bit `rows` (the absent-FK sentinel) and every bit past
  // it stay 0: the kernel never touches bits at or past `rows` on AND and
  // stores them as 0 on the first store.
  std::vector<uint64_t> words(static_cast<size_t>((rows + 1 + 63) / 64), 0);
  const auto& kern = kernels::ActiveKernels();
  if (preds.empty()) {
    // No predicates: every real row passes.
    const int64_t full_words = rows >> 6;
    for (int64_t wi = 0; wi < full_words; ++wi) {
      words[static_cast<size_t>(wi)] = ~uint64_t{0};
    }
    if ((rows & 63) != 0) {
      words[static_cast<size_t>(full_words)] =
          ~uint64_t{0} >> (64 - (rows & 63));
    }
    return words;
  }
  std::vector<int64_t> fresh;  // ordinals computed for non-memoized predicates
  bool first = true;
  for (const auto& pred : preds) {
    if (pred.column_index < 0 ||
        pred.column_index >= dim.schema().num_fields()) {
      return Status::InvalidArgument("predicate has bad column index");
    }
    const std::vector<int64_t>* ordinals = nullptr;
    for (const auto& t : pd.ordinal_tables) {
      if (t->column_index == pred.column_index && t->domain == pred.domain) {
        ordinals = &t->ordinals;
        break;
      }
    }
    if (ordinals == nullptr) {
      DPSTARJ_ASSIGN_OR_RETURN(
          fresh,
          ComputeDomainIndexes(dim.column(pred.column_index), pred.domain));
      ordinals = &fresh;
    }
    // lo clamped to 0 so out-of-domain cells (ordinal -1) always fail,
    // matching the fresh pipeline's `ordinal >= 0 && Matches(ordinal)`.
    const int64_t lo = std::max<int64_t>(pred.lo_index, 0);
    const int64_t hi = pred.hi_index;
    kern.range_bitmap_and(ordinals->data(), rows, lo, hi, first, words.data());
    first = false;
  }
  return words;
}

}  // namespace dpstarj::exec
