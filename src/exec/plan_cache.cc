#include "exec/plan_cache.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"

namespace dpstarj::exec {

namespace {

// Cache key: exactly the things a ScanPlan's scaffold is laid out by —
// tables in the bound query's *internal* join order (fact_dim_row is
// indexed by dim position), the FK/PK column pairing, the GROUP BY layout,
// measure terms in order, and the predicate (column, domain) sets (the
// memoized ordinal tables). Predicate *bounds* are deliberately omitted:
// every field of a plan is bound-independent, so a popular query
// re-filtered with different constants — and every noisy Predicate
// Mechanism re-execution — shares one compiled plan. Within a dimension the
// predicate signatures are sorted, so conjunction order does not split the
// cache. Two queries that differ only in aggregate kind (SUM vs AVG over
// the same measures) also share: the aggregate is applied at execution.
std::string PlanKey(const query::BoundQuery& q) {
  // Tables are identified by *object*, not name, matching ScanPlan::Matches:
  // one cache may serve engines over several catalogs (per-tenant instances
  // with identical schemas), and name-keyed entries would invalidation-
  // thrash between them.
  std::string key = Format("fact:%p", static_cast<const void*>(q.fact.get()));
  std::vector<std::string> pred_sigs;
  for (const auto& d : q.dims) {
    key += Format("|dim:%p@%d/%d", static_cast<const void*>(d.dim.get()),
                  d.fact_fk_col, d.dim_pk_col);
    pred_sigs.clear();
    pred_sigs.reserve(d.predicates.size());
    for (const auto& p : d.predicates) {
      pred_sigs.push_back(Format("%d:", p.column_index) + p.domain.ToString());
    }
    std::sort(pred_sigs.begin(), pred_sigs.end());
    for (const auto& sig : pred_sigs) {
      key += ';';
      key += sig;
    }
  }
  key += "|group:";
  for (const auto& [dim_idx, col] : q.group_key_layout) {
    key += Format("%d.%d,", dim_idx, col);
  }
  key += "|measure:";
  for (const auto& [col, coeff] : q.measure_cols) {
    key += Format("%d*%.17g,", col, coeff);
  }
  return key;
}

}  // namespace

PlanCache::PlanCache(size_t capacity, size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {}

Result<std::shared_ptr<const ScanPlan>> PlanCache::GetOrCompile(
    const query::BoundQuery& q, obs::Trace* trace, RunSort runs) {
  const std::string key = PlanKey(q);
  const bool need_runs = runs == RunSort::kBuild;
  // A cached plan serves the caller when it is fresh and, for a caller that
  // sweeps runs, carries them.
  auto serves = [&](const ScanPlan& plan) {
    return plan.Matches(q) && !(need_runs && plan.runs_deferred());
  };
  std::shared_ptr<const ScanPlan> append_base;
  std::shared_ptr<const ScanPlan> upgrade_base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      std::shared_ptr<const ScanPlan> cached = it->second->second;
      if (serves(*cached)) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        if (trace != nullptr) trace->plan_cache_hit = true;
        return cached;
      }
      if (cached->Matches(q)) {
        // Fresh but compiled without runs, and this caller sweeps them: the
        // upgrade below recompiles it with runs, reusing its components.
        upgrade_base = std::move(cached);
      } else if (ScanPlan::IsAppendExtension(*cached, q)) {
        // Stale, but only the fact table grew (streaming ingest): keep the
        // entry for now — its scaffold is the input of the tail extension
        // below, and a declined extension drops it then.
        append_base = std::move(cached);
      } else {
        // Anything else is an identity invalidation: nothing is
        // salvageable, drop immediately.
        Drop(it->second);
        ++stats_.invalidations;
        ++stats_.invalidated_identity;
      }
    }
  }

  // Upgrade / extend / compile outside the lock: all scan fact data and must
  // not serialize concurrent engines behind the cache mutex.
  std::shared_ptr<const ScanPlan> plan;
  bool extended = false;
  bool upgraded = false;
  // With caching disabled nothing is shared either: plans get private
  // components.
  ScaffoldInterner* interner = capacity_ == 0 ? nullptr : &interner_;
  if (append_base != nullptr) {
    obs::ScopedStage extend_span(trace, obs::Stage::kPlanExtend);
    auto ext = ScanPlan::ExtendFrom(*append_base, q, interner);
    if (ext.ok()) {
      plan = std::make_shared<const ScanPlan>(std::move(*ext));
      extended = true;
    }
    // A declined extension (NotSupported: the tail does not splice) falls
    // through to a fresh compile; the entry is dropped below.
  }
  if (plan == nullptr) plan = upgrade_base;
  if (plan == nullptr || (need_runs && plan->runs_deferred())) {
    // A run upgrade is a compile too: the run-less plan (held here) keeps
    // its FK, weights and ordinal components interned, so the compile gets
    // them back by pointer and builds only the runs.
    upgraded = plan != nullptr;
    obs::ScopedStage compile_span(trace, obs::Stage::kPlanCompile);
    DPSTARJ_ASSIGN_OR_RETURN(ScanPlan compiled,
                             ScanPlan::Compile(q, interner, runs));
    plan = std::make_shared<const ScanPlan>(std::move(compiled));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (extended || upgraded) {
    // The scaffold was reused, so this is a hit for ratio purposes — just
    // one that produced a new shared plan object.
    ++stats_.hits;
    if (extended) ++stats_.extends;
    if (trace != nullptr) trace->plan_cache_hit = true;
  } else {
    ++stats_.misses;
    if (append_base != nullptr) {
      ++stats_.invalidations;
      ++stats_.invalidated_append;
    }
  }
  if (capacity_ == 0) return plan;
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing insert landed first; keep ours only if theirs does not serve.
    const std::shared_ptr<const ScanPlan>& theirs = it->second->second;
    if (serves(*theirs)) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return theirs;
    }
    const bool replacing = theirs == append_base || theirs->Matches(q);
    Drop(it->second);
    if (!replacing) {
      // Someone else's entry went stale underneath us (not the append base
      // we deliberately left in place, nor a run-less plan we upgrade) —
      // account it like any invalidation.
      ++stats_.invalidations;
      ++stats_.invalidated_identity;
    }
  }
  // Counted only when this upgrade is the one published: a racing upgrade of
  // the same entry returned above.
  if (upgraded) ++stats_.run_upgrades;
  lru_.emplace_front(key, plan);
  index_[key] = lru_.begin();
  Account(*plan);
  // Evict by entry count and by unique scaffold bytes; the most recent entry
  // always stays so a single oversized plan is still served (it just caches
  // alone). Evicting a plan frees only the components no other cached plan
  // references.
  while (lru_.size() > 1 &&
         (lru_.size() > capacity_ || bytes_ > max_bytes_)) {
    Drop(std::prev(lru_.end()));
    ++stats_.evictions;
  }
  return plan;
}

void PlanCache::Account(const ScanPlan& plan) {
  bytes_ += plan.OwnBytes();
  for (const ScaffoldComponent* c : plan.Components()) {
    if (component_refs_[c]++ == 0) {
      const size_t added = c->ApproxBytes();
      component_bytes_ += added;
      bytes_ += added;
    }
  }
}

void PlanCache::Unaccount(const ScanPlan& plan) {
  bytes_ -= plan.OwnBytes();
  for (const ScaffoldComponent* c : plan.Components()) {
    auto it = component_refs_.find(c);
    if (--it->second == 0) {
      const size_t freed = c->ApproxBytes();
      component_bytes_ -= freed;
      bytes_ -= freed;
      component_refs_.erase(it);
    }
  }
}

void PlanCache::Drop(std::list<Entry>::iterator it) {
  Unaccount(*it->second);
  index_.erase(it->first);
  lru_.erase(it);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  component_refs_.clear();
  component_bytes_ = 0;
  bytes_ = 0;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

PlanCache::Stats PlanCache::GetStats() const {
  ScaffoldInterner::Stats components = interner_.GetStats();
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.components_built = components.built;
  out.components_reused = components.reused;
  out.component_bytes = component_bytes_;
  return out;
}

}  // namespace dpstarj::exec
