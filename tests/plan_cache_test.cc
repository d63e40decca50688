// PlanCache + ScanPlan behavior: cached-plan execution equals fresh-build
// execution bit-for-bit, invalidation fires when a table grows, equivalent
// query spellings share one plan, plans of different signatures share their
// scaffold components (and the byte budget counts each component once),
// batch lookups keep plans run-less until a single query upgrades them, the
// cache is safe under concurrent use (run under TSan via the build-tsan / CI
// TSan configuration), and the plan path never changes Predicate Mechanism
// noise semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/predicate_mechanism.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_schema.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using exec::PlanCache;
using exec::PredicateOverrides;
using exec::QueryResult;
using exec::ScanPlan;
using exec::StarJoinExecutor;
using storage::Value;
using testing_fixture::MakeToyCatalog;
using testing_fixture::ToyCountQuery;

void ExpectBitIdentical(const QueryResult& expected, const QueryResult& got) {
  EXPECT_EQ(expected.grouped, got.grouped);
  EXPECT_EQ(expected.scalar, got.scalar);
  ASSERT_EQ(expected.groups.size(), got.groups.size());
  auto it = got.groups.begin();
  for (const auto& [label, value] : expected.groups) {
    EXPECT_EQ(label, it->first);
    EXPECT_EQ(value, it->second) << "group " << label;
    ++it;
  }
}

query::StarJoinQuery ToyGroupedQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "toy_grouped";
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}, {"Prod", "cat"}};
  return q;
}

TEST(PlanCacheTest, CachedPlanMatchesFreshExecutionAndCountsHits) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery()}) {
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto fresh = executor.Execute(*bound);
    ASSERT_TRUE(fresh.ok());

    auto plan = cache.GetOrCompile(*bound);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (int rep = 0; rep < 3; ++rep) {
      auto got = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                  **plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(*fresh, *got);
    }
    auto again = cache.GetOrCompile(*bound);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), plan->get());  // same shared plan object
  }
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, InvalidatesWhenATableGrows) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());
  auto before = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                 **plan);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->scalar, 2.0);  // fixture ground truth

  // Append a matching fact row (and a new customer it references): the
  // cached plan's row counts are stale now.
  auto cust = catalog.GetTable("Cust");
  ASSERT_TRUE(cust.ok());
  ASSERT_TRUE((*cust)->AppendRow({Value(int64_t{7}), Value("N"), Value(int64_t{1})}).ok());
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{7}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());

  // Executing the stale plan directly is refused, not silently wrong.
  auto stale = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                **plan);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // The cache notices and recompiles.
  auto recompiled = cache.GetOrCompile(*bound);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_NE(recompiled->get(), plan->get());
  // A grown *dimension* is an identity invalidation — there is no append
  // path to splice, so the extension counter must stay untouched.
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  EXPECT_EQ(cache.GetStats().invalidated_identity, 1u);
  EXPECT_EQ(cache.GetStats().invalidated_append, 0u);
  EXPECT_EQ(cache.GetStats().extends, 0u);

  auto fresh = executor.Execute(*bound);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->scalar, 3.0);  // the appended row matches region N × cat a
  auto got = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                              **recompiled);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*fresh, *got);
}

TEST(PlanCacheTest, ExtendsInsteadOfInvalidatingWhenOnlyFactGrows) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());

  // Grow only the fact table (the FK resolves to an existing customer): the
  // stale entry is revalidated by tail extension, not thrown away.
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());
  auto grown = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(grown.ok());
  auto extended = cache.GetOrCompile(*grown);
  ASSERT_TRUE(extended.ok());
  EXPECT_NE(extended->get(), plan->get());  // a new immutable plan object

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);  // only the initial compile
  EXPECT_EQ(stats.hits, 1u);    // the extension counts as a (revalidated) hit
  EXPECT_EQ(stats.extends, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.invalidated_append, 0u);
  EXPECT_EQ(stats.invalidated_identity, 0u);

  // The extended plan answers exactly like the fresh pipeline on the grown
  // table, and a re-lookup at the same row count is a plain hit on it.
  auto fresh = executor.Execute(*grown);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->scalar, 3.0);  // appended row: ck=1 (region N) × pk=1 (cat a)
  auto got = executor.Execute(*grown, PredicateOverrides(grown->dims.size()),
                              **extended);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*fresh, *got);
  auto again = cache.GetOrCompile(*grown);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), extended->get());
  EXPECT_EQ(cache.GetStats().hits, 2u);
  EXPECT_EQ(cache.GetStats().extends, 1u);
}

TEST(PlanCacheTest, CountsAppendInvalidationWhenExtensionIsDeclined) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);

  // Group by a fact column so the plan packs qty (fixture range 1..5 →
  // base 1, 3-bit field) into the group code.
  query::StarJoinQuery q = ToyCountQuery();
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"price", 1.0}};
  q.group_by = {{"Orders", "qty"}};
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());

  // qty=9 has ordinal 8 > the field mask 7: the tail cannot be spliced into
  // the compiled layout, so this append-stale entry must recompile and land
  // in the *append* invalidation counter.
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());
  auto grown = binder.Bind(q);
  ASSERT_TRUE(grown.ok());
  auto recompiled = cache.GetOrCompile(*grown);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_NE(recompiled->get(), plan->get());

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.extends, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.invalidated_append, 1u);
  EXPECT_EQ(stats.invalidated_identity, 0u);
}

TEST(PlanCacheTest, EquivalentSpellingsShareOnePlan) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  // Same query, predicates declared in opposite order: the canonical key
  // collapses them, so the second bind is a cache hit.
  query::StarJoinQuery q1;
  q1.fact_table = "Orders";
  q1.joined_tables = {"Cust"};
  q1.aggregate = query::AggregateKind::kCount;
  q1.predicates.push_back(query::Predicate::Point("Cust", "region", Value("N")));
  q1.predicates.push_back(
      query::Predicate::Range("Cust", "tier", Value(int64_t{1}), Value(int64_t{2})));
  query::StarJoinQuery q2 = q1;
  std::swap(q2.predicates[0], q2.predicates[1]);

  auto b1 = binder.Bind(q1);
  auto b2 = binder.Bind(q2);
  ASSERT_TRUE(b1.ok() && b2.ok());

  auto p1 = cache.GetOrCompile(*b1);
  auto p2 = cache.GetOrCompile(*b2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->get(), p2->get());
  EXPECT_EQ(cache.GetStats().hits, 1u);

  auto fresh = executor.Execute(*b2);
  ASSERT_TRUE(fresh.ok());
  auto got =
      executor.Execute(*b2, PredicateOverrides(b2->dims.size()), **p2);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*fresh, *got);
}

TEST(PlanCacheTest, BoundIndependentKeySharesPlanAcrossFilterConstants) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  // Same logical query, four different tier ranges: the scaffold is bound-
  // independent, so all four share one compiled plan (and each still gets
  // its own correct answer through its own predicate bitmap).
  std::shared_ptr<const ScanPlan> first;
  for (int64_t hi = 1; hi <= 4; ++hi) {
    query::StarJoinQuery q;
    q.fact_table = "Orders";
    q.joined_tables = {"Cust"};
    q.aggregate = query::AggregateKind::kCount;
    q.predicates.push_back(query::Predicate::Range(
        "Cust", "tier", Value(int64_t{1}), Value(hi)));
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = cache.GetOrCompile(*bound);
    ASSERT_TRUE(plan.ok());
    if (first == nullptr) {
      first = *plan;
    } else {
      EXPECT_EQ(first.get(), plan->get()) << "hi=" << hi;
    }
    auto fresh = executor.Execute(*bound);
    auto got =
        executor.Execute(*bound, PredicateOverrides(bound->dims.size()), **plan);
    ASSERT_TRUE(fresh.ok() && got.ok());
    ExpectBitIdentical(*fresh, *got);
  }
  EXPECT_EQ(cache.GetStats().misses, 1u);
  EXPECT_EQ(cache.GetStats().hits, 3u);
}

TEST(PlanCacheTest, EmptyGroupByDimensionCompilesAndAnswersEmpty) {
  // A grouped query joining a dimension with zero rows: every fact row
  // resolves to the absent sentinel, so the answer is empty — the plan path
  // must agree with the fresh pipeline instead of touching empty rep_rows.
  storage::Catalog catalog;
  storage::Schema dim_schema(
      {storage::Field("k", storage::ValueType::kInt64),
       storage::Field("v", storage::ValueType::kInt64,
                      storage::AttributeDomain::IntRange(0, 2))});
  auto dim = *storage::Table::Create("D", dim_schema, "k");  // left empty
  storage::Schema fact_schema({storage::Field("fk", storage::ValueType::kInt64),
                               storage::Field("m", storage::ValueType::kInt64)});
  auto fact = *storage::Table::Create("F", fact_schema);
  for (int64_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(fact->AppendRow({Value(r), Value(int64_t{1})}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(dim).ok());
  ASSERT_TRUE(catalog.AddTable(fact).ok());
  ASSERT_TRUE(catalog.AddForeignKey({"F", "fk", "D", "k"}).ok());

  query::StarJoinQuery q;
  q.fact_table = "F";
  q.joined_tables = {"D"};
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"m", 1.0}};
  q.group_by = {{"D", "v"}};
  query::Binder binder(&catalog);
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  StarJoinExecutor executor;
  auto fresh = executor.Execute(*bound);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->groups.empty());

  PlanCache cache(4);
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto got =
      executor.Execute(*bound, PredicateOverrides(bound->dims.size()), **plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*fresh, *got);
}

// Toy signatures that overlap in their scaffold inputs: all join Cust, and
// the sums share the qty weights.
std::vector<query::StarJoinQuery> OverlappingToyQueries() {
  std::vector<query::StarJoinQuery> out = {ToyCountQuery(), ToyGroupedQuery()};
  query::StarJoinQuery by_region = ToyCountQuery();
  by_region.aggregate = query::AggregateKind::kSum;
  by_region.measure_terms = {{"qty", 1.0}};
  by_region.group_by = {{"Cust", "region"}};
  out.push_back(by_region);
  query::StarJoinQuery cust_only;
  cust_only.fact_table = "Orders";
  cust_only.joined_tables = {"Cust"};
  cust_only.aggregate = query::AggregateKind::kSum;
  cust_only.measure_terms = {{"qty", 1.0}};
  cust_only.predicates.push_back(query::Predicate::Range(
      "Cust", "tier", Value(int64_t{1}), Value(int64_t{3})));
  out.push_back(cust_only);
  return out;
}

size_t DimIndex(const query::BoundQuery& q, const std::string& table) {
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].table == table) return i;
  }
  ADD_FAILURE() << "no dimension " << table;
  return 0;
}

TEST(PlanCacheTest, ConcurrentSharedCacheIsSafe) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  // Fewer slots than signatures: threads keep evicting plans whose
  // components other threads' plans still share, and reassembling them.
  auto cache = std::make_shared<PlanCache>(2);

  std::vector<query::BoundQuery> bound;
  std::vector<QueryResult> expected;
  StarJoinExecutor executor;
  for (const auto& q : OverlappingToyQueries()) {
    auto b = binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    auto fresh = executor.Execute(*b);
    ASSERT_TRUE(fresh.ok());
    bound.push_back(std::move(*b));
    expected.push_back(std::move(*fresh));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      StarJoinExecutor local;
      for (int i = 0; i < 50; ++i) {
        if (t == 0 && i % 16 == 7) cache->Clear();  // exercise the clear race
        const size_t k = static_cast<size_t>(t + i) % bound.size();
        // Odd threads look up like batches (any plan; misses compile
        // run-less), even threads like single queries, which must always
        // get a plan carrying its runs — upgrading racing run-less entries.
        const exec::RunSort runs =
            t % 2 == 1 ? exec::RunSort::kDefer : exec::RunSort::kBuild;
        auto plan = cache->GetOrCompile(bound[k], nullptr, runs);
        if (!plan.ok() ||
            (runs == exec::RunSort::kBuild && (*plan)->runs_deferred())) {
          ++failures;
          continue;
        }
        auto got = local.Execute(
            bound[k], PredicateOverrides(bound[k].dims.size()), **plan);
        if (!got.ok() || got->scalar != expected[k].scalar ||
            got->groups != expected[k].groups) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache->GetStats().components_reused, 0u);
}

TEST(PlanCacheTest, SignaturesOverOneDimensionShareItsComponents) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  std::vector<query::StarJoinQuery> queries = OverlappingToyQueries();
  auto b_count = binder.Bind(queries[0]);
  auto b_grouped = binder.Bind(queries[1]);
  auto b_cust = binder.Bind(queries[3]);
  ASSERT_TRUE(b_count.ok() && b_grouped.ok() && b_cust.ok());

  auto p_count = cache.GetOrCompile(*b_count);
  auto p_grouped = cache.GetOrCompile(*b_grouped);
  auto p_cust = cache.GetOrCompile(*b_cust);
  ASSERT_TRUE(p_count.ok() && p_grouped.ok() && p_cust.ok());
  // Three signatures, three plans...
  EXPECT_NE(p_count->get(), p_grouped->get());
  EXPECT_EQ(cache.GetStats().misses, 3u);
  // ...but one FK resolution per (fact, dimension), by pointer.
  const ScanPlan& count = **p_count;
  const ScanPlan& grouped = **p_grouped;
  const ScanPlan& cust = **p_cust;
  const size_t c0 = DimIndex(*b_count, "Cust");
  const size_t c1 = DimIndex(*b_grouped, "Cust");
  const size_t c2 = DimIndex(*b_cust, "Cust");
  EXPECT_EQ(count.dims[c0].fk.get(), grouped.dims[c1].fk.get());
  EXPECT_EQ(count.dims[c0].fk.get(), cust.dims[c2].fk.get());
  EXPECT_EQ(count.fact_dim_row(c0).data(), cust.fact_dim_row(c2).data());
  EXPECT_EQ(count.dims[DimIndex(*b_count, "Prod")].fk.get(),
            grouped.dims[DimIndex(*b_grouped, "Prod")].fk.get());
  // Same measure list → one weights array; same (dimension, column,
  // domain) → one ordinal table.
  EXPECT_EQ(grouped.weights().data(), cust.weights().data());
  EXPECT_EQ(count.dims[c0].ordinal_tables.at(0).get(),
            grouped.dims[c1].ordinal_tables.at(0).get());
  EXPECT_GT(cache.GetStats().components_reused, 0u);

  // A standalone compile builds private components with the same contents.
  auto standalone = ScanPlan::Compile(*b_cust);
  ASSERT_TRUE(standalone.ok());
  EXPECT_NE(standalone->dims[c2].fk.get(), cust.dims[c2].fk.get());
  EXPECT_EQ(standalone->fact_dim_row(c2), cust.fact_dim_row(c2));
  EXPECT_EQ(standalone->weights(), cust.weights());
}

// The derived group code of every fact row, in row order (empty when the
// plan is ungrouped).
std::vector<uint64_t> DerivedCodes(const ScanPlan& plan) {
  std::vector<uint64_t> codes;
  if (!plan.grouped) return codes;
  const exec::RowCodes code_of(plan);
  for (int64_t r = 0; r < plan.fact_rows(); ++r) codes.push_back(code_of(r));
  return codes;
}

// Σ OwnBytes over `plans` + every distinct component among them once.
size_t UniqueBytes(const std::vector<const ScanPlan*>& plans) {
  std::set<const exec::ScaffoldComponent*> seen;
  size_t bytes = 0;
  for (const ScanPlan* p : plans) {
    bytes += p->OwnBytes();
    for (const exec::ScaffoldComponent* c : p->Components()) {
      if (seen.insert(c).second) bytes += c->ApproxBytes();
    }
  }
  return bytes;
}

TEST(PlanCacheTest, BytesCountSharedComponentsOnceAndReleaseWithLastPlan) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(2);

  // Two Cust-joining signatures, then two that join only Prod.
  std::vector<query::StarJoinQuery> queries = {ToyCountQuery(),
                                               ToyGroupedQuery()};
  for (const char* cat : {"a", "b"}) {
    query::StarJoinQuery q;
    q.fact_table = "Orders";
    q.joined_tables = {"Prod"};
    q.aggregate = query::AggregateKind::kCount;
    q.predicates.push_back(query::Predicate::Point("Prod", "cat", Value(cat)));
    if (std::string(cat) == "b") q.group_by = {{"Prod", "cat"}};
    queries.push_back(q);
  }
  std::vector<query::BoundQuery> bound;
  for (const auto& q : queries) {
    auto b = binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }

  std::weak_ptr<const exec::FkRowsComponent> cust_fk;
  {
    auto p0 = cache.GetOrCompile(bound[0]);
    auto p1 = cache.GetOrCompile(bound[1]);
    ASSERT_TRUE(p0.ok() && p1.ok());
    const size_t c0 = DimIndex(bound[0], "Cust");
    ASSERT_EQ((*p0)->dims[c0].fk.get(),
              (*p1)->dims[DimIndex(bound[1], "Cust")].fk.get());
    cust_fk = (*p0)->dims[c0].fk;
    // The shared FK resolutions are counted once, not per plan.
    EXPECT_EQ(cache.bytes(), UniqueBytes({p0->get(), p1->get()}));
    EXPECT_LT(cache.bytes(),
              UniqueBytes({p0->get()}) + UniqueBytes({p1->get()}));
    EXPECT_EQ(cache.GetStats().component_bytes,
              cache.bytes() - (*p0)->OwnBytes() - (*p1)->OwnBytes());

    // Evicting one holder keeps the shared component counted.
    auto p2 = cache.GetOrCompile(bound[2]);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(cache.GetStats().evictions, 1u);
    EXPECT_EQ(cache.bytes(), UniqueBytes({p1->get(), p2->get()}));
  }
  // Evicting its last holder releases it: from the byte count, and — no
  // plan referencing it any more — from memory.
  auto p3 = cache.GetOrCompile(bound[3]);
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(cache.GetStats().evictions, 2u);
  auto p2 = cache.GetOrCompile(bound[2]);  // a hit: still cached
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.bytes(), UniqueBytes({p2->get(), p3->get()}));
  EXPECT_TRUE(cust_fk.expired());

  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.GetStats().component_bytes, 0u);
}

// SQL over the SSB star in the perfbench shapes: the analyst drill-downs
// (grouped, multi-dimension, inexact double SUMs included) and the explore
// grid of 8 predicate columns × 4 GROUP BYs × 3 aggregates.
std::string SsbSql(const std::string& agg, const std::string& group,
                   const std::vector<std::string>& dims,
                   const std::vector<std::string>& preds) {
  auto join_of = [](const std::string& dim) -> std::string {
    if (dim == "Date") return "Lineorder.orderdate = Date.datekey";
    if (dim == "Customer") return "Lineorder.custkey = Customer.custkey";
    if (dim == "Supplier") return "Lineorder.suppkey = Supplier.suppkey";
    return "Lineorder.partkey = Part.partkey";
  };
  std::string from;
  std::string where;
  for (const char* dim : {"Date", "Customer", "Part", "Supplier"}) {
    if (std::find(dims.begin(), dims.end(), dim) == dims.end()) continue;
    from += std::string(dim) + ", ";
    where += (where.empty() ? "" : " AND ") + join_of(dim);
  }
  for (const std::string& p : preds) where += " AND " + p;
  std::string sql = "SELECT " + agg + (group.empty() ? "" : ", " + group) +
                    " FROM " + from + "Lineorder WHERE " + where;
  if (!group.empty()) sql += " GROUP BY " + group + " ORDER BY " + group;
  return sql + ";";
}

std::vector<std::string> SsbShapes() {
  const std::string count = "count(*)";
  const std::string sum = "sum(Lineorder.revenue)";
  const std::string profit = "sum(Lineorder.revenue - Lineorder.supplycost)";
  const std::string region = "'" + ssb::Regions()[1] + "'";
  const std::string nation = "'" + ssb::Nations()[3] + "'";
  const std::string mfgr = "'" + ssb::Mfgrs()[0] + "'";
  const std::string category = "'" + ssb::Categories()[2] + "'";
  const std::string years = "Date.year BETWEEN 1993 AND 1996";
  std::vector<std::string> shapes = {
      SsbSql(count, "", {"Date"}, {"Date.year = 1994"}),
      SsbSql(sum, "", {"Date", "Part", "Supplier"},
             {"Part.category = " + category, "Supplier.region = " + region}),
      SsbSql(sum, "Date.year, Part.brand", {"Date", "Part", "Supplier"},
             {"Part.category = " + category, "Supplier.region = " + region}),
      SsbSql(profit, "Date.year, Part.category",
             {"Date", "Customer", "Part", "Supplier"},
             {"Customer.region = " + region, "Supplier.nation = " + nation,
              years}),
      SsbSql(sum, "Date.year, Part.brand", {"Date", "Part"}, {years}),
      SsbSql(count, "Customer.nation", {"Date", "Customer"},
             {"Customer.region = " + region, "Date.year = 1995"}),
      SsbSql(sum, "Supplier.city", {"Date", "Supplier"},
             {"Supplier.nation = " + nation, years}),
      SsbSql(count, "Customer.region, Supplier.region",
             {"Date", "Customer", "Supplier"}, {years}),
  };
  const std::vector<std::pair<std::string, std::string>> preds = {
      {"Date", years},
      {"Date", "Date.month = 4"},
      {"Customer", "Customer.region = " + region},
      {"Customer", "Customer.nation = " + nation},
      {"Supplier", "Supplier.region = " + region},
      {"Supplier", "Supplier.nation = " + nation},
      {"Part", "Part.mfgr = " + mfgr},
      {"Part", "Part.category = " + category},
  };
  const std::vector<std::pair<std::string, std::string>> groups = {
      {"", ""}, {"Date", "Date.year"}, {"Customer", "Customer.region"},
      {"Part", "Part.mfgr"}};
  for (const auto& [pred_dim, pred] : preds) {
    for (const auto& [group_dim, group] : groups) {
      for (const std::string& agg : {count, sum, profit}) {
        std::vector<std::string> dims = {pred_dim, "Date"};
        if (!group_dim.empty()) dims.push_back(group_dim);
        shapes.push_back(SsbSql(agg, group, dims,
                                {pred, "Date.daynuminyear BETWEEN 30 AND 250"}));
      }
    }
  }
  return shapes;
}

TEST(PlanCacheTest, AssembledPlansAnswerLikeStandaloneCompilesOnSsbShapes) {
  ssb::SsbOptions ssb_opts;
  ssb_opts.scale_factor = 0.005;
  auto catalog = ssb::GenerateSsb(ssb_opts);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);
  // A quarter of the signatures fit: plans are evicted and reassembled from
  // components that other cached plans still hold.
  PlanCache cache(24);
  exec::ExecutorOptions one;
  one.exec_threads = 1;
  exec::ExecutorOptions many;
  many.exec_threads = 4;
  many.morsel_size = 1024;  // several morsels per worker at this scale
  const StarJoinExecutor executors[] = {StarJoinExecutor(one),
                                        StarJoinExecutor(many)};

  const std::vector<std::string> shapes = SsbShapes();
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : shapes) {
      SCOPED_TRACE(sql);
      auto bound = binder.BindSql(sql);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      auto assembled = cache.GetOrCompile(*bound);
      auto standalone = ScanPlan::Compile(*bound);
      ASSERT_TRUE(assembled.ok() && standalone.ok());
      const ScanPlan& a = **assembled;
      const ScanPlan& b = *standalone;
      ASSERT_FALSE(a.requires_scalar());
      EXPECT_EQ(DerivedCodes(a), DerivedCodes(b));
      EXPECT_EQ(a.has_sorted_runs, b.has_sorted_runs);
      EXPECT_EQ(a.weights(), b.weights());
      EXPECT_EQ(a.run_offsets(), b.run_offsets());
      EXPECT_EQ(a.sorted_weights(), b.sorted_weights());
      EXPECT_EQ(a.group_labels(), b.group_labels());
      EXPECT_EQ(a.label_of_code(), b.label_of_code());
      ASSERT_EQ(a.dims.size(), b.dims.size());
      for (size_t i = 0; i < a.dims.size(); ++i) {
        EXPECT_EQ(a.fact_dim_row(i), b.fact_dim_row(i));
        EXPECT_EQ(a.sorted_dim_row(i), b.sorted_dim_row(i));
      }
      for (const StarJoinExecutor& executor : executors) {
        const PredicateOverrides none(bound->dims.size());
        auto via_assembled = executor.Execute(*bound, none, a);
        auto via_standalone = executor.Execute(*bound, none, b);
        ASSERT_TRUE(via_assembled.ok() && via_standalone.ok());
        ExpectBitIdentical(*via_standalone, *via_assembled);
      }
    }
  }
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.components_reused, stats.components_built);
}

// True when `c` is one of the components a batch plan keeps: FK rows,
// weights, group ordinals or predicate ordinal tables.
bool IsBatchComponent(const exec::ScaffoldComponent* c) {
  return dynamic_cast<const exec::FkRowsComponent*>(c) != nullptr ||
         dynamic_cast<const exec::WeightsComponent*>(c) != nullptr ||
         dynamic_cast<const exec::GroupOrdinals*>(c) != nullptr ||
         dynamic_cast<const exec::OrdinalTable*>(c) != nullptr;
}

TEST(PlanCacheTest, BatchSignatureStaysRunLessUntilASingleQueryUpgradesIt) {
  ssb::SsbOptions ssb_opts;
  ssb_opts.scale_factor = 0.005;
  auto catalog = ssb::GenerateSsb(ssb_opts);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);
  exec::ExecutorOptions one;
  one.exec_threads = 1;
  exec::ExecutorOptions many;
  many.exec_threads = 4;
  many.morsel_size = 1024;
  const StarJoinExecutor executors[] = {StarJoinExecutor(one),
                                        StarJoinExecutor(many)};

  int grouped_shapes = 0;
  for (const std::string& sql : SsbShapes()) {
    SCOPED_TRACE(sql);
    auto bound = binder.BindSql(sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    if (bound->group_key_layout.empty()) continue;
    ++grouped_shapes;
    PlanCache cache(4);

    // A batch-only signature: no run components, and the cache's bytes are
    // exactly the plan's FK, weight and ordinal data.
    auto batch = cache.GetOrCompile(*bound, nullptr, exec::RunSort::kDefer);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const ScanPlan& run_less = **batch;
    ASSERT_TRUE(run_less.runs_deferred());
    EXPECT_FALSE(run_less.has_sorted_runs);
    EXPECT_TRUE(run_less.run_offsets().empty());
    EXPECT_TRUE(run_less.group_labels().empty());
    EXPECT_TRUE(run_less.sorted_weights().empty());
    size_t batch_bytes = run_less.OwnBytes();
    for (const exec::ScaffoldComponent* c : run_less.Components()) {
      EXPECT_TRUE(IsBatchComponent(c));
      batch_bytes += c->ApproxBytes();
    }
    EXPECT_EQ(cache.bytes(), batch_bytes);
    auto batch_again =
        cache.GetOrCompile(*bound, nullptr, exec::RunSort::kDefer);
    ASSERT_TRUE(batch_again.ok());
    EXPECT_EQ(batch_again->get(), batch->get());

    // The first single query upgrades it, once: the batch plan's FK, weight
    // and ordinal components are kept by pointer, and the entry's bytes are
    // re-accounted with the runs.
    auto single = cache.GetOrCompile(*bound);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const ScanPlan& upgraded = **single;
    EXPECT_NE(&upgraded, &run_less);
    EXPECT_TRUE(upgraded.has_sorted_runs);
    EXPECT_FALSE(upgraded.runs_deferred());
    EXPECT_EQ(upgraded.weights().data(), run_less.weights().data());
    ASSERT_EQ(upgraded.dims.size(), run_less.dims.size());
    for (size_t i = 0; i < upgraded.dims.size(); ++i) {
      EXPECT_EQ(upgraded.dims[i].fk.get(), run_less.dims[i].fk.get());
      EXPECT_EQ(upgraded.dims[i].group.get(), run_less.dims[i].group.get());
      EXPECT_EQ(upgraded.dims[i].ordinal_tables,
                run_less.dims[i].ordinal_tables);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.bytes(), UniqueBytes({&upgraded}));
    EXPECT_GT(cache.bytes(), batch_bytes);
    auto single_again = cache.GetOrCompile(*bound);
    auto batch_after = cache.GetOrCompile(*bound, nullptr, exec::RunSort::kDefer);
    ASSERT_TRUE(single_again.ok() && batch_after.ok());
    EXPECT_EQ(single_again->get(), &upgraded);
    EXPECT_EQ(batch_after->get(), &upgraded);  // any plan serves a batch
    const PlanCache::Stats stats = cache.GetStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.run_upgrades, 1u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.invalidations, 0u);

    // The upgraded plan is a standalone compile, array for array and answer
    // for answer.
    auto standalone = ScanPlan::Compile(*bound);
    ASSERT_TRUE(standalone.ok());
    EXPECT_EQ(DerivedCodes(upgraded), DerivedCodes(*standalone));
    EXPECT_EQ(DerivedCodes(run_less), DerivedCodes(*standalone));
    EXPECT_EQ(upgraded.run_offsets(), standalone->run_offsets());
    EXPECT_EQ(upgraded.sorted_weights(), standalone->sorted_weights());
    EXPECT_EQ(upgraded.group_labels(), standalone->group_labels());
    EXPECT_EQ(upgraded.label_of_code(), standalone->label_of_code());
    for (size_t i = 0; i < upgraded.dims.size(); ++i) {
      EXPECT_EQ(upgraded.sorted_dim_row(i), standalone->sorted_dim_row(i));
    }
    for (const StarJoinExecutor& executor : executors) {
      const PredicateOverrides none(bound->dims.size());
      auto via_upgraded = executor.Execute(*bound, none, upgraded);
      auto via_standalone = executor.Execute(*bound, none, *standalone);
      ASSERT_TRUE(via_upgraded.ok() && via_standalone.ok());
      ExpectBitIdentical(*via_standalone, *via_upgraded);
    }
  }
  EXPECT_GT(grouped_shapes, 0);
}

TEST(PlanCacheTest, MechanismBatchesCompileRunLessAndSingleAnswersUpgrade) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  auto bound = binder.Bind(ToyGroupedQuery());
  ASSERT_TRUE(bound.ok());
  auto cache = std::make_shared<PlanCache>();
  core::PredicateMechanism pm({}, {}, cache);
  Rng rng(5);
  auto batch = pm.AnswerBatch({{&*bound, 0.5}, {&*bound, 0.7}}, &rng);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok() && batch[1].ok());
  EXPECT_EQ(cache->GetStats().misses, 1u);
  EXPECT_EQ(cache->GetStats().run_upgrades, 0u);
  EXPECT_LT(cache->bytes(), [&] {
    auto with_runs = ScanPlan::Compile(*bound);
    return UniqueBytes({&*with_runs});
  }());

  auto single = pm.Answer(*bound, 0.5, &rng);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(cache->GetStats().run_upgrades, 1u);
  EXPECT_EQ(cache->GetStats().misses, 1u);
}

TEST(PlanCacheTest, PlanPathDoesNotChangePmNoiseSemantics) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);

  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery()}) {
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok());

    // The mechanism's (cached-plan) answer must be bit-identical to manually
    // drawing the same noise and executing fresh: plan reuse is pure
    // post-processing of an identical noisy query.
    core::PredicateMechanism pm;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng mech_rng(seed);
      auto via_pm = pm.Answer(*bound, 0.7, &mech_rng);
      ASSERT_TRUE(via_pm.ok()) << via_pm.status().ToString();

      Rng manual_rng(seed);
      auto overrides = pm.PerturbPredicates(*bound, 0.7, &manual_rng);
      ASSERT_TRUE(overrides.ok());
      StarJoinExecutor fresh_executor;
      auto via_fresh = fresh_executor.Execute(*bound, *overrides);
      ASSERT_TRUE(via_fresh.ok());
      ExpectBitIdentical(*via_fresh, *via_pm);
    }
  }
}

TEST(PlanCacheTest, DisabledCacheBypassesPlanCompilation) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());

  // Capacity 0 = "no plan reuse": Answer must take the fresh-build pipeline
  // instead of compiling throwaway scaffolds (the cache sees no traffic).
  auto disabled = std::make_shared<PlanCache>(0);
  core::PredicateMechanism pm({}, {}, disabled);
  Rng rng(3);
  auto r = pm.Answer(*bound, 0.5, &rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(disabled->GetStats().misses, 0u);
  EXPECT_EQ(disabled->GetStats().hits, 0u);
}

TEST(PlanCacheTest, ServiceSharesOnePlanCacheAcrossEngines) {
  storage::Catalog catalog = MakeToyCatalog();
  service::ServiceOptions opts;
  opts.num_engines = 4;
  service::QueryService svc(&catalog, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 100.0).ok());

  const char* sql =
      "SELECT count(*) FROM Orders, Cust, Prod "
      "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N' AND Prod.cat = 'a'";
  // Distinct ε per call defeats the noisy-answer replay cache, so every call
  // actually executes — and all engines reuse the single compiled plan.
  for (int i = 0; i < 12; ++i) {
    auto r = svc.Answer(sql, 0.1 + 0.01 * i, "t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 11u);
  EXPECT_GE(svc.plan_cache().size(), 1u);
}

}  // namespace
}  // namespace dpstarj
