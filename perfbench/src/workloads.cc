// Copyright (c) dpstarj authors. Licensed under the MIT license.

#include "workloads.h"

#include "net/json.h"
#include "perf_util.h"
#include "ssb/ssb_schema.h"

namespace perfbench {

using dpstarj::Rng;
using dpstarj::Status;
using dpstarj::net::Json;

namespace {

const char* const kDimOrder[] = {"Date", "Customer", "Supplier", "Part"};

std::string JoinOf(const std::string& dim) {
  if (dim == "Date") return "Lineorder.orderdate = Date.datekey";
  if (dim == "Customer") return "Lineorder.custkey = Customer.custkey";
  if (dim == "Supplier") return "Lineorder.suppkey = Supplier.suppkey";
  return "Lineorder.partkey = Part.partkey";
}

/// SELECT <agg>[, <group>...] FROM <dims>, Lineorder WHERE <joins> AND
/// <preds> [GROUP BY ...]. Dimensions are listed in one fixed order, so a
/// shape's text depends only on which dimensions it touches.
std::string BuildSql(const std::string& agg, const std::vector<std::string>& group_by,
                     const std::vector<std::string>& dims,
                     const std::vector<std::string>& preds) {
  std::string select = "SELECT " + agg;
  for (const std::string& g : group_by) select += ", " + g;
  std::string from;
  std::string where;
  for (const char* dim : kDimOrder) {
    bool used = false;
    for (const std::string& d : dims) used = used || d == dim;
    if (!used) continue;
    from += std::string(dim) + ", ";
    where += (where.empty() ? "" : " AND ") + JoinOf(dim);
  }
  for (const std::string& p : preds) where += " AND " + p;
  std::string sql = select + " FROM " + from + "Lineorder WHERE " + where;
  if (!group_by.empty()) {
    std::string keys;
    for (const std::string& g : group_by) keys += (keys.empty() ? "" : ", ") + g;
    sql += " GROUP BY " + keys + " ORDER BY " + keys;
  }
  return sql + ";";
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& values) {
  return values[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
}

std::string Eq(const std::string& column, const std::string& value) {
  return column + " = '" + value + "'";
}

std::string YearEq(Rng& rng) {
  return "Date.year = " +
         std::to_string(rng.UniformInt(dpstarj::ssb::kYearLo, dpstarj::ssb::kYearHi));
}

std::string YearRange(Rng& rng) {
  const int64_t lo = rng.UniformInt(dpstarj::ssb::kYearLo, dpstarj::ssb::kYearHi);
  const int64_t hi = rng.UniformInt(lo, dpstarj::ssb::kYearHi);
  return "Date.year BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi);
}

/// A day-of-year range of 90 to 366 days: wide enough that answers stay far
/// from zero, with about 40,000 possible values.
std::string DayWindow(Rng& rng) {
  const int64_t lo = rng.UniformInt(1, 180);
  const int64_t hi = rng.UniformInt(lo + 89, 366);
  return "Date.daynuminyear BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi);
}

std::string Region(Rng& rng) { return Pick(rng, dpstarj::ssb::Regions()); }
std::string Nation(Rng& rng) { return Pick(rng, dpstarj::ssb::Nations()); }
std::string Category(Rng& rng) { return Pick(rng, dpstarj::ssb::Categories()); }
std::string Mfgr(Rng& rng) { return Pick(rng, dpstarj::ssb::Mfgrs()); }

/// The paper's Q4 OR-pair: two manufacturers adjacent in the domain (the
/// parser normalizes only adjacent disjunctions to a range).
std::string MfgrPair(Rng& rng) {
  const auto& mfgrs = dpstarj::ssb::Mfgrs();
  const size_t a = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(mfgrs.size()) - 2));
  return Eq("Part.mfgr", mfgrs[a]) + " OR " + Eq("Part.mfgr", mfgrs[a + 1]);
}

const std::string kCount = "count(*)";
const std::string kSum = "sum(Lineorder.revenue)";

/// The 16 panels of one refresh:
///   * orders and revenue per customer region (two rows of five);
///   * orders by year × customer nation for three regions;
///   * orders by customer city for three regions.
/// They span four plan signatures whose plans take 216 MB at SF 0.5, inside
/// the default plan cache's 256 MB, so every refresh runs on warm plans (a
/// year × brand panel alone would need 146 MB). Every panel filters on the
/// refresh's time window (year range and day-of-year range), so the workload
/// compiler builds that bitmap once, and the window makes each refresh's
/// panels fresh DP spends.
std::vector<std::string> DashboardPanels(const std::string& window, size_t nation_region,
                                         size_t city_region) {
  const auto& regions = dpstarj::ssb::Regions();
  const std::vector<std::string> dims = {"Date", "Customer"};
  auto in_region = [&regions](size_t r) {
    return Eq("Customer.region", regions[r % regions.size()]);
  };
  std::vector<std::string> panels;
  for (const std::string& agg : {kCount, kSum}) {
    for (size_t r = 0; r < regions.size(); ++r) {
      panels.push_back(BuildSql(agg, {}, dims, {in_region(r), window}));
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    panels.push_back(BuildSql(kCount, {"Date.year", "Customer.nation"}, dims,
                              {in_region(nation_region + i), window}));
  }
  for (size_t i = 0; i < 3; ++i) {
    panels.push_back(
        BuildSql(kCount, {"Customer.city"}, dims, {in_region(city_region + i), window}));
  }
  return panels;
}

}  // namespace

dpstarj::Result<WorkloadSpec> ParseWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "analyst") {
    spec.kind = Kind::kAnalyst;
    spec.scale_factor = 0.05;
    spec.has_writer = true;
  } else if (name == "dashboard") {
    spec.kind = Kind::kDashboard;
    spec.scale_factor = 0.5;
  } else if (name == "explore") {
    spec.kind = Kind::kExplore;
    spec.scale_factor = 0.05;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (analyst, dashboard, explore)");
  }
  return spec;
}

std::vector<Shape> AnalystShapes() {
  const std::vector<std::string> q2_dims = {"Date", "Part", "Supplier"};
  const std::vector<std::string> q3_dims = {"Date", "Customer", "Supplier"};
  const std::vector<std::string> q4_dims = {"Date", "Customer", "Part", "Supplier"};
  auto q2_preds = [](Rng& r) {
    return std::vector<std::string>{Eq("Part.category", Category(r)),
                                    Eq("Supplier.region", Region(r))};
  };
  auto q3_preds = [](Rng& r) {
    return std::vector<std::string>{Eq("Customer.region", Region(r)),
                                    Eq("Supplier.region", Region(r)), YearRange(r)};
  };
  auto q4_preds = [](Rng& r) {
    return std::vector<std::string>{Eq("Customer.region", Region(r)),
                                    Eq("Supplier.nation", Nation(r)), YearRange(r),
                                    MfgrPair(r)};
  };
  std::vector<Shape> shapes;
  // The paper's nine SSB queries (§6.1), constants redrawn per request.
  shapes.push_back({"Qc1", [](Rng& r) {
                      return BuildSql(kCount, {}, {"Date"}, {YearEq(r)});
                    }});
  shapes.push_back({"Qc2", [=](Rng& r) { return BuildSql(kCount, {}, q2_dims, q2_preds(r)); }});
  shapes.push_back({"Qs2", [=](Rng& r) { return BuildSql(kSum, {}, q2_dims, q2_preds(r)); }});
  shapes.push_back({"Qc3", [=](Rng& r) { return BuildSql(kCount, {}, q3_dims, q3_preds(r)); }});
  shapes.push_back({"Qs3", [=](Rng& r) { return BuildSql(kSum, {}, q3_dims, q3_preds(r)); }});
  shapes.push_back({"Qc4", [=](Rng& r) { return BuildSql(kCount, {}, q4_dims, q4_preds(r)); }});
  shapes.push_back({"Qs4", [=](Rng& r) { return BuildSql(kSum, {}, q4_dims, q4_preds(r)); }});
  shapes.push_back({"Qg2", [=](Rng& r) {
                      return BuildSql(kSum, {"Date.year", "Part.brand"}, q2_dims,
                                      q2_preds(r));
                    }});
  shapes.push_back({"Qg4", [=](Rng& r) {
                      return BuildSql("sum(Lineorder.revenue - Lineorder.supplycost)",
                                      {"Date.year", "Part.category"}, q4_dims,
                                      q4_preds(r));
                    }});
  // Grouped drill-downs an analyst issues after the headline numbers.
  shapes.push_back({"QgScanP", [](Rng& r) {
                      return BuildSql(kSum, {"Date.year", "Part.brand"}, {"Date", "Part"},
                                      {YearRange(r)});
                    }});
  shapes.push_back({"QdCustNation", [](Rng& r) {
                      return BuildSql(kCount, {"Customer.nation"}, {"Date", "Customer"},
                                      {Eq("Customer.region", Region(r)), YearEq(r)});
                    }});
  shapes.push_back({"QdSuppCity", [](Rng& r) {
                      return BuildSql(kSum, {"Supplier.city"}, {"Date", "Supplier"},
                                      {Eq("Supplier.nation", Nation(r)), YearRange(r)});
                    }});
  shapes.push_back({"QdMonth", [](Rng& r) {
                      return BuildSql(kCount, {"Date.month"}, {"Date", "Part"},
                                      {YearEq(r), Eq("Part.mfgr", Mfgr(r))});
                    }});
  shapes.push_back({"QdCategory", [](Rng& r) {
                      return BuildSql(kSum, {"Part.category"}, {"Customer", "Part"},
                                      {Eq("Part.mfgr", Mfgr(r)),
                                       Eq("Customer.region", Region(r))});
                    }});
  shapes.push_back({"QdRegions", [](Rng& r) {
                      return BuildSql(kCount, {"Customer.region", "Supplier.region"},
                                      {"Date", "Customer", "Supplier"}, {YearRange(r)});
                    }});
  shapes.push_back({"QdYear", [](Rng& r) {
                      return BuildSql(kSum, {"Date.year"}, {"Date", "Customer", "Supplier"},
                                      {Eq("Customer.nation", Nation(r)),
                                       Eq("Supplier.region", Region(r))});
                    }});
  return shapes;
}

std::vector<Shape> ExploreShapes() {
  // 8 predicate columns × 4 GROUP BYs × 3 aggregates = 96 plan signatures:
  // each varies the predicate (column, domain) set, the group layout or the
  // measure, which are exactly what the plan cache keys on. Every shape also
  // filters on a day-of-year window drawn per request, so requests almost
  // never repeat and the answer cache does not absorb the working set.
  struct PredColumn {
    std::string dim;
    std::function<std::string(Rng&)> draw;
  };
  const std::vector<PredColumn> preds = {
      {"Date", YearRange},
      {"Date",
       [](Rng& r) { return "Date.month = " + std::to_string(r.UniformInt(1, 12)); }},
      {"Customer", [](Rng& r) { return Eq("Customer.region", Region(r)); }},
      {"Customer", [](Rng& r) { return Eq("Customer.nation", Nation(r)); }},
      {"Supplier", [](Rng& r) { return Eq("Supplier.region", Region(r)); }},
      {"Supplier", [](Rng& r) { return Eq("Supplier.nation", Nation(r)); }},
      {"Part", [](Rng& r) { return Eq("Part.mfgr", Mfgr(r)); }},
      {"Part", [](Rng& r) { return Eq("Part.category", Category(r)); }},
  };
  const std::vector<std::pair<std::string, std::string>> groups = {
      {"", ""}, {"Date", "Date.year"}, {"Customer", "Customer.region"},
      {"Part", "Part.mfgr"}};
  const std::vector<std::string> aggs = {kCount, kSum,
                                         "sum(Lineorder.revenue - Lineorder.supplycost)"};
  std::vector<Shape> shapes;
  for (size_t p = 0; p < preds.size(); ++p) {
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t a = 0; a < aggs.size(); ++a) {
        const PredColumn pred = preds[p];
        const auto group = groups[g];
        const std::string agg = aggs[a];
        shapes.push_back(
            {"X" + std::to_string(p) + std::to_string(g) + std::to_string(a),
             [pred, group, agg](Rng& r) {
               std::vector<std::string> dims = {pred.dim, "Date"};
               std::vector<std::string> where = {pred.draw(r), DayWindow(r)};
               std::vector<std::string> group_by;
               if (!group.first.empty()) {
                 dims.push_back(group.first);
                 group_by.push_back(group.second);
               }
               return BuildSql(agg, group_by, dims, where);
             }});
      }
    }
  }
  return shapes;
}

std::string QueryBody(const std::string& sql, const std::string& tenant, double epsilon) {
  Json body = Json::Object();
  body.Set("sql", Json::Str(sql));
  body.Set("epsilon", Json::Number(epsilon));
  body.Set("tenant", Json::Str(tenant));
  return body.Dump();
}

std::string WorkloadBody(const std::vector<std::string>& sqls,
                         const std::string& tenant) {
  Json queries = Json::Array();
  for (const std::string& sql : sqls) {
    Json q = Json::Object();
    q.Set("sql", Json::Str(sql));
    q.Set("epsilon", Json::Number(kEpsilon));
    queries.Append(std::move(q));
  }
  Json body = Json::Object();
  body.Set("tenant", Json::Str(tenant));
  body.Set("queries", std::move(queries));
  return body.Dump();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream_id) {
  // splitmix64 finalizer over the pair, so nearby seeds and ids diverge.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream_id + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RequestStream::RequestStream(const WorkloadSpec& spec, uint64_t seed,
                             uint64_t stream_id, std::string tenant)
    : kind_(spec.kind), tenant_(std::move(tenant)), rng_(MixSeed(seed, stream_id)) {
  if (kind_ == Kind::kAnalyst) shapes_ = AnalystShapes();
  if (kind_ == Kind::kExplore) shapes_ = ExploreShapes();
  if (kind_ == Kind::kDashboard) {
    // A run sees only a few dozen refreshes, so their constants are
    // stratified: each domain is visited in a seed-shuffled order, and every
    // run covers year-range widths and drill-down regions evenly.
    auto shuffled = [this](size_t n) {
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      for (size_t i = n; i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
      return order;
    };
    strata_ = {shuffled(dpstarj::ssb::kYearHi - dpstarj::ssb::kYearLo + 1),
               shuffled(dpstarj::ssb::Regions().size()),
               shuffled(dpstarj::ssb::Regions().size())};
  }
}

Request RequestStream::Next(bool fresh_only) {
  constexpr size_t kRecent = 64;
  constexpr double kReplayShare = 0.30;
  Request r;
  r.seq = next_seq_++;
  if (kind_ == Kind::kDashboard) {
    r.target = "/v1/workload";
    // Refresh k takes the (k mod n)-th entry of each domain's order.
    const size_t k = static_cast<size_t>(r.seq);
    const int64_t width = static_cast<int64_t>(strata_[0][k % strata_[0].size()]);
    const int64_t year = rng_.UniformInt(dpstarj::ssb::kYearLo, dpstarj::ssb::kYearHi - width);
    const std::string window = "Date.year BETWEEN " + std::to_string(year) + " AND " +
                               std::to_string(year + width) + " AND " + DayWindow(rng_);
    r.sqls = DashboardPanels(window, strata_[1][k % strata_[1].size()],
                             strata_[2][k % strata_[2].size()]);
    r.body = WorkloadBody(r.sqls, tenant_);
    return r;
  }
  r.target = "/v1/query";
  if (kind_ == Kind::kAnalyst && !fresh_only && !recent_.empty() &&
      rng_.Uniform01() < kReplayShare) {
    const Request& orig = recent_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(recent_.size()) - 1))];
    r.sqls = orig.sqls;
    r.body = orig.body;
    r.replay_of = orig.seq;
  } else {
    r.sqls = {Pick(rng_, shapes_).render(rng_)};
    r.body = QueryBody(r.sqls[0], tenant_);
  }
  if (kind_ == Kind::kAnalyst) {
    recent_.push_back(r);
    if (recent_.size() > kRecent) recent_.pop_front();
  }
  return r;
}

uint64_t StreamDigest(const WorkloadSpec& spec, uint64_t seed, int count) {
  uint64_t h = Fnv1a("");
  for (uint64_t stream = 0; stream < 2; ++stream) {
    RequestStream rs(spec, seed, stream, "bench");
    for (int i = 0; i < count; ++i) {
      Request r = rs.Next();
      h = Fnv1a(r.body, Fnv1a(r.target, h));
    }
  }
  return h;
}

}  // namespace perfbench
