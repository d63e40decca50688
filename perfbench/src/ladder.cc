// Copyright (c) dpstarj authors. Licensed under the MIT license.

#include "ladder.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "core/predicate_mechanism.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "exec/workload_plan.h"
#include "net/client.h"
#include "net/json.h"
#include "net/service_api.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace perfbench {

using dpstarj::Result;
using dpstarj::Rng;
using dpstarj::net::Json;
namespace core = dpstarj::core;
namespace exec = dpstarj::exec;
namespace net = dpstarj::net;
namespace query = dpstarj::query;
namespace service = dpstarj::service;
using dpstarj::obs::Stage;

namespace {

constexpr char kLadderTenant[] = "ladder";

/// Durations per rung, in microseconds.
class RungTimes {
 public:
  explicit RungTimes(SpanLog* spans) : spans_(spans) {}

  /// Times `fn` as one span of `rung` under `parent`; returns fn's value.
  /// The duration is also kept as last_us().
  template <typename Fn>
  auto Time(const std::string& rung, uint64_t parent, uint64_t request, Fn&& fn) {
    const int64_t t0 = NowNs();
    auto value = fn();
    const int64_t t1 = NowNs();
    spans_->Add(parent, request, rung, t0, t1);
    last_us_ = static_cast<double>(t1 - t0) / 1e3;
    us_[rung].push_back(last_us_);
    return value;
  }

  double last_us() const { return last_us_; }

  void Record(const std::string& rung, double us) { us_[rung].push_back(us); }

  double P50(const std::string& rung) const {
    auto it = us_.find(rung);
    return it == us_.end() ? 0.0 : Median(it->second);
  }

 private:
  SpanLog* spans_;
  std::map<std::string, std::vector<double>> us_;
  double last_us_ = 0.0;
};

/// One sampled request, bound and planned, kept for the later rungs.
struct Sampled {
  query::BoundQuery bound;
  std::shared_ptr<const exec::ScanPlan> plan;
  exec::PredicateOverrides overrides;
};

/// Draws fresh SQL from the ladder's own stream, skipping any text already
/// used, so every service rung is a fresh DP spend.
class FreshSql {
 public:
  FreshSql(const Env& env, uint64_t stream_id)
      : stream_(env.spec, env.seed, stream_id, kLadderTenant) {}

  std::vector<std::string> Next() {
    for (;;) {
      Request r = stream_.Next(/*fresh_only=*/true);
      bool dup = false;
      for (const std::string& sql : r.sqls) dup = dup || seen_.count(sql) > 0;
      if (dup) continue;
      seen_.insert(r.sqls.begin(), r.sqls.end());
      return r.sqls;
    }
  }

  /// `n` single queries (panels of dashboard refreshes count one each).
  std::vector<std::string> Singles(size_t n) {
    std::vector<std::string> out;
    while (out.size() < n) {
      for (std::string& sql : Next()) out.push_back(std::move(sql));
    }
    out.resize(n);
    return out;
  }

 private:
  RequestStream stream_;
  std::set<std::string> seen_;
};

}  // namespace

void RunLadder(Env& env, SpanLog* spans, MetricSet* m, CheckLog* checks) {
  const Kind kind = env.spec.kind;
  service::QueryService& svc = *env.service;
  (void)svc.RegisterTenant(kLadderTenant, 1e12);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  query::Binder binder(env.catalog.get());
  exec::ExecutorOptions exec_options;
  exec_options.exec_threads = env.exec_threads_per_engine;
  // The service's defaults: 32 plans / 256 MB, pool-engine scan threads.
  auto plans = std::make_shared<exec::PlanCache>();
  core::PredicateMechanism pm({}, exec_options, plans);
  exec::StarJoinExecutor executor(exec_options);
  Rng noise(MixSeed(env.seed, 5151));
  RungTimes t(spans);
  int64_t errors = 0;

  // Warm the ladder's plan cache the way warm-up and the end-to-end run
  // warmed the service's: every warm shape for analyst and dashboard, a
  // rolling window of signatures for explore.
  std::vector<query::BoundQuery> warm_bound;
  {
    FreshSql warm(env, 201);
    const size_t n = kind == Kind::kExplore ? 48 : kind == Kind::kAnalyst ? 64 : 32;
    for (const std::string& sql : warm.Singles(n)) {
      auto bound = binder.BindSql(sql);
      if (!bound.ok() || !plans->GetOrCompile(*bound).ok()) {
        ++errors;
        continue;
      }
      warm_bound.push_back(std::move(*bound));
    }
  }

  // service + exec: ingest a batch, then the first lookup of a cached plan
  // after it (an in-place extend). Also moves every answer-cache key to a new
  // epoch, so the service rungs below are fresh spends.
  {
    const std::vector<IngestBatch> batches = IngestBatches(env, 6161, 6);
    const int64_t rows0 = env.lineorder()->num_rows();
    int64_t appended = 0;
    for (size_t b = 0; b < batches.size() && !warm_bound.empty(); ++b) {
      const uint64_t request = spans->NewRequestId();
      auto outcome = t.Time("service.ingest", 0, request,
                            [&] { return svc.Ingest("Lineorder", batches[b].rows); });
      if (!outcome.ok()) {
        ++errors;
      } else {
        appended += outcome->appended;
      }
      const query::BoundQuery& q = warm_bound[warm_bound.size() - 1 - b % warm_bound.size()];
      const uint64_t extends0 = plans->GetStats().extends;
      const int64_t t0 = NowNs();
      auto plan = plans->GetOrCompile(q);
      const int64_t t1 = NowNs();
      if (!plan.ok()) ++errors;
      if (plans->GetStats().extends > extends0) {
        spans->Add(0, request, "exec.plan_extend", t0, t1);
        t.Record("exec.plan_extend", static_cast<double>(t1 - t0) / 1e3);
      }
    }
    checks->Expect(appended > 0 && env.lineorder()->num_rows() == rows0 + appended,
                   "ladder: Lineorder rows grew by exactly the rows ingested");
  }

  // Single-query rungs on each sampled request: the core answer first (see
  // below), then the rungs it calls, then the service or the wire rung.
  FreshSql fresh(env, 200);
  const size_t n_singles = kind == Kind::kAnalyst ? 96 : 32;
  std::vector<Sampled> sampled;
  net::Client client("127.0.0.1", env.server->port());
  std::vector<double> response_bytes;
  // Self times per request: the rung minus the rungs it calls, same request.
  std::vector<double> core_self_us;
  std::vector<double> service_self_us;
  std::vector<double> net_self_us;
  int64_t replay_mismatch = 0;
  for (const std::string& sql : fresh.Singles(n_singles)) {
    const uint64_t request = spans->NewRequestId();
    const uint64_t root = spans->Open(0, request, "ladder.request");
    const std::string body = QueryBody(sql, kLadderTenant);
    auto decoded = t.Time("net.decode", root, request, [&] { return Json::Parse(body); });
    auto bound = t.Time("query.bind", root, request, [&] { return binder.BindSql(sql); });
    const double bind_us = t.last_us();
    if (!decoded.ok() || !bound.ok()) {
      ++errors;
      spans->Close(root);
      continue;
    }
    // core first, while the ladder's plan cache is in the end-to-end state:
    // on explore its plan lookup usually misses, as the service's does.
    // Its self time is the call minus the exec stages the call itself
    // records in its public per-request trace (plan compile or extend,
    // bitmap rebuild, scan): what remains is the noise draw, the plan-cache
    // hit and core's glue. Core's own work is a few microseconds, below the
    // jitter of a separately timed scan.
    const uint64_t misses0 = plans->GetStats().misses;
    dpstarj::obs::Trace stages;
    auto answer = t.Time("core.answer", root, request,
                         [&] { return pm.Answer(*bound, kEpsilon, &noise, &stages); });
    double exec_ns = 0.0;
    for (auto stage : {Stage::kPlanCompile, Stage::kPlanExtend, Stage::kBitmapRebuild,
                       Stage::kScan}) {
      exec_ns += static_cast<double>(stages.stage_ns(stage));
    }
    core_self_us.push_back(t.last_us() - exec_ns / 1e3);
    const bool missed = plans->GetStats().misses > misses0;
    auto plan = t.Time("exec.plan_lookup", root, request,
                       [&] { return plans->GetOrCompile(*bound); });
    auto overrides = t.Time("core.noise", root, request, [&] {
      return pm.PerturbPredicates(*bound, kEpsilon, &noise);
    });
    if (!answer.ok() || !plan.ok() || !overrides.ok()) {
      ++errors;
      spans->Close(root);
      continue;
    }
    if (missed) {
      // What the answer's own lookup cost: a compile on an empty cache.
      exec::PlanCache scratch;
      if (!t.Time("exec.plan_compile", root, request,
                  [&] { return scratch.GetOrCompile(*bound); })
               .ok()) {
        ++errors;
      }
    }
    auto scan = t.Time("exec.scan", root, request,
                       [&] { return executor.Execute(*bound, *overrides, **plan); });
    // A second core answer, on the plan the first one left warm: the core
    // rung under the warm service submit below.
    auto warm_answer = t.Time("core.answer_warm", root, request,
                              [&] { return pm.Answer(*bound, kEpsilon, &noise); });
    const double warm_answer_us = t.last_us();
    if (!scan.ok() || !warm_answer.ok()) {
      ++errors;
      spans->Close(root);
      continue;
    }
    const std::string encoded = t.Time("net.encode", root, request, [&] {
      return net::QueryResultToJson(*answer).Dump();
    });
    response_bytes.push_back(static_cast<double>(encoded.size()));
    auto submitted = t.Time("service.submit", root, request, [&] {
      return svc.Submit(sql, kEpsilon, kLadderTenant).get();
    });
    auto replayed = t.Time("service.replay", root, request, [&] {
      return svc.Submit(sql, kEpsilon, kLadderTenant).get();
    });
    if (!submitted.ok() || !replayed.ok()) {
      ++errors;
    } else if (net::QueryResultToJson(*submitted).Dump() !=
               net::QueryResultToJson(*replayed).Dump()) {
      ++replay_mismatch;
    }
    // The wire rung and a service submit of the same query, both on the plan
    // the submit above left warm and both fresh spends: the answer cache's
    // key includes ε and the plan signature does not, so ε a millionth off
    // gives a new key at the same cost. Alternating the order cancels drift.
    // The warm submit is also the rung service.self is taken from.
    double wire_us = 0.0;
    double direct_us = 0.0;
    auto wire = [&] {
      auto posted = t.Time("net.request", root, request, [&] {
        return client.Post("/v1/query", QueryBody(sql, kLadderTenant, kEpsilon * (1 + 1e-6)));
      });
      if (!posted.ok() || posted->status != 200) ++errors;
      wire_us = t.last_us();
    };
    auto direct = [&] {
      auto answered = t.Time("service.submit_warm", root, request, [&] {
        return svc.Submit(sql, kEpsilon * (1 + 2e-6), kLadderTenant).get();
      });
      if (!answered.ok()) ++errors;
      direct_us = t.last_us();
    };
    if (sampled.size() % 2 == 0) {
      wire();
      direct();
    } else {
      direct();
      wire();
    }
    service_self_us.push_back(direct_us - bind_us - warm_answer_us);
    net_self_us.push_back(wire_us - direct_us);
    spans->Close(root);
    sampled.push_back({std::move(*bound), std::move(*plan), std::move(*overrides)});
  }
  checks->Expect(replay_mismatch == 0, "ladder: QueryService replays equal the fresh answer");

  // exec: cold compiles on an empty cache, so workloads whose plans all hit
  // still report the miss cost.
  {
    const size_t n = std::min<size_t>(sampled.size(), kind == Kind::kDashboard ? 4 : 12);
    for (size_t i = 0; i < n; ++i) {
      exec::PlanCache scratch;
      auto plan = t.Time("exec.plan_compile", 0, spans->NewRequestId(),
                         [&] { return scratch.GetOrCompile(sampled[i].bound); });
      if (!plan.ok()) ++errors;
    }
  }

  // exec: warm scan at one thread vs all hardware threads.
  {
    exec::ExecutorOptions one = exec_options;
    one.exec_threads = 1;
    exec::ExecutorOptions all = exec_options;
    all.exec_threads = hw;
    const exec::StarJoinExecutor ex1(one);
    const exec::StarJoinExecutor exn(all);
    double sum1 = 0.0;
    double sumn = 0.0;
    const size_t n = std::min<size_t>(sampled.size(), 16);
    for (size_t i = 0; i < n; ++i) {
      const Sampled& s = sampled[i];
      std::vector<double> d1;
      std::vector<double> dn;
      for (int rep = 0; rep < 3; ++rep) {
        int64_t t0 = NowNs();
        if (!ex1.Execute(s.bound, s.overrides, *s.plan).ok()) ++errors;
        int64_t t1 = NowNs();
        if (!exn.Execute(s.bound, s.overrides, *s.plan).ok()) ++errors;
        int64_t t2 = NowNs();
        d1.push_back(static_cast<double>(t1 - t0));
        dn.push_back(static_cast<double>(t2 - t1));
      }
      sum1 += Median(d1);
      sumn += Median(dn);
    }
    m->Set("exec.scan_speedup_tN", sumn > 0 ? sum1 / sumn : 0.0, "ratio");
  }

  // Batch rungs over 16-query groups (a dashboard refresh each).
  double bitmaps = 0.0;
  double sweeps = 0.0;
  int batches = 0;
  {
    const int n_batches = kind == Kind::kExplore ? 3 : 6;
    for (int b = 0; b < n_batches; ++b) {
      std::vector<std::string> sqls = fresh.Singles(kPanels);
      std::vector<query::BoundQuery> bound;
      bool ok = true;
      for (const std::string& sql : sqls) {
        auto q = binder.BindSql(sql);
        if (!q.ok()) {
          ok = false;
          break;
        }
        bound.push_back(std::move(*q));
      }
      if (!ok) {
        ++errors;
        continue;
      }
      const uint64_t request = spans->NewRequestId();
      std::vector<core::BatchQueryRef> refs;
      for (const auto& q : bound) refs.push_back({&q, kEpsilon});
      exec::WorkloadExecStats stats;
      auto answers = t.Time("core.batch", 0, request,
                            [&] { return pm.AnswerBatch(refs, &noise, nullptr, &stats); });
      for (const auto& a : answers) ok = ok && a.ok();

      std::vector<exec::PredicateOverrides> overrides(bound.size());
      std::vector<exec::WorkloadItem> items;
      for (size_t i = 0; ok && i < bound.size(); ++i) {
        auto o = pm.PerturbPredicates(bound[i], kEpsilon, &noise);
        auto plan = plans->GetOrCompile(bound[i]);
        if (!o.ok() || !plan.ok()) {
          ok = false;
          break;
        }
        overrides[i] = std::move(*o);
        items.push_back({&bound[i], &overrides[i], std::move(*plan)});
      }
      if (ok) {
        auto results = t.Time("exec.batch_scan", 0, request, [&] {
          auto plan = exec::WorkloadPlan::Compile(items);
          return plan.ok() ? plan->Execute(exec_options)
                           : Result<std::vector<exec::QueryResult>>(plan.status());
        });
        ok = results.ok();
      }
      std::vector<service::WorkloadQuerySpec> specs;
      for (const std::string& sql : sqls) specs.push_back({sql, kEpsilon});
      auto outcome = t.Time("service.workload", 0, request,
                            [&] { return svc.SubmitWorkload(specs, kLadderTenant).get(); });
      ok = ok && outcome.ok() && outcome->queries.size() == sqls.size();
      if (!ok) {
        ++errors;
        continue;
      }
      ++batches;
      bitmaps += stats.queries > 0 ? static_cast<double>(stats.predicate_nodes) /
                                         static_cast<double>(stats.queries)
                                   : 0.0;
      sweeps += static_cast<double>(stats.scans);
    }
  }
  checks->Expect(errors == 0,
                 "ladder: every rung call succeeded (" + std::to_string(errors) + " failed)");

  const double fact_rows = sampled.empty() ? 0.0
                                           : static_cast<double>(sampled[0].bound.fact->num_rows());
  m->Set("query.bind_p50_us", t.P50("query.bind"), "us");
  m->Set("core.noise_p50_us", t.P50("core.noise"), "us");
  m->Set("core.answer_p50_us", t.P50("core.answer"), "us");
  m->Set("core.self_p50_us", Median(core_self_us), "us");
  m->Set("core.batch_p50_ms", t.P50("core.batch") / 1e3, "ms");
  m->Set("exec.plan_lookup_p50_us", t.P50("exec.plan_lookup"), "us");
  m->Set("exec.plan_compile_p50_ms", t.P50("exec.plan_compile") / 1e3, "ms");
  m->Set("exec.plan_extend_p50_ms", t.P50("exec.plan_extend") / 1e3, "ms");
  m->Set("exec.scan_p50_us", t.P50("exec.scan"), "us");
  m->Set("exec.scan_rows_per_s",
         t.P50("exec.scan") > 0 ? fact_rows / (t.P50("exec.scan") / 1e6) : 0.0, "rows/s");
  m->Set("exec.batch_scan_p50_ms", t.P50("exec.batch_scan") / 1e3, "ms");
  m->Set("exec.bitmaps_per_query", batches > 0 ? bitmaps / batches : 0.0, "count");
  m->Set("exec.sweeps_per_batch", batches > 0 ? sweeps / batches : 0.0, "count");
  m->Set("service.submit_p50_us", t.P50("service.submit"), "us");
  m->Set("service.self_p50_us", Median(service_self_us), "us");
  m->Set("service.replay_p50_us", t.P50("service.replay"), "us");
  m->Set("service.workload_p50_ms", t.P50("service.workload") / 1e3, "ms");
  m->Set("service.ingest_p50_us", t.P50("service.ingest"), "us");
  m->Set("net.request_p50_us", t.P50("net.request"), "us");
  m->Set("net.self_p50_us", Median(net_self_us), "us");
  m->Set("net.encode_p50_us", t.P50("net.encode"), "us");
  m->Set("net.response_bytes", Median(response_bytes), "bytes");
  m->Set("net.decode_p50_us", t.P50("net.decode"), "us");
}

}  // namespace perfbench
