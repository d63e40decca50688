// Copyright (c) dpstarj authors. Licensed under the MIT license.

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "exec/naive_executor.h"
#include "exec/parallel.h"
#include "exec/star_join_executor.h"
#include "net/client.h"
#include "net/json.h"
#include "net/service_api.h"
#include "query/binder.h"
#include "ssb/ssb_generator.h"

namespace perfbench {

using dpstarj::Result;
using dpstarj::Rng;
using dpstarj::Status;
using dpstarj::net::Json;
namespace exec = dpstarj::exec;
namespace net = dpstarj::net;
namespace query = dpstarj::query;
namespace service = dpstarj::service;
namespace storage = dpstarj::storage;

namespace {

constexpr double kTenantBudget = 1e12;
/// Length of one window slice: short enough that the selection of quiet
/// slices can leave out a burst of steal, long against the 10 ms units in
/// which /proc/stat counts it.
constexpr int64_t kSliceNs = 100'000'000;
/// Latency samples the quiet slices must hold at least, so that p99 has ten
/// samples beyond it.
constexpr int64_t kMinQuietSamples = 1000;
/// Scale factor of the set-up oracle check's catalog (12,000 fact rows).
constexpr double kOracleScaleFactor = 0.002;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// VmRSS: the process's resident set right now.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t BusyNs(const std::vector<service::EnginePool::WorkerStats>& workers) {
  uint64_t sum = 0;
  for (const auto& w : workers) sum += w.busy_ns;
  return sum;
}

uint64_t MorselBusyNs() {
  uint64_t sum = 0;
  for (const auto& w : exec::MorselPool::Shared().worker_stats()) sum += w.busy_ns;
  return sum;
}

struct QueueSample {
  uint64_t count = 0;
  double sum = 0.0;
};

QueueSample QueueDepth(const dpstarj::obs::MetricsRegistry& registry) {
  const auto* h = registry.FindHistogram("dpstarj_queue_depth_sampled");
  if (h == nullptr) return {};
  auto snap = h->Snapshot();
  return {snap.count, snap.sum};
}

int64_t LedgerOps(const service::QueryService& svc) {
  auto account = svc.ledger().Account(kBenchTenant);
  if (!account.ok()) return 0;
  return static_cast<int64_t>(account->spends + account->refunds);
}

/// Total of a /v1/query result body (scalar, or the grouped total).
bool ResultTotal(const Json& body, double* total, uint64_t* epoch) {
  const Json* grouped = body.Find("grouped");
  const Json* ep = body.Find("epoch");
  if (grouped == nullptr || !grouped->is_bool() || ep == nullptr || !ep->is_number()) {
    return false;
  }
  const Json* value = body.Find(grouped->AsBool() ? "total" : "scalar");
  if (value == nullptr || !value->is_number()) return false;
  *total = value->AsNumber();
  *epoch = static_cast<uint64_t>(ep->AsNumber());
  return true;
}

/// Records a non-200 or transport failure by cause.
void CountFailure(const Result<net::HttpResponse>& resp, Failures* f) {
  if (!resp.ok()) {
    ++f->transport;
  } else if (resp->status == 429) {
    ++f->http_429;
  } else {
    ++f->http_other;
  }
}

/// One analyst answer, for the replay check run after the window. Only
/// hashes are kept, so the client's memory does not grow with the replies.
struct Observation {
  uint64_t key = 0;   ///< hash of request body + answer epoch
  uint64_t body = 0;  ///< hash of the response body
  bool replay = false;  ///< repeats an earlier request answered at this epoch
};

/// Per-client tallies, merged into the WindowResult at the end.
struct ClientTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t answered = 0;
  Failures failures;
  std::vector<Completion> completions;
  std::vector<FreshAnswer> fresh;
  std::vector<Observation> observations;
  int64_t workload_replies = 0;
  int64_t workload_bad_size = 0;
};

/// What a client remembers of one of its recent requests: the epoch its
/// answer came from (0 when it failed).
struct Remembered {
  bool ok = false;
  uint64_t epoch = 0;
};

void RunClient(Env& env, RequestStream stream, int64_t deadline_ns, SpanLog* spans,
               ClientTally* t) {
  net::Client client("127.0.0.1", env.server->port());
  std::unordered_map<int64_t, Remembered> recent;
  std::deque<int64_t> order;
  while (NowNs() < deadline_ns) {
    Request req = stream.Next();
    const int64_t answered0 = t->answered;
    const bool traced = spans->enabled() && req.seq % 2 == 1;
    const int64_t t0 = NowNs();
    auto resp = client.Post(req.target, req.body);
    const int64_t t1 = NowNs();
    if (traced) spans->Add(0, spans->NewRequestId(), "client" + req.target, t0, t1);
    ++t->attempted;
    Remembered memo;
    if (!resp.ok() || resp->status != 200) {
      CountFailure(resp, &t->failures);
      ++t->failed;
    } else {
      auto body = Json::Parse(resp->body);
      bool good = body.ok() && body->is_object();
      if (good && env.spec.kind == Kind::kDashboard) {
        ++t->workload_replies;
        const Json* queries = body->Find("queries");
        good = queries != nullptr && queries->is_array();
        if (good && queries->items().size() != req.sqls.size()) ++t->workload_bad_size;
        int64_t panel_failures = 0;
        for (size_t i = 0; good && i < queries->items().size(); ++i) {
          const Json& entry = queries->items()[i];
          const Json* ok = entry.Find("ok");
          if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
            ++panel_failures;
            continue;
          }
          FreshAnswer a;
          if (!ResultTotal(entry, &a.total, &a.epoch)) {
            good = false;
            break;
          }
          ++t->answered;
          const Json* cached = entry.Find("cached");
          if (cached == nullptr || !cached->is_bool() || !cached->AsBool()) {
            a.sql = req.sqls[std::min(i, req.sqls.size() - 1)];
            t->fresh.push_back(std::move(a));
          }
        }
        t->failures.panel += panel_failures;
        if (good && panel_failures > 0) ++t->failed;
      } else if (good) {
        FreshAnswer a;
        good = ResultTotal(*body, &a.total, &a.epoch);
        if (good) {
          ++t->answered;
          memo = {true, a.epoch};
          bool replay = false;
          if (req.replay_of >= 0) {
            auto it = recent.find(req.replay_of);
            replay = it != recent.end() && it->second.ok && it->second.epoch == a.epoch;
          }
          if (env.spec.kind == Kind::kAnalyst) {
            t->observations.push_back(
                {Fnv1a("@" + std::to_string(a.epoch), Fnv1a(req.body)), Fnv1a(resp->body),
                 replay});
          }
          if (req.replay_of < 0) {
            a.sql = req.sqls[0];
            t->fresh.push_back(std::move(a));
          }
        }
      }
      if (!good) {
        ++t->failures.bad_reply;
        ++t->failed;
      } else {
        t->completions.push_back(
            {t1, static_cast<double>(t1 - t0) / 1e6, t->answered - answered0, traced});
      }
    }
    if (env.spec.kind == Kind::kAnalyst) {
      recent[req.seq] = std::move(memo);
      order.push_back(req.seq);
      if (order.size() > 80) {
        recent.erase(order.front());
        order.pop_front();
      }
    }
  }
}

/// \brief The replay check. A replay within one epoch is answered from the
/// answer cache, which keeps the first insert when two clients' identical
/// requests miss concurrently, so each client may have received a different
/// fresh answer. Hence, per (request, epoch): every replay returns the same
/// body, and that body is one of the answers the service gave to that
/// request at that epoch as a fresh (non-replay) request. Bodies are
/// compared by their 64-bit hashes.
void CheckReplays(const std::vector<ClientTally>& tallies, WindowResult* out) {
  struct Key {
    std::set<uint64_t> originals;
    std::set<uint64_t> replays;
    int64_t replay_count = 0;
  };
  std::unordered_map<uint64_t, Key> keys;
  for (const ClientTally& t : tallies) {
    for (const Observation& o : t.observations) {
      Key& k = keys[o.key];
      if (o.replay) {
        k.replays.insert(o.body);
        ++k.replay_count;
      } else {
        k.originals.insert(o.body);
      }
    }
  }
  for (const auto& [key, k] : keys) {
    if (k.replay_count == 0) continue;
    out->replays_checked += k.replay_count;
    const bool ok = k.replays.size() == 1 && k.originals.count(*k.replays.begin()) == 1;
    if (!ok) out->replay_mismatches += k.replay_count;
    if (k.originals.size() > 1) ++out->racing_fresh_answers;
  }
}

/// Open-loop writer: batch k is due at start + (k + 1) s and is timed from
/// its due time, so a stalled ingest also delays (and charges) later ones.
void RunWriter(Env& env, int64_t start_ns, int64_t deadline_ns, SpanLog* spans,
               WindowResult* out) {
  net::Client client("127.0.0.1", env.server->port());
  out->writer_epochs.assign(out->writer_batches.size(), 0);
  for (size_t k = 0; k < out->writer_batches.size(); ++k) {
    const int64_t due = start_ns + static_cast<int64_t>(k + 1) * 1'000'000'000;
    if (due >= deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<int64_t>(0, due - NowNs())));
    const int64_t sent = NowNs();
    auto resp = client.Post("/v1/ingest", out->writer_batches[k].body);
    const int64_t done = NowNs();
    spans->Add(0, spans->enabled() ? spans->NewRequestId() : 0, "client/v1/ingest", sent,
               done);
    ++out->attempted;
    out->writer_lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    if (!resp.ok() || resp->status != 200) {
      CountFailure(resp, &out->failures);
      ++out->failed;
      continue;
    }
    auto body = Json::Parse(resp->body);
    const Json* appended = body.ok() ? body->Find("appended") : nullptr;
    const Json* version = body.ok() ? body->Find("version") : nullptr;
    if (appended == nullptr || !appended->is_number() || version == nullptr ||
        !version->is_number()) {
      ++out->failures.bad_reply;
      ++out->failed;
      continue;
    }
    out->rows_appended += static_cast<int64_t>(appended->AsNumber());
    out->writer_epochs[k] = static_cast<uint64_t>(version->AsNumber());
    out->ingest_ms.push_back(static_cast<double>(done - due) / 1e6);
  }
}

/// Warm-up traffic: every shape's plan compiled, every code path touched.
Status WarmUp(Env& env) {
  const int per_client = env.spec.kind == Kind::kAnalyst   ? 64
                         : env.spec.kind == Kind::kExplore ? 24
                                                           : 3;
  std::mutex mu;
  int failures = 0;
  std::string first_failure;
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      RequestStream stream(env.spec, env.seed, 100 + static_cast<uint64_t>(c), "warmup");
      net::Client client("127.0.0.1", env.server->port());
      for (int i = 0; i < per_client; ++i) {
        Request req = stream.Next(/*fresh_only=*/true);
        auto resp = client.Post(req.target, req.body);
        if (resp.ok() && resp->status == 200) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (failures++ == 0) {
          first_failure = req.body + " -> " +
                          (resp.ok() ? resp->body : resp.status().ToString());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failures != 0) {
    return Status::Internal("warm-up: " + std::to_string(failures) +
                            " requests failed; first: " + first_failure);
  }
  return Status::OK();
}

bool SameAnswer(const exec::QueryResult& a, const exec::QueryResult& b) {
  auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y));
  };
  if (a.grouped != b.grouped || !close(a.scalar, b.scalar)) return false;
  if (a.groups.size() != b.groups.size()) return false;
  for (const auto& [key, value] : a.groups) {
    auto it = b.groups.find(key);
    if (it == b.groups.end() || !close(value, it->second)) return false;
  }
  return true;
}

}  // namespace

std::shared_ptr<storage::Table> Env::lineorder() const {
  auto t = catalog->GetTable("Lineorder");
  return t.ok() ? *t : nullptr;
}

Result<std::unique_ptr<storage::Catalog>> GenerateCatalog(const WorkloadSpec& spec) {
  // The generator's own default seed: every run serves the same instance.
  // The Predicate Mechanism's error depends on the instance, so a per-seed
  // instance would make rel_error_p50_pct vary with the seed far more than
  // with the code under test.
  dpstarj::ssb::SsbOptions options;
  options.scale_factor = spec.scale_factor;
  DPSTARJ_ASSIGN_OR_RETURN(storage::Catalog catalog, dpstarj::ssb::GenerateSsb(options));
  return std::make_unique<storage::Catalog>(std::move(catalog));
}

Result<std::unique_ptr<Env>> Setup(const WorkloadSpec& spec, uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->spec = spec;
  env->seed = seed;
  DPSTARJ_ASSIGN_OR_RETURN(env->catalog, GenerateCatalog(spec));
  auto lineorder = env->lineorder();
  if (lineorder == nullptr) return Status::Internal("no Lineorder table");
  env->initial_rows = lineorder->num_rows();
  env->initial_epoch = lineorder->version();

  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  env->num_engines = std::max(1, hw / 2);
  env->exec_threads_per_engine = std::max(1, hw / env->num_engines);
  env->registry = std::make_shared<dpstarj::obs::MetricsRegistry>();
  service::ServiceOptions options;
  options.num_engines = env->num_engines;
  options.metrics = env->registry;
  env->service = std::make_unique<service::QueryService>(env->catalog.get(), options);
  DPSTARJ_RETURN_NOT_OK(env->service->RegisterTenant("warmup", kTenantBudget));

  net::ServerOptions server_options;
  server_options.metrics = env->registry.get();
  env->server = std::make_unique<net::HttpServer>(
      net::MakeServiceRouter(env->service.get()), server_options);
  DPSTARJ_RETURN_NOT_OK(env->server->Start());
  DPSTARJ_RETURN_NOT_OK(WarmUp(*env));
  return env;
}

std::vector<IngestBatch> IngestBatches(const Env& env, uint64_t stream_id, int count) {
  auto lineorder = env.lineorder();
  Rng rng(MixSeed(env.seed, stream_id));
  std::vector<IngestBatch> batches(static_cast<size_t>(count));
  for (IngestBatch& batch : batches) {
    Json rows = Json::Array();
    for (int i = 0; i < kIngestBatchRows; ++i) {
      batch.rows.push_back(lineorder->GetRow(rng.UniformInt(0, env.initial_rows - 1)));
      Json row = Json::Array();
      for (const storage::Value& v : batch.rows.back()) {
        row.Append(v.is_string() ? Json::Str(v.AsString()) : Json::Number(v.ToNumeric()));
      }
      rows.Append(std::move(row));
    }
    Json body = Json::Object();
    body.Set("table", Json::Str("Lineorder"));
    body.Set("rows", std::move(rows));
    batch.body = body.Dump();
  }
  return batches;
}

WindowResult RunWindow(Env& env, double seconds, uint64_t stream_base, SpanLog* spans) {
  service::QueryService& svc = *env.service;
  if (!svc.RemainingBudget(kBenchTenant).ok()) {
    (void)svc.RegisterTenant(kBenchTenant, kTenantBudget);
  }
  WindowResult out;
  if (env.spec.has_writer) {
    out.writer_batches = IngestBatches(env, 1000 + stream_base, static_cast<int>(seconds) + 1);
  }
  const auto cache0 = svc.cache().GetStats();
  const auto plan0 = svc.plan_cache().GetStats();
  const uint64_t engine0 = BusyNs(svc.worker_stats());
  const uint64_t morsel0 = MorselBusyNs();
  const QueueSample queue0 = QueueDepth(*env.registry);
  const int64_t ledger0 = LedgerOps(svc);
  const double cpu0 = CpuSeconds();
  const HostCpu host0 = ReadHostCpu();

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<ClientTally> tallies(kQueryClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryClients; ++c) {
    RequestStream stream(env.spec, env.seed, stream_base + static_cast<uint64_t>(c),
                         kBenchTenant);
    threads.emplace_back(RunClient, std::ref(env), std::move(stream), deadline, spans,
                         &tallies[static_cast<size_t>(c)]);
  }
  if (env.spec.has_writer) {
    threads.emplace_back(RunWriter, std::ref(env), start, deadline, spans, &out);
  }
  // At every slice boundary the run reads the host's CPU state, the
  // process's CPU time and its RSS. The RSS peak is the window's own (VmHWM
  // would also carry the set-ups' allocator history).
  out.peak_rss_mb = RssMb();
  int64_t slice_start = start;
  double slice_cpu = cpu0;
  HostCpu slice_host = host0;
  auto close_slice = [&](int64_t now) {
    const HostCpu host = ReadHostCpu();
    const double cpu = CpuSeconds();
    out.slices.push_back({slice_start, now, StolenShare(slice_host, host), cpu - slice_cpu});
    slice_start = now;
    slice_cpu = cpu;
    slice_host = host;
    out.peak_rss_mb = std::max(out.peak_rss_mb, RssMb());
  };
  for (int64_t boundary = start + kSliceNs; boundary < deadline; boundary += kSliceNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - NowNs()));
    close_slice(NowNs());
  }
  for (auto& t : threads) t.join();
  const int64_t end = NowNs();
  close_slice(end);
  out.cpu_seconds = CpuSeconds() - cpu0;
  const HostCpu host1 = ReadHostCpu();
  out.host_steal_pct =
      host1.total > host0.total ? 100.0 * (host1.steal - host0.steal) / (host1.total - host0.total)
                                : 0.0;

  out.seconds = static_cast<double>(end - start) / 1e9;
  for (ClientTally& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.answered += t.answered;
    out.failures.http_429 += t.failures.http_429;
    out.failures.http_other += t.failures.http_other;
    out.failures.transport += t.failures.transport;
    out.failures.bad_reply += t.failures.bad_reply;
    out.failures.panel += t.failures.panel;
    std::move(t.fresh.begin(), t.fresh.end(), std::back_inserter(out.fresh));
    out.workload_replies += t.workload_replies;
    out.workload_bad_size += t.workload_bad_size;
  }

  CheckReplays(tallies, &out);
  for (ClientTally& t : tallies) {
    std::move(t.completions.begin(), t.completions.end(), std::back_inserter(out.completions));
  }

  const auto cache1 = svc.cache().GetStats();
  out.cache.hits = cache1.hits - cache0.hits;
  out.cache.misses = cache1.misses - cache0.misses;
  const auto plan1 = svc.plan_cache().GetStats();
  out.plan.hits = plan1.hits - plan0.hits;
  out.plan.misses = plan1.misses - plan0.misses;
  out.plan.extends = plan1.extends - plan0.extends;
  out.plan.evictions = plan1.evictions - plan0.evictions;
  out.plan_bytes = svc.plan_cache().bytes();
  const double window_ns = static_cast<double>(end - start);
  out.engine_busy_frac = static_cast<double>(BusyNs(svc.worker_stats()) - engine0) /
                         (window_ns * env.num_engines);
  const int morsel_threads = std::max(1, exec::MorselPool::Shared().num_threads());
  out.morsel_busy_frac =
      static_cast<double>(MorselBusyNs() - morsel0) / (window_ns * morsel_threads);
  const QueueSample queue1 = QueueDepth(*env.registry);
  out.queue_depth_mean = queue1.count > queue0.count
                             ? (queue1.sum - queue0.sum) /
                                   static_cast<double>(queue1.count - queue0.count)
                             : 0.0;
  out.ledger_ops = LedgerOps(svc) - ledger0;
  return out;
}

Figures WindowFigures(const WindowResult& w, bool quiet_only) {
  // The slice each completion belongs to: the one whose span holds its end
  // (the last slice ends after every client has stopped).
  std::vector<int64_t> completions_in(w.slices.size(), 0);
  std::vector<size_t> slice_of;
  for (const Completion& c : w.completions) {
    auto it = std::upper_bound(w.slices.begin(), w.slices.end(), c.end_ns,
                               [](int64_t t, const Slice& s) { return t < s.start_ns; });
    const size_t i = static_cast<size_t>(std::max<ptrdiff_t>(0, it - w.slices.begin() - 1));
    slice_of.push_back(i);
    ++completions_in[i];
  }
  std::vector<double> stolen;
  for (const Slice& s : w.slices) stolen.push_back(quiet_only ? s.stolen_share : 0.0);
  std::vector<bool> chosen(w.slices.size(), false);
  Figures f;
  size_t taken = 0;
  int64_t samples = 0;
  double last_share = 0.0;
  for (size_t i : QuietestFirst(stolen)) {
    // Slices as quiet as the last one taken are taken too.
    if (quiet_only && taken * 2 >= w.slices.size() && samples >= kMinQuietSamples &&
        stolen[i] > last_share) {
      break;
    }
    last_share = stolen[i];
    const Slice& s = w.slices[i];
    chosen[i] = true;
    ++taken;
    samples += completions_in[i];
    f.seconds += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    f.cpu_seconds += s.cpu_seconds;
    f.max_stolen_share = std::max(f.max_stolen_share, s.stolen_share);
  }
  for (size_t k = 0; k < w.completions.size(); ++k) {
    if (!chosen[slice_of[k]]) continue;
    f.latency_ms.push_back(w.completions[k].latency_ms);
    f.answered += w.completions[k].answered;
  }
  return f;
}

void CheckShapesAgainstOracle(const Env& env, CheckLog* checks) {
  std::vector<Shape> shapes = env.spec.kind == Kind::kAnalyst   ? AnalystShapes()
                              : env.spec.kind == Kind::kExplore ? ExploreShapes()
                                                                : std::vector<Shape>{};
  if (shapes.empty()) return;
  // The oracle walks rows one Value at a time (about 2 µs per fact row), so
  // the check runs on a small instance.
  WorkloadSpec small = env.spec;
  small.scale_factor = kOracleScaleFactor;
  auto catalog = GenerateCatalog(small);
  checks->Expect(catalog.ok(), "oracle-check catalog generated");
  if (!catalog.ok()) return;
  query::Binder binder(catalog->get());
  exec::PlanCache plans(shapes.size(), exec::PlanCache::kDefaultMaxBytes);
  exec::StarJoinExecutor executor;
  Rng rng(MixSeed(env.seed, 7777));
  int mismatches = 0;
  std::string first_bad;
  for (const Shape& shape : shapes) {
    const std::string sql = shape.render(rng);
    auto bound = binder.BindSql(sql);
    auto plan = bound.ok() ? plans.GetOrCompile(*bound)
                           : Result<std::shared_ptr<const exec::ScanPlan>>(bound.status());
    Result<exec::QueryResult> fast =
        plan.ok() ? executor.Execute(*bound, {}, **plan)
                  : Result<exec::QueryResult>(plan.status());
    Result<exec::QueryResult> naive =
        bound.ok() ? exec::ExecuteNaive(*bound) : Result<exec::QueryResult>(bound.status());
    if (!fast.ok() || !naive.ok() || !SameAnswer(*fast, *naive)) {
      if (mismatches++ == 0) first_bad = shape.name + ": " + sql;
    }
  }
  checks->Expect(mismatches == 0, "plan path == ExecuteNaive oracle for every shape (" +
                                      std::to_string(mismatches) + " differ; first " +
                                      first_bad + ")");
}

std::vector<double> RelativeErrors(const Env& env, const std::vector<FreshAnswer>& fresh,
                                   const WindowResult& window, storage::Catalog* oracle,
                                   int64_t* zero_excluded, CheckLog* checks) {
  // A seeded sample bounds the exact-answer cost (one fact scan each).
  const size_t sample = env.spec.kind == Kind::kDashboard ? 1024 : 4096;
  std::vector<size_t> order(fresh.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(MixSeed(env.seed, 4242));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  if (order.size() > sample) order.resize(sample);
  std::stable_sort(order.begin(), order.end(),
                   [&fresh](size_t a, size_t b) { return fresh[a].epoch < fresh[b].epoch; });

  auto lineorder = oracle->GetTable("Lineorder");
  query::Binder binder(oracle);
  exec::ExecutorOptions options;
  options.exec_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  exec::StarJoinExecutor executor(options);
  std::vector<double> errors;
  int64_t failures = lineorder.ok() ? 0 : 1;
  size_t next_batch = 0;
  for (size_t idx : order) {
    const FreshAnswer& a = fresh[idx];
    // Replay the writer up to the answer's epoch.
    while (lineorder.ok() && next_batch < window.writer_epochs.size() &&
           window.writer_epochs[next_batch] != 0 &&
           window.writer_epochs[next_batch] <= a.epoch) {
      for (const auto& row : window.writer_batches[next_batch].rows) {
        if (!(*lineorder)->AppendRow(row).ok()) ++failures;
      }
      ++next_batch;
    }
    auto bound = binder.BindSql(a.sql);
    auto result =
        bound.ok() ? executor.Execute(*bound) : Result<exec::QueryResult>(bound.status());
    if (!result.ok()) {
      ++failures;
      continue;
    }
    const double exact = result->Total();
    if (exact == 0.0) {
      ++*zero_excluded;
      continue;
    }
    errors.push_back(std::abs(a.total - exact) / std::abs(exact) * 100.0);
  }
  checks->Expect(failures == 0, "exact answers computed for every sampled fresh answer (" +
                                    std::to_string(failures) + " failed)");
  return errors;
}

}  // namespace perfbench
