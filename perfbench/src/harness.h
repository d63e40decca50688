// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The end-to-end half of the benchmark: set-up of the real service behind
// the real HTTP server on loopback, the closed-loop client connections and
// the open-loop writer, and the output checks run against what they saw.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/plan_cache.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "perf_util.h"
#include "service/answer_cache.h"
#include "service/query_service.h"
#include "storage/catalog.h"
#include "workloads.h"

namespace perfbench {

/// Tenant of the measured traffic; registered just before the first window.
inline constexpr char kBenchTenant[] = "bench";
/// Closed-loop query connections. One: a request's engine and scan threads
/// then leave a CPU of a 4-CPU host spare, so a CPU the host takes away
/// for a moment delays the request less (see perfbench/README.md, "Noise").
inline constexpr int kQueryClients = 1;

/// \brief One running service: catalog, QueryService and HttpServer. Members
/// are destroyed in reverse order, so the server stops before the service
/// and the service before the catalog it reads.
struct Env {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::unique_ptr<dpstarj::storage::Catalog> catalog;
  std::shared_ptr<dpstarj::obs::MetricsRegistry> registry;
  std::unique_ptr<dpstarj::service::QueryService> service;
  std::unique_ptr<dpstarj::net::HttpServer> server;
  int num_engines = 1;
  int exec_threads_per_engine = 1;
  int64_t initial_rows = 0;    ///< Lineorder rows as generated
  uint64_t initial_epoch = 0;  ///< Lineorder version as generated

  std::shared_ptr<dpstarj::storage::Table> lineorder() const;
};

/// Generates the catalog, starts service and server, warms every cache.
dpstarj::Result<std::unique_ptr<Env>> Setup(const WorkloadSpec& spec, uint64_t seed);

/// Generates the SSB catalog `Setup` starts from: the same rows every run,
/// whatever the seed (the seed drives the traffic, not the data).
dpstarj::Result<std::unique_ptr<dpstarj::storage::Catalog>> GenerateCatalog(
    const WorkloadSpec& spec);

/// One ingest batch: its Lineorder rows and the wire body carrying them.
struct IngestBatch {
  std::vector<std::vector<dpstarj::storage::Value>> rows;
  std::string body;
};

/// \brief `count` batches of rows re-sampled from the first
/// `env.initial_rows` Lineorder rows (so every foreign key stays valid).
std::vector<IngestBatch> IngestBatches(const Env& env, uint64_t stream_id, int count);

/// Failed requests by cause. Nothing is retried.
struct Failures {
  int64_t http_429 = 0;
  int64_t http_other = 0;
  int64_t transport = 0;
  int64_t bad_reply = 0;  ///< 200 whose body does not parse or has the wrong shape
  int64_t panel = 0;      ///< /v1/workload entries with "ok": false
};

/// One successful query request as the client saw it.
struct Completion {
  int64_t end_ns = 0;
  double latency_ms = 0.0;
  int64_t answered = 0;  ///< queries it answered (a refresh's panels count each)
  bool traced = false;
};

/// \brief A tenth of a second of the window, with the host's state over it.
struct Slice {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Share of this guest's CPU demand the host gave to other guests: steal
  /// / (busy + steal) over all CPUs, from /proc/stat.
  double stolen_share = 0.0;
  double cpu_seconds = 0.0;  ///< process user + system CPU over the slice
};

/// A fresh DP answer as the client saw it.
struct FreshAnswer {
  std::string sql;
  double total = 0.0;
  uint64_t epoch = 0;
};

/// \brief What one measured window saw, client side and from the service's
/// public counters (differences over the window).
struct WindowResult {
  double seconds = 0.0;
  int64_t attempted = 0;  ///< HTTP requests sent (query and ingest)
  int64_t failed = 0;     ///< requests with any failure (see failures)
  int64_t answered = 0;   ///< queries answered; a panel counts as one
  Failures failures;
  /// Successful query requests in completion order per client. With spans
  /// enabled every other request is traced, and the two halves give the
  /// tracing overhead.
  std::vector<Completion> completions;
  /// The window cut into slices of a tenth of a second.
  std::vector<Slice> slices;
  double cpu_seconds = 0.0;  ///< process user + system CPU over the window
  /// Share of the host's CPU time stolen by other guests over the window: a
  /// run with much steal measures the neighbours as well as the program.
  double host_steal_pct = 0.0;
  std::vector<double> ingest_ms;      ///< writer: done − due time
  std::vector<double> writer_lag_ms;  ///< writer: send − due time
  int64_t rows_appended = 0;
  /// Writer: the batches it had to send, and the table epoch each accepted
  /// one produced (0 for batches not sent or refused), in sending order.
  std::vector<IngestBatch> writer_batches;
  std::vector<uint64_t> writer_epochs;
  std::vector<FreshAnswer> fresh;
  int64_t replays_checked = 0;
  int64_t replay_mismatches = 0;
  /// (request, epoch) pairs that got more than one distinct fresh answer:
  /// identical requests that missed the answer cache concurrently, each a
  /// separate ε spend and noise draw.
  int64_t racing_fresh_answers = 0;
  int64_t workload_replies = 0;
  int64_t workload_bad_size = 0;
  double peak_rss_mb = 0.0;  ///< largest RSS sampled during the window
  dpstarj::service::AnswerCache::Stats cache;     ///< diff
  dpstarj::exec::PlanCache::Stats plan;           ///< diff
  double engine_busy_frac = 0.0;
  double morsel_busy_frac = 0.0;
  double queue_depth_mean = 0.0;
  int64_t ledger_ops = 0;  ///< bench tenant spends + refunds
  size_t plan_bytes = 0;
};

/// \brief Client-side figures over some of a window's slices.
struct Figures {
  std::vector<double> latency_ms;  ///< requests that completed in the slices
  int64_t answered = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double max_stolen_share = 0.0;
};

/// \brief Figures over the window's quieter half: slices taken by increasing
/// stolen share until half of them are taken and they hold at least 1000
/// completed requests, with every slice as quiet as the last one taken. On
/// a shared host, steal comes in bursts and in episodes of tens of seconds
/// and slows every request it meets; the selection looks only at the host's
/// counters, never at how fast the program was. With `quiet_only` false,
/// figures over every slice.
Figures WindowFigures(const WindowResult& w, bool quiet_only);

/// \brief Runs the closed-loop clients (and the writer, for analyst) for
/// `seconds`. Streams `stream_base` and `stream_base + 1` feed the clients.
/// With `spans` enabled, every other request is recorded as a client span.
WindowResult RunWindow(Env& env, double seconds, uint64_t stream_base, SpanLog* spans);

/// Check outcome collected for the run's report.
struct CheckLog {
  std::vector<std::string> failures;
  int passed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
    } else {
      failures.push_back(what);
    }
  }
  bool ok() const { return failures.empty(); }
};

/// \brief Set-up oracle check: every analyst/explore shape's exact plan-path
/// answer equals exec::ExecuteNaive's, on a small SSB instance.
void CheckShapesAgainstOracle(const Env& env, CheckLog* checks);

/// \brief Relative errors (%) of a seeded sample of fresh answers against
/// exact answers computed by StarJoinExecutor. `oracle` starts as the
/// catalog at the generated epoch; before answers of a later epoch are
/// computed, the writer batches that produced it are appended to it. Answers
/// with an exact total of 0 are skipped and counted in `*zero_excluded`.
std::vector<double> RelativeErrors(const Env& env, const std::vector<FreshAnswer>& fresh,
                                   const WindowResult& window,
                                   dpstarj::storage::Catalog* oracle,
                                   int64_t* zero_excluded, CheckLog* checks);

}  // namespace perfbench
