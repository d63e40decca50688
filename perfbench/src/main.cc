// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// perfbench — the repository benchmark. One process starts the real
// QueryService behind the real HttpServer on loopback over a generated SSB
// catalog, replays one named workload from a seed, checks the outputs and
// prints one JSON result line (the last line of stdout).
//
//   perfbench --workload analyst|dashboard|explore --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--git-commit REV]
//             [--source-digest HEX] [--expect-digest HEX]
//   perfbench --workload W --seed N --digest-only 1
//
// --digest-only prints the digest of the seed's request stream and exits; a
// run given that digest as --expect-digest checks that its own stream, made
// in another process, is the same.
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
// the same window with every other request traced (the latency difference
// between the halves is the tracing overhead), then drives a sample of fresh
// requests up the layer ladder (ladder.h) and prints the per-layer metrics;
// its spans are written to DIR/spans-<workload>-<seed>.jsonl.
//
// The exit code is 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "exec/kernels/kernels.h"
#include "harness.h"
#include "ladder.h"
#include "net/json.h"
#include "obs/prof/counters.h"
#include "perf_util.h"
#include "workloads.h"

using namespace perfbench;
using dpstarj::net::Json;

namespace {

/// Set-ups per --trace 0 run; setup_s is the median of their quieter half.
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
  std::string expect_digest;
  bool digest_only = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--git-commit") {
      a->git_commit = value;
    } else if (flag == "--source-digest") {
      a->source_digest = value;
    } else if (flag == "--expect-digest") {
      a->expect_digest = value;
    } else if (flag == "--digest-only") {
      a->digest_only = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds >= 1.0;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Json Provenance(const Args& args, const Env& env, uint64_t digest) {
  Json p = Json::Object();
  p.Set("workload", Json::Str(args.workload));
  p.Set("seed", Json::Number(static_cast<double>(args.seed)));
  p.Set("seconds", Json::Number(args.seconds));
  p.Set("trace", Json::Bool(args.trace));
  p.Set("nproc", Json::Number(std::thread::hardware_concurrency()));
  p.Set("kernels", Json::Str(dpstarj::exec::kernels::ActiveKernels().name));
  const auto mode = dpstarj::obs::prof::ActiveCounterMode();
  p.Set("perf_counters", Json::Str(dpstarj::obs::prof::CounterModeName(mode)));
  p.Set("build_type", Json::Str(dpstarj::common::GetBuildInfo().build_type));
  p.Set("compiler", Json::Str(dpstarj::common::GetBuildInfo().compiler));
  p.Set("git_commit", Json::Str(args.git_commit));
  p.Set("source_digest", Json::Str(args.source_digest));
  p.Set("request_digest", Json::Str(Hex(digest)));
  p.Set("scale_factor", Json::Number(env.spec.scale_factor));
  p.Set("num_engines", Json::Number(env.num_engines));
  p.Set("exec_threads_per_engine", Json::Number(env.exec_threads_per_engine));
  Json rows = Json::Object();
  rows.Set("Lineorder", Json::Number(static_cast<double>(env.initial_rows)));
  for (const char* table : {"Customer", "Supplier", "Part", "Date"}) {
    auto t = env.catalog->GetTable(table);
    rows.Set(table, Json::Number(t.ok() ? static_cast<double>((*t)->num_rows()) : -1.0));
  }
  p.Set("initial_rows", std::move(rows));
  Json out = Json::Object();
  out.Set("provenance", std::move(p));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analyst|dashboard|explore --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--git-commit REV] "
                 "[--source-digest HEX] [--expect-digest HEX] [--digest-only 1]\n");
    return 2;
  }
  auto spec = ParseWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }

  // Seed determinism: the request stream is a pure function of the seed.
  const uint64_t digest = StreamDigest(*spec, args.seed, 256);
  if (args.digest_only) {
    std::printf("%s\n", Hex(digest).c_str());
    return 0;
  }
  CheckLog checks;
  checks.Expect(args.expect_digest.empty() || args.expect_digest == Hex(digest),
                "same seed gives a byte-identical request stream in another process");
  checks.Expect(digest != StreamDigest(*spec, args.seed + 1, 256),
                "a different seed gives a different request stream");

  // The first set-up serves the window; further set-ups are made after the
  // window, so the window runs in a process that has set up once, as a
  // server's does. setup_s is the median of the quieter half of them, by the
  // share of CPU the host withheld during each (as for the window's slices).
  std::vector<double> setup_s;
  std::vector<double> setup_stolen;
  auto TimedSetup = [&]() -> std::unique_ptr<Env> {
    const HostCpu host0 = ReadHostCpu();
    const int64_t t0 = NowNs();
    auto made = Setup(*spec, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", made.status().ToString().c_str());
      return nullptr;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_stolen.push_back(StolenShare(host0, ReadHostCpu()));
    return std::move(*made);
  };
  std::unique_ptr<Env> env = TimedSetup();
  if (env == nullptr) return 1;
  std::fprintf(stderr, "perfbench: %s seed %llu, set-up %.3f s\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), setup_s[0]);
  int64_t phase_start = NowNs();
  auto Phase = [&phase_start](const char* name) {
    const int64_t now = NowNs();
    std::fprintf(stderr, "perfbench: %-14s %8.3f s\n", name,
                 static_cast<double>(now - phase_start) / 1e9);
    phase_start = now;
  };
  CheckShapesAgainstOracle(*env, &checks);

  Phase("oracle check");

  SpanLog spans(args.trace);
  MetricSet metrics;
  const WindowResult w = RunWindow(*env, args.seconds, 0, &spans);
  if (args.trace) {
    // Alternate requests carry spans; both halves share one window, so the
    // difference of their medians is the tracing overhead alone.
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
    for (const Completion& c : w.completions) {
      (c.traced ? traced_ms : untraced_ms).push_back(c.latency_ms);
    }
    const double base = Median(untraced_ms);
    metrics.Set("trace.overhead_pct",
                base > 0 ? (Median(traced_ms) - base) / base * 100.0 : 0.0, "%");
  }
  Phase("window");

  // Output checks over everything the window did.
  auto account = env->service->ledger().Account(kBenchTenant);
  const double expected_spent =
      kEpsilon * static_cast<double>(w.answered - static_cast<int64_t>(w.cache.hits));
  checks.Expect(account.ok() && std::abs(account->spent - expected_spent) <=
                                    1e-9 * std::max(1.0, expected_spent),
                "tenant spent epsilon == epsilon x (answered - answer-cache hits)");
  if (spec->kind == Kind::kAnalyst) {
    checks.Expect(w.replays_checked > 0 && w.replay_mismatches == 0,
                  "answer-cache replays within one epoch are byte-identical to the "
                  "cached fresh answer (" +
                      std::to_string(w.replay_mismatches) + " of " +
                      std::to_string(w.replays_checked) + " differ)");
  }
  if (spec->kind == Kind::kDashboard) {
    checks.Expect(w.workload_replies > 0 && w.workload_bad_size == 0,
                  "every /v1/workload reply has 16 entries");
  }
  checks.Expect(w.answered > 0, "the window answered queries");

  std::vector<double> rel_errors;
  int64_t zero_excluded = 0;
  if (!args.trace) {
    if (spec->kind == Kind::kAnalyst) {
      // Answers span epochs: the oracle is a fresh copy of the generated
      // catalog that replays the writer's batches as it goes.
      auto oracle = GenerateCatalog(*spec);
      checks.Expect(oracle.ok(), "oracle catalog generated");
      if (oracle.ok()) {
        rel_errors =
            RelativeErrors(*env, w.fresh, w, oracle->get(), &zero_excluded, &checks);
      }
    } else {
      rel_errors =
          RelativeErrors(*env, w.fresh, w, env->catalog.get(), &zero_excluded, &checks);
    }
    checks.Expect(!rel_errors.empty(), "relative errors measured");
    Phase("exact answers");
  }
  checks.Expect(env->lineorder()->num_rows() == env->initial_rows + w.rows_appended,
                "Lineorder rows == initial + every appended row");

  if (!args.trace) {
    // CPU per query over the window's quieter half (see WindowFigures). The
    // wall-clock figures are in the detail line: a shared host's steal moves
    // them by more than any bound a run can hold (README, "Noise").
    const Figures quiet = WindowFigures(w, /*quiet_only=*/true);
    const double quiet_answered = static_cast<double>(std::max<int64_t>(1, quiet.answered));
    metrics.Set("answered_pct",
                w.attempted > 0 ? 100.0 * static_cast<double>(w.attempted - w.failed) /
                                      static_cast<double>(w.attempted)
                                : 0.0,
                "%");
    metrics.Set("rel_error_p50_pct", Median(rel_errors), "%");
    metrics.Set("cpu_ms_per_query", quiet.cpu_seconds * 1e3 / quiet_answered, "ms");
    metrics.Set("peak_rss_mb", w.peak_rss_mb, "MB");
    // Only analyst has a writer; the ladder's service.ingest_p50_us measures
    // ingest on every workload.
    if (spec->has_writer) metrics.Set("ingest_p50_ms", Median(w.ingest_ms), "ms");
  } else {
    const double answered = static_cast<double>(std::max<int64_t>(1, w.answered));
    const double lookups = static_cast<double>(w.plan.hits + w.plan.misses);
    metrics.Set("exec.plan_hit_rate", lookups > 0 ? w.plan.hits / lookups : 0.0, "ratio");
    metrics.Set("exec.plan_evictions_per_query", w.plan.evictions / answered, "count");
    metrics.Set("exec.plan_bytes_mb", static_cast<double>(w.plan_bytes) / 1e6, "MB");
    metrics.Set("exec.morsel_busy_frac", w.morsel_busy_frac, "ratio");
    metrics.Set("service.engine_busy_frac", w.engine_busy_frac, "ratio");
    metrics.Set("service.queue_depth_mean", w.queue_depth_mean, "count");
    metrics.Set("service.ledger_ops_per_query", w.ledger_ops / answered, "count");
    RunLadder(*env, &spans, &metrics, &checks);
    Phase("ladder");
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    checks.Expect(spans.WriteJsonLines(path), "spans written to " + path);
  }

  const Json provenance = Provenance(args, *env, digest);
  if (!args.trace) {
    env.reset();
    for (int i = 1; i < kSetups; ++i) {
      if (TimedSetup() == nullptr) return 1;
    }
    std::vector<double> quiet_setup_s;
    for (size_t i : QuietestFirst(setup_stolen)) {
      if (quiet_setup_s.size() * 2 >= setup_s.size()) break;
      quiet_setup_s.push_back(setup_s[i]);
    }
    metrics.Set("setup_s", Median(quiet_setup_s), "s");
    Phase("set-ups");
  }

  // Detail lines first; the result object is the last line of stdout.
  std::printf("%s\n", provenance.Dump().c_str());
  {
    Json d = Json::Object();
    // Client-side figures over the window's quieter half and over all of it.
    auto FiguresJson = [](const Figures& f) {
      Json j = Json::Object();
      j.Set("latency_p50_ms", Json::Number(Median(f.latency_ms)));
      j.Set("latency_p99_ms", Json::Number(Quantile(f.latency_ms, 0.99)));
      j.Set("queries_per_s", Json::Number(static_cast<double>(f.answered) / f.seconds));
      j.Set("cpu_ms_per_query",
            Json::Number(f.cpu_seconds * 1e3 /
                         static_cast<double>(std::max<int64_t>(1, f.answered))));
      j.Set("latency_samples", Json::Number(static_cast<double>(f.latency_ms.size())));
      j.Set("seconds", Json::Number(f.seconds));
      j.Set("max_stolen_pct", Json::Number(100.0 * f.max_stolen_share));
      return j;
    };
    d.Set("quiet_half", FiguresJson(WindowFigures(w, /*quiet_only=*/true)));
    d.Set("whole_window", FiguresJson(WindowFigures(w, /*quiet_only=*/false)));
    Json setups_json = Json::Array();
    for (double s : setup_s) setups_json.Append(Json::Number(s));
    d.Set("setup_s", std::move(setups_json));
    Json setup_stolen_json = Json::Array();
    for (double s : setup_stolen) {
      setup_stolen_json.Append(Json::Number(std::round(1000.0 * s) / 10.0));
    }
    d.Set("setup_stolen_pct", std::move(setup_stolen_json));
    d.Set("window_s", Json::Number(w.seconds));
    d.Set("host_steal_pct", Json::Number(w.host_steal_pct));
    d.Set("error_rate", Json::Number(w.attempted > 0
                                         ? static_cast<double>(w.failed) /
                                               static_cast<double>(w.attempted)
                                         : 0.0));
    Json causes = Json::Object();
    causes.Set("http_429", Json::Number(static_cast<double>(w.failures.http_429)));
    causes.Set("http_other", Json::Number(static_cast<double>(w.failures.http_other)));
    causes.Set("transport", Json::Number(static_cast<double>(w.failures.transport)));
    causes.Set("bad_reply", Json::Number(static_cast<double>(w.failures.bad_reply)));
    causes.Set("failed_panels", Json::Number(static_cast<double>(w.failures.panel)));
    d.Set("failures", std::move(causes));
    d.Set("rel_error_samples", Json::Number(static_cast<double>(rel_errors.size())));
    Json q = Json::Array();
    for (double x : {0.25, 0.5, 0.75}) q.Append(Json::Number(Quantile(rel_errors, x)));
    d.Set("rel_error_quartiles", std::move(q));
    d.Set("rel_error_zero_excluded", Json::Number(static_cast<double>(zero_excluded)));
    const double cache_lookups = static_cast<double>(w.cache.hits + w.cache.misses);
    d.Set("answer_cache_hit_rate",
          Json::Number(cache_lookups > 0 ? w.cache.hits / cache_lookups : 0.0));
    d.Set("replays_checked", Json::Number(static_cast<double>(w.replays_checked)));
    d.Set("racing_fresh_answers", Json::Number(static_cast<double>(w.racing_fresh_answers)));
    if (spec->has_writer) {
      // Open-loop lateness of the writer: a large value means the load
      // generator, not the service, fell behind.
      d.Set("writer_lag_p99_ms", Json::Number(Quantile(w.writer_lag_ms, 0.99)));
    }
    d.Set("checks_passed", Json::Number(checks.passed));
    Json failed = Json::Array();
    for (const std::string& f : checks.failures) failed.Append(Json::Str(f));
    d.Set("checks_failed", std::move(failed));
    Json out = Json::Object();
    out.Set("detail", std::move(d));
    std::printf("%s\n", out.Dump().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              checks.ok() ? "true" : "false", static_cast<long long>(w.attempted),
              static_cast<long long>(w.failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  return checks.ok() ? 0 : 1;
}
