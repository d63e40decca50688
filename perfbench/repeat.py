#!/usr/bin/env python3
"""Repeat-runner for the dpstarj benchmark.

Run one workload K times (seeds S, S+1, ...) and summarize every metric:

    python3 perfbench/repeat.py run --workload explore --runs 10 --out a.json

Compare two saved sets of runs against the bounds in BENCHMARK.json:

    python3 perfbench/repeat.py compare a.json b.json

`run` prints, per metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
interquartile distance as a share of the median. An end-to-end metric is
steady when its spread is under a third of its bound. `compare` reports, per
end-to-end metric, how much worse the second set's median is than the
first's, and fails (exit 1) when that exceeds the bound, when a spread
other than setup_s's exceeds it, or when a seed present in both sets sent
different request streams. Run it from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("run failed: workload=%s seed=%d rc=%d"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"provenance"'):
            result["request_digest"] = json.loads(line)["provenance"]["request_digest"]
        elif line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
            result["host_steal_pct"] = detail.get("host_steal_pct")
            if "quiet_half" in detail:
                result["quiet_half"] = detail["quiet_half"]
    return result


def summarize(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def print_summary(workload, runs, spec):
    bound_of = bounds(spec)
    print("== %s: %d runs ==" % (workload, len(runs)))
    print("%-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        bound = bound_of.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "WIDE")
        print("%-32s %14.6g %14.6g %14.6g %8.3f %6s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, flag))
    # Wall-clock figures of the quieter half (detail line; not gated).
    if all("quiet_half" in r for r in runs):
        for name in ("latency_p50_ms", "latency_p99_ms", "queries_per_s"):
            med, q1, q3, spread = summarize([r["quiet_half"][name] for r in runs])
            print("%-32s %14.6g %14.6g %14.6g %8.3f %6s %s" % (
                name, med, q1, q3, spread, "", "(detail line, not gated)"))
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print("correct: %d/%d   failed/attempted: %d/%d" % (
        sum(1 for r in runs if r["correct"]), len(runs), failed, attempted))
    steal = [r.get("host_steal_pct") for r in runs]
    if all(s is not None for s in steal):
        print("host CPU steal during each window (%%): %s" % " ".join("%.1f" % s for s in steal))
    if all("quiet_half" in r for r in runs):
        print("largest stolen share in each quiet half (%%): %s" % " ".join(
            "%.1f" % r["quiet_half"]["max_stolen_pct"] for r in runs))


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        result = one_run(args.workload, seed, seconds, args.trace)
        result["seed"] = seed
        runs.append(result)
        print("seed %d: correct=%s" % (seed, result["correct"]), file=sys.stderr)
    print_summary(args.workload, runs, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, f)
    return 0 if all(r["correct"] for r in runs) else 1


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    print("== compare %s: %s -> %s ==" % (first["workload"], args.first, args.second))
    print("%-20s %12s %12s %8s %8s %8s %6s" % (
        "metric", "median A", "median B", "worse", "sprd A", "sprd B", "bound"))
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in first["runs"]]
        b = [r["metrics"][name]["value"] for r in second["runs"]]
        ma, _, _, sa = summarize(a)
        mb, _, _, sb = summarize(b)
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (mb - ma) / abs(ma) if ma else 0.0
        verdict = []
        if worse > m["bound"]:
            verdict.append("REGRESSED")
        if name != "setup_s" and max(sa, sb) > m["bound"]:
            verdict.append("SPREAD")
        ok = ok and not verdict
        print("%-20s %12.6g %12.6g %8.3f %8.3f %8.3f %6s %s" % (
            name, ma, mb, worse, sa, sb, m["bound"], " ".join(verdict)))
    # Seed determinism across processes: a seed run in both sets must have
    # sent the same request stream.
    digests = {r["seed"]: r.get("request_digest") for r in first["runs"]}
    for r in second["runs"]:
        if r["seed"] in digests and digests[r["seed"]] != r.get("request_digest"):
            print("seed %d: request streams differ (%s vs %s)" % (
                r["seed"], digests[r["seed"]], r.get("request_digest")))
            ok = False
    print("agree within bounds" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload K times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1, help="first seed")
    run.add_argument("--seconds", type=int, default=0,
                     help="window length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out", help="save the runs as JSON for compare")
    cmp_ = sub.add_parser("compare", help="compare two saved sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    sys.exit(cmd_run(args) if args.command == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
