#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON emitted by the bench binaries.

Compares a fresh `--json` run against a checked-in baseline (e.g.
BENCH_engine.json). Because CI machines and workstations differ in absolute
speed, the gate is *ratio-based*: within each bench group it normalises every
config's rows/sec by the group's slowest baseline config, and requires the
candidate's speedup ratios to stay within --tolerance of the baseline's.
A regression in, say, the plan-warm fast path shows up as a collapsed
warm/uncached ratio no matter how fast the host is.

When BOTH files carry non-zero `cycles_per_row` columns for a record (i.e.
both runs had perf-counter access), the gate additionally bounds the
candidate's cycles/row at (1 + --cycle-tolerance) x baseline — a
frequency-independent check that catches "same wall clock, twice the work"
regressions that scaling governors can mask. Records where either side is 0
(no PMU: most CI containers) are skipped with a note, never failed.

Usage:
    tools/check_bench.py BASELINE.json CANDIDATE.json [--tolerance 0.5]

Exit status 0 when every ratio holds, 1 otherwise. Both files use the
{"host": {...}, "records": [...]} envelope.
"""

import argparse
import json
import re
import sys


def load_records(path):
    """Returns (host_dict_or_None,
    {(bench, normalised_config): (rows_per_sec, cycles_per_row)}).
    cycles_per_row is 0.0 for records predating the counter columns."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for r in doc["records"]:
        out[(r["bench"], normalise(r["config"]))] = (
            float(r["rows_per_sec"]),
            float(r.get("cycles_per_row", 0.0)),
        )
    return doc.get("host"), out


def normalise(config):
    """Strips run-dependent numbers (measured speedups, host annotations) so
    configs from different runs line up."""
    config = re.sub(r"speedup=[0-9.]+x", "speedup", config)
    config = re.sub(r"\s*\[[0-9]+-core host\]", "", config)  # legacy suffix
    return config.strip()


def group_ratios(records):
    """Per bench group: every config's rows/sec over the group's slowest."""
    groups = {}
    for (bench, config), (rps, _cycles) in records.items():
        groups.setdefault(bench, {})[config] = rps
    ratios = {}
    for bench, configs in groups.items():
        if len(configs) < 2:
            continue  # nothing to normalise against
        floor = min(configs.values())
        if floor <= 0:
            continue
        ratios[bench] = {c: rps / floor for c, rps in configs.items()}
    return ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional drop in any within-group speedup ratio "
        "(default 0.5: the candidate ratio must be >= 50%% of baseline)",
    )
    ap.add_argument(
        "--cycle-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional growth in cycles/row when both runs carry "
        "hardware counts (default 0.5: candidate <= 1.5x baseline)",
    )
    args = ap.parse_args()

    base_host, base = load_records(args.baseline)
    cand_host, cand = load_records(args.candidate)
    for label, host in (("baseline", base_host), ("candidate", cand_host)):
        if host:
            print(
                f"{label} host: {host.get('cores')} cores, isa={host.get('isa')}, "
                f"l2={host.get('l2_bytes')}"
            )

    base_ratios = group_ratios(base)
    cand_ratios = group_ratios(cand)

    failures = []
    checked = 0
    for bench, configs in sorted(base_ratios.items()):
        if bench not in cand_ratios:
            failures.append(f"{bench}: group missing from candidate run")
            continue
        for config, base_r in sorted(configs.items()):
            cand_r = cand_ratios[bench].get(config)
            if cand_r is None:
                failures.append(f"{bench} [{config}]: config missing from candidate run")
                continue
            checked += 1
            floor_r = base_r * (1.0 - args.tolerance)
            verdict = "ok" if cand_r >= floor_r else "REGRESSED"
            print(
                f"  {verdict:9s} {bench} [{config}]: "
                f"baseline x{base_r:.2f} candidate x{cand_r:.2f} (floor x{floor_r:.2f})"
            )
            if cand_r < floor_r:
                failures.append(
                    f"{bench} [{config}]: speedup ratio fell to x{cand_r:.2f} "
                    f"(baseline x{base_r:.2f}, floor x{floor_r:.2f})"
                )

    # Cycle gate: absolute-ish (cycles/row is frequency-independent), but only
    # meaningful when both runs actually counted cycles.
    cycle_checked = cycle_skipped = 0
    for key, (base_rps, base_cyc) in sorted(base.items()):
        cand_entry = cand.get(key)
        if cand_entry is None:
            continue  # already reported by the ratio gate
        cand_cyc = cand_entry[1]
        if base_cyc <= 0 or cand_cyc <= 0:
            cycle_skipped += 1
            continue
        cycle_checked += 1
        bench, config = key
        ceiling = base_cyc * (1.0 + args.cycle_tolerance)
        verdict = "ok" if cand_cyc <= ceiling else "REGRESSED"
        print(
            f"  {verdict:9s} {bench} [{config}]: cycles/row "
            f"baseline {base_cyc:.1f} candidate {cand_cyc:.1f} "
            f"(ceiling {ceiling:.1f})"
        )
        if cand_cyc > ceiling:
            failures.append(
                f"{bench} [{config}]: cycles/row grew to {cand_cyc:.1f} "
                f"(baseline {base_cyc:.1f}, ceiling {ceiling:.1f})"
            )
    if cycle_skipped:
        print(
            f"cycle gate: {cycle_checked} records checked, {cycle_skipped} "
            "skipped (no hardware counts on one side)"
        )

    print(f"checked {checked} ratios across {len(base_ratios)} bench groups")
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
