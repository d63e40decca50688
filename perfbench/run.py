#!/usr/bin/env python3
"""Builds and runs the dpstarj end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The first call configures and builds
`perfbench/` (which pulls in the library from `../src`) into
`.bench_build/perfbench`; later calls rebuild incrementally. The benchmark's
stdout passes through unchanged: its last line is the JSON result. Build
output goes to stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the sources the binary is built from (the checkout need
    not be a git repository, so this is the provenance that always exists)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyst", "dashboard", "explore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "service", "query_service.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no dpstarj sources next to perfbench/ (missing %s)" % needed)
    build()
    os.makedirs(OUT, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    # The seed's request stream made in a separate process: the run checks
    # that its own stream is byte-identical to it.
    digest = subprocess.run([binary] + workload + ["--digest-only", "1"],
                            capture_output=True, text=True, timeout=60)
    if digest.returncode != 0 or not digest.stdout.strip():
        fail("request-stream digest failed")
    command = [binary] + workload + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT, "--git-commit", git_commit(),
        "--source-digest", source_digest(),
        "--expect-digest", digest.stdout.strip()]
    sys.stdout.flush()
    # A SIGTERM to this script ends the run too: the finally clause stops the
    # benchmark process and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proc = subprocess.Popen(command)
    try:
        returncode = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(returncode)


if __name__ == "__main__":
    main()
