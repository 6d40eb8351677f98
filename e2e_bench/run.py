#!/usr/bin/env python3
"""Builds and runs the end-to-end update benchmark (see README.md here).

    python3 e2e_bench/run.py --workload edit_full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and compiles the
benchmark together with the repository's src/ libraries into
.bench_build/e2e_bench; later runs only re-check that build. The benchmark's
own output (a table, then one JSON result line) goes to stdout; build output
goes to stderr. The exit code is the benchmark's, or 1 when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
WORKLOADS = ("edit_full", "edit_delta", "host_fanout")


def build():
    """Configures (once) and builds bench_e2e; returns the binary or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if not os.path.exists(cache):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # A failed configure must not look configured to the next run.
                if os.path.exists(cache):
                    os.remove(cache)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        built = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
             "--parallel", jobs],
            stdout=sys.stderr)
        if built.returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    if binary is None:
        print("e2e_bench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-dir", os.path.join(BUILD_DIR, "spans")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
