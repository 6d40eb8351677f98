#!/usr/bin/env python3
"""Committed end-to-end baseline (BENCH_e2e.json) for scripts/ci.sh.

The baseline holds the three BENCHMARK.json workloads at the smoke gate's
size: seed 1, 3 s, untraced.

  python3 scripts/e2e_baseline.py write
      runs the three workloads and rewrites BENCH_e2e.json;
  python3 scripts/e2e_baseline.py check WORKLOAD=RESULT_JSON...
      compares run.py results (its last output line) with BENCH_e2e.json.

The check holds sync_sim_ms.p50/p99 and wire_bytes_per_delivery equal to
the committed values: they are simulated, so bit-identical per seed and
independent of --seconds. peak_rss_mb may grow by at most BENCHMARK.json's
bound for it. update_us is wall time on a shared machine and is not held.
"""
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_e2e.json")
WORKLOADS = ("edit_full", "edit_delta", "host_fanout")
CONFIG = {"seed": "1", "seconds": "3", "trace": "0",
          "workloads": ",".join(WORKLOADS)}
EXACT = ("sync_sim_ms.p50", "sync_sim_ms.p99", "wire_bytes_per_delivery")


def run_workload(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2e_bench", "run.py"),
         "--workload", workload, "--seed", CONFIG["seed"],
         "--seconds", CONFIG["seconds"], "--trace", CONFIG["trace"]],
        check=True, capture_output=True, text=True, cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def write():
    metrics = []
    for workload in WORKLOADS:
        result = run_workload(workload)
        if result["correct"] is not True or result["failed"] != 0:
            sys.exit("%s did not converge: %s" % (workload, result))
        for name, metric in result["metrics"].items():
            metrics.append({
                "name": "%s.%s" % (workload, name), "unit": metric["unit"],
                "provenance": "sim" if name in EXACT else "wall",
                "kind": "value", "value": metric["value"]})
    fingerprint = hashlib.sha256(
        json.dumps(CONFIG, sort_keys=True).encode()).hexdigest()
    report = {"schema_version": 1, "bench": "e2e", "config": CONFIG,
              "config_fingerprint": fingerprint, "metrics": metrics}
    with open(BASELINE, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def rss_bound():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for metric in json.load(f)["end_to_end"]:
            if metric["name"] == "peak_rss_mb":
                return metric["bound"]
    sys.exit("BENCHMARK.json has no peak_rss_mb bound")


def check(pairs):
    with open(BASELINE) as f:
        committed = {m["name"]: m["value"] for m in json.load(f)["metrics"]}
    bound = rss_bound()
    ok = True
    for pair in pairs:
        workload, _, result = pair.partition("=")
        metrics = json.loads(result)["metrics"]
        for name in EXACT + ("peak_rss_mb",):
            want = committed["%s.%s" % (workload, name)]
            got = metrics[name]["value"]
            good = got == want if name in EXACT else got <= want * (1 + bound)
            print("%-5s %s.%s: %s (committed %s)"
                  % ("ok" if good else "FAIL", workload, name, got, want))
            ok = ok and good
    return ok


if __name__ == "__main__":
    if sys.argv[1:2] == ["write"]:
        write()
    elif sys.argv[1:2] == ["check"] and len(sys.argv) > 2:
        sys.exit(0 if check(sys.argv[2:]) else 1)
    else:
        sys.exit(__doc__)
