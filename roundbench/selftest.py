#!/usr/bin/env python3
"""Self-test of the round benchmark.

    python3 roundbench/selftest.py

Runs a short (--smoke) version of every workload in BENCHMARK.json on two
seeds, through roundbench/run.py (which builds the benchmark first), and
checks that:

  * each run exits 0 and ends with the result JSON, which has exactly the
    keys correct/attempted/failed/metrics, correct=true and failed=0 —
    for --trace 1 this is the fidelity gate and the counter cross-check;
  * every metric BENCHMARK.json names (end_to_end for --trace 0,
    per_layer for --trace 1) prints with its unit, and nothing else;
  * the deterministic metrics, and the info line with the final
    accuracies, repeat exactly across two untraced runs of the same seed;
  * an unknown workload exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 8)
DETERMINISTIC = ("honest_admit_rate", "admitted_honest_share",
                 "uplink_bytes_per_round", "round_success_rate")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "roundbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(workload, seed, trace, expected):
    what = "%s seed=%d trace=%d" % (workload, seed, trace)
    rc, lines = run(workload, seed, trace)
    check(rc == 0, what + ": exit code 0 (got %d)" % rc)
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, what + ": last line is the result JSON")
        return None
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          what + ": result keys")
    check(res.get("correct") is True and res.get("failed") == 0
          and res.get("attempted", 0) >= 1,
          what + ": correct, nothing failed")
    for line in lines:
        if line.startswith("FAIL"):
            check(False, what + ": " + line)
    metrics = res.get("metrics", {})
    check(sorted(metrics) == sorted(expected),
          what + ": exactly the metrics BENCHMARK.json names")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        check(m.get("unit") == unit
              and isinstance(m.get("value"), (int, float)),
              what + ": %s printed in %s" % (name, unit))
    info = [l for l in lines if l.startswith("info final_accuracy")]
    return metrics, info


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in SEEDS:
            first = result(workload, seed, 0, end_to_end)
            again = result(workload, seed, 0, end_to_end)
            if first and again:
                for name in DETERMINISTIC:
                    check(first[0][name]["value"] == again[0][name]["value"],
                          "%s seed=%d: %s repeats exactly"
                          % (workload, seed, name))
                check(first[1] == again[1] and len(first[1]) == 1,
                      "%s seed=%d: final accuracies repeat exactly"
                      % (workload, seed))
            result(workload, seed, 1, per_layer)
    rc, lines = run("no-such-workload", 1, 0)
    check(rc != 0 and not any(l.startswith("{") for l in lines),
          "unknown workload: nonzero exit, no result")
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
