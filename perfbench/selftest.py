#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

For every workload the driver has (BENCHMARK.json gates only some of
them) it runs one pass (--seconds 1) twice at one seed and once at
another, and asserts that:
  - every job passed its output check;
  - the two same-seed runs report identical exact sim.* counts and the
    same job contents;
  - the other seed generates different job contents;
  - the metrics printed are exactly those BENCHMARK.json declares.
One traced run checks the per-layer metric list the same way.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(".bench_out", "selftest")
WORKLOADS = ["run", "serve", "campaign"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--out-dir", OUT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(ROOT, OUT, tag)) as f:
        report = json.load(f)
    return result, report


def check(cond, message):
    if not cond:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names only workloads the driver has")
    for w in WORKLOADS:
        a, ra = run(w, 7, 0)
        b, rb = run(w, 7, 0)
        c, rc = run(w, 8, 0)
        for name, r in (("seed 7", a), ("seed 7 again", b),
                        ("seed 8", c)):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w} {name}: every job passed its check")
        check(sorted(a["metrics"]) == sorted(end_to_end),
              f"{w}: end-to-end metrics match BENCHMARK.json")
        check(ra["sim"] and ra["sim"] == rb["sim"],
              f"{w}: same seed gives identical sim.* counts")
        check(ra["content_digest"] == rb["content_digest"],
              f"{w}: same seed gives the same jobs")
        check(ra["content_digest"] != rc["content_digest"],
              f"{w}: another seed gives different jobs")

    t, _ = run(WORKLOADS[0], 7, 1)
    check(t["correct"] and t["failed"] == 0,
          "traced run: every job passed its check")
    check(sorted(t["metrics"]) == sorted(per_layer),
          "traced run: per-layer metrics match BENCHMARK.json")
    print("selftest passed")


if __name__ == "__main__":
    main()
