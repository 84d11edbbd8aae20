#!/usr/bin/env python3
"""Checks that perfbench is steady: runs one workload on several seeds and
prints each end-to-end metric's median and quartile spread,
(Q3 - Q1) / median with statistics.quantiles(n=4), next to its bound.

    python3 perfbench/steady.py --workload cohort --runs 10 [--first-seed 11]

A metric is steady when its spread stays below a third of its bound
(setup_s excepted: its spread is not held to the bound). Results are also
written to .bench_out/steady-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=11)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        elapsed = time.monotonic() - t0
        print("seed %d (%.0f s): %s" % (seed, elapsed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in
            result["metrics"].items())), flush=True)
    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        spread = perfstats.quartile_spread(v)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print("%-16s median %-12.6g spread %.4f bound %.2f %s" % (
            m["name"], perfstats.median(v), spread, m["bound"],
            "ok" if ok else "UNSTEADY"))
    print("failed units: %d" % failed)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out",
                           "steady-%s.json" % args.workload), "w") as f:
        json.dump(values, f)
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
