#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload live_storm --seeds 1-5 [--trace 1]

Prints, per metric, the median and the inter-quartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the bound that
BENCHMARK.json fixes.  A spread above a third of its bound is flagged.
Exits 1 when a run fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default=None)
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, json.dumps(row, sort_keys=True)))
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above bound/3"
        print("%-40s median %-14.6g spread %6.3f  bound %s%s"
              % (name, med, spread, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
