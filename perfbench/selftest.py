#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the self-test size (40 routers,
a few days of history) in both modes and checks that

  - each run exits 0 with correct=true and its last stdout line is the
    result object;
  - --trace 0 emits exactly the end_to_end metrics and --trace 1 exactly the
    per_layer metrics, with the units BENCHMARK.json declares and finite
    values;
  - a deliberately corrupted reference (--corrupt-reference) makes the
    correctness gate fail in both modes: exit code 1, correct=false, no
    metrics.

Takes well under a minute once the build exists.  Exits 1 on any failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            name = "%s --trace %d" % (w["name"], trace)
            code, result, err = run(w["name"], trace)
            if code != 0 or result is None or result.get("correct") is not True:
                errors.append("%s: exit %d, result %r\n%s" %
                              (name, code, result, err[-2000:]))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append("%s: result keys %s" % (name, sorted(result)))
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                errors.append("%s: attempted/failed %r/%r" %
                              (name, result["attempted"], result["failed"]))
            got = result["metrics"]
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            if missing or extra:
                errors.append("%s: missing %s, unexpected %s" % (name, missing, extra))
            for metric, unit in expected[trace].items():
                m = got.get(metric)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    errors.append("%s: %s unit %r, expected %r" %
                                  (name, metric, m.get("unit"), unit))
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    errors.append("%s: %s value %r" % (name, metric, m.get("value")))
            print("ok   %s (%d metrics)" % (name, len(got)))
    for trace in (0, 1):
        name = "live_natural --trace %d --corrupt-reference" % trace
        code, result, _ = run("live_natural", trace, "--corrupt-reference")
        if code != 1 or result is None or result.get("correct") is not False \
                or result.get("metrics") or result.get("failed", 0) < 1:
            errors.append("%s: gate did not fail (exit %d, result %r)" %
                          (name, code, result))
        else:
            print("ok   %s fails the gate" % name)
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
