#!/usr/bin/env python3
"""Build the SyslogDigest benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload live_natural --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first call configures and builds
`perfbench` (a Release build of the program's libraries plus the benchmark
driver in perfbench/src) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later calls only re-check the
build.  Build output goes to stderr.  The driver's stdout is passed through:
its last line is the result object {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver itself stops well inside this; the watchdog only catches a
# hang, so that the run still ends within the benchmark's 180 s.
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(out)  # configured from another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
