#!/usr/bin/env python3
"""The one command of the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload small_tiers --seed 1 --seconds 20 --trace 0

Builds the benchmark and the libraries it links from this checkout's
sources (Release, in .bench_build/e2ebench), runs the benchmark's self-tests,
then runs the workload.  The last line of standard output is the result
JSON.  Build output and diagnostics go to standard error.  Exits non-zero
without a result when the build, a self-test or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("small_tiers", "large_exact", "learn_canary")


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on any failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs,
           "--target", "trident_e2e", "e2e_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "e2e_selftest"), "--gtest_brief=1"],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        log("self-tests failed")
        return 1
    run = subprocess.run(
        [os.path.join(BUILD, "trident_e2e"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace),
         "--out-dir", os.path.join(ROOT, ".e2ebench_out")],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        log(f"run failed with exit code {run.returncode}")
        return run.returncode or 1
    # A result with "correct": false still prints, with the run's non-zero code.
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
