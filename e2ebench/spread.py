#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload large_exact --seeds 1-10 [--seconds S]

Runs run.py once per seed (untraced) and prints, per end-to-end metric, the
median of the runs and the interquartile range as a share of that median
(statistics.quantiles(n=4)) beside the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged.  Exits non-zero if any run
fails or reports "correct": false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = run.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if run.returncode or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {run.returncode})")
            return 1
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':<18} {'median':>14} {'IQR/median':>11} {'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, float("nan"))
        flag = "  above bound/3" if share > bound / 3 else ""
        print(f"{name:<18} {med:>14.6g} {share:>11.4f} {bound:>7.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
