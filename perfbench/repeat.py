#!/usr/bin/env python3
"""Run one workload N times, each with another seed, and summarise.

Run from the repository root:

    python3 perfbench/repeat.py --workload family-sweep --runs 10

For every metric it prints the median, the first and third quartiles
(Python's `statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median. A run that
fails or prints `correct: false` stops the summary with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {out.returncode})")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {units[name]:8} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
