#!/usr/bin/env python3
"""Steadiness command: runs one workload N times, each with another seed,
and prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload explore --runs 10 \
        [--first-seed 1] [--seconds S] [--trace 0|1]

The spread is (q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4); it is printed beside the metric's bound in
BENCHMARK.json, which every spread but setup_s's must stay within. Each run's
result line is echoed; a run with incorrect outputs stops the command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, failed_shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print("seed %d: %s" % (seed, json.dumps(result)), flush=True)
        if not result["correct"]:
            sys.exit("seed %d: incorrect outputs" % seed)
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("\n%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, median, q1, q3, spread,
               "-" if bound is None else bound))
    print("failed share per run: %s" % sorted(set(failed_shares)))


if __name__ == "__main__":
    main()
