#!/usr/bin/env python3
"""Run the benchmark on consecutive seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads snapshot,series,ingest]
        [--runs 10] [--first-seed 1]

Run from the root of a checkout. For every workload, runs perfbench/run.py
untraced once per seed (first-seed .. first-seed + runs - 1) with
BENCHMARK.json's run_seconds, then prints, per metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, plus the runs' wall time and the share of failed ops.
These are the figures the README's reference table records.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="snapshot,series,ingest")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    for workload in args.workloads.split(","):
        values = {}
        attempted = failed = 0
        start = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            if proc.returncode != 0:
                sys.exit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(result)),
                  file=sys.stderr)
        print("%s: %d runs in %.0f s, %d ops, failed share %.4f" %
              (workload, args.runs, time.monotonic() - start, attempted,
               failed / attempted))
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print("  %-28s median %12.6g  Q1 %12.6g  Q3 %12.6g  spread %.4f" %
                  (name, med, q1, q3, (q3 - q1) / med if med else 0.0))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
