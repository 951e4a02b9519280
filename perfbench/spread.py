"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S]

Run from the root of an ooc2d checkout.  Makes untraced runs of one
workload with consecutive seeds and prints, for each end-to-end metric,
the median, the quartiles and the spread: the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread but that of
setup_s stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, check=True, timeout=200)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: run not correct: %r" % (seed, result))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in bench["end_to_end"]:
        name = metric["name"]
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        print("%-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f"
              % (name, med, q1, q3, (q3 - q1) / med, metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
