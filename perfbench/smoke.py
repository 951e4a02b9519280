"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds S] [WORKLOAD ...]

Run from the root of an ooc2d checkout.  For each workload (all four by
default) it makes two traced runs with the same seed and checks that:

- both runs are correct and give the same output fingerprint;
- the exact counts search.nodes, constructs.blocks_out and
  catalog.entries_loaded repeat (their values are not pinned: a pruning
  change may legitimately move node counts);
- the per-layer self times plus bench.self_s add up to trace.pass_s.

It also checks that run.py fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from run import WORKLOADS
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXACT = ("search.nodes", "constructs.blocks_out", "catalog.entries_loaded")


def run(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"],
                          stdout=subprocess.PIPE, timeout=200)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, lines


def check_workload(workload: str, seconds: int) -> list:
    problems = []
    runs = []
    for _ in range(2):
        code, lines = run(workload, 1, seconds)
        if code != 0:
            return ["%s: run.py exited with %d" % (workload, code)]
        runs.append((json.loads(lines[-2])["record"], json.loads(lines[-1])))
    (rec_a, res_a), (rec_b, res_b) = runs
    for res in (res_a, res_b):
        if not res["correct"] or res["failed"]:
            problems.append("%s: run not correct: %r" % (workload, res))
    if rec_a["fingerprint"] != rec_b["fingerprint"]:
        problems.append("%s: fingerprints differ: %s %s"
                        % (workload, rec_a["fingerprint"], rec_b["fingerprint"]))
    ma, mb = res_a["metrics"], res_b["metrics"]
    for name in EXACT:
        if ma[name]["value"] != mb[name]["value"]:
            problems.append("%s: %s differs: %r %r"
                            % (workload, name, ma[name]["value"], mb[name]["value"]))
    accounted = sum(ma[layer + ".self_s"]["value"] for layer in LAYERS) \
        + ma["bench.self_s"]["value"]
    total = ma["trace.pass_s"]["value"]
    if abs(accounted - total) > 1e-6 * total:
        problems.append("%s: self times add up to %.6f s of the %.6f s traced pass"
                        % (workload, accounted, total))
    print("%s: fingerprint %s, %s" % (workload, rec_a["fingerprint"][:16], ", ".join(
        "%s=%s" % (name, ma[name]["value"]) for name in EXACT)))
    return problems


def check_isolated(root: str) -> list:
    """run.py in a directory without the library must fail, printing
    no result."""
    bare = os.path.join(HERE, ".work", "isolated")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                               "--workload", "construct", "--seed", "1", "--seconds", "1"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or b'"correct"' in proc.stdout:
        return ["run.py succeeded in a directory without src/ooc2d"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    problems = check_isolated(os.getcwd())
    for workload in args.workloads:
        problems += check_workload(workload, args.seconds)
    for line in problems:
        print("FAIL %s" % line)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
