"""Benchmark runner for ooc2d.

    python3 perfbench/run.py --workload {search,prove,construct,verify}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs alone in
fresh single-threaded processes (perfbench/worker.py) that import
ooc2d from src/.  Set-up is measured in several fresh processes and
reported as the median; one further process then measures passes for
about S seconds.  The second-to-last line of output is a JSON record of
the run (environment, fingerprint, every pass, every failure); the last
line is the result: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search", "prove", "construct", "verify")
# Fresh processes per untraced run.  Set-up-only processes come first,
# and the first of them only warms the bytecode cache.  The measuring
# processes split the run's time: the speed of one process's pass
# depends on its memory layout, so passes from several are pooled.
SETUP_ONLY_PROCESSES = 3
MEASURING_PROCESSES = 3
DEADLINE_S = 170



def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def start_child(root: str, workdir: str, args, deadline: float, seconds: float = 0,
                index: int = 0, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # imports read cached bytecode, as an installed package would; the
    # first set-up-only process writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    # subprocess.run kills the child on timeout and waits for it
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(root: str, args) -> tuple:
    """Set-up-only processes, then the measuring processes, one at a
    time.  Returns (every set-up sample, every measuring result)."""
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, ".work", "run-%d" % os.getpid())
    processes = 1 if args.trace else MEASURING_PROCESSES
    try:
        setups = [start_child(root, os.path.join(work, "setup-%d" % i), args, deadline,
                              setup_only=True)
                  for i in range(SETUP_ONLY_PROCESSES)][1:]
        results = []
        start = time.monotonic()
        for i in range(processes):
            # spread what is left of the measuring time over the processes still to run
            budget = (args.seconds - (time.monotonic() - start)) / (processes - i)
            results.append(start_child(root, os.path.join(work, "measure-%d" % i), args,
                                       deadline, budget, index=i))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is using it
            pass
    return setups + results, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ooc2d", "__init__.py")):
        print("run.py: no src/ooc2d under %s; run it from the root of an ooc2d checkout"
              % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        setups, results = measure(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("run.py: %s" % (exc,), file=sys.stderr)
        return 1

    untraced = [p for r in results for p in r["passes"]]
    traced = [p for r in results for p in r["traced_passes"]]
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    fingerprints = sorted({p["fingerprint"] for p in passes})
    for line in failures:
        print("FAILED %s" % line, file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(root),
            "isolation": "workload ran alone, one single-threaded process at a time: "
                         "%d set-up-only processes, then %d measuring processes"
                         % (SETUP_ONLY_PROCESSES, len(results)),
        },
        "passes": [len(r["passes"]) for r in results],
        "traced_passes": len(traced),
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "reference_s": reference.REFERENCE_S,
        "setup_s": [s["setup_s"] for s in setups],
        "setup_kernel_s": [s["kernel_s"] for s in setups],
        "pass_s": [p["pass_s"] for p in untraced],
        "pass_kernel_s": [p["kernel_s"] for p in untraced],
        "ref_pass_s": [p["ref_pass_s"] for p in untraced],
        "slowest_op": [p["slowest"] for p in untraced],
        "traced_pass_s": [p["pass_s"] for p in traced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    if args.trace:
        values = results[0]["layers"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] * reference.REFERENCE_S / s["kernel_s"]
                                         for s in setups),
            "pass_s": statistics.median(p["ref_pass_s"] for p in untraced),
            "slowest_op_s": statistics.median(p["slowest"][2] for p in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and len(fingerprints) == 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
