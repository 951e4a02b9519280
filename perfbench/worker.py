"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--index I]
        --seconds S --trace 0|1 --t0 EPOCH --workdir DIR [--setup-only]

Imports ooc2d, builds the workload's inputs from the seed and reports
the set-up time, counted from EPOCH (the parent's clock reading just
before it started this process).  Unless --setup-only, it then runs
passes over the workload for about S seconds: untraced passes, and with
--trace 1 traced passes after them.  Prints one JSON object on stdout.
Run by perfbench/run.py with PYTHONPATH pointing at src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter

import reference
import tracing
import workloads


# The reference kernel is timed before an operation when this long has
# passed since it was last timed, and once after the pass.
SPEED_SAMPLE_EVERY_S = 0.2


def run_pass(ops: list, rng: random.Random, first_digests: dict) -> dict:
    """One pass over every operation, in a seeded random order.  Only
    the operations' run calls are timed; checks follow the pass, and an
    output that differs from the first pass's is a failure.  Each
    operation's time is also given in reference seconds, scaled by the
    kernel times taken just before and just after it."""
    order = list(ops)
    rng.shuffle(order)
    gc.collect()
    times, outputs, speeds = {}, {}, []  # speeds: (index of next op, kernel seconds)
    sampled = float("-inf")
    for i, op in enumerate(order):
        if perf_counter() - sampled >= SPEED_SAMPLE_EVERY_S:
            speeds.append((i, reference.speed_sample()))
            sampled = perf_counter()
        start = perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            outputs[op.name] = exc
        times[op.name] = perf_counter() - start
    speeds.append((len(order), reference.speed_sample()))
    ref_times = {}
    for i, op in enumerate(order):
        before = max(k for k in speeds if k[0] <= i)[1]
        after = min(k for k in speeds if k[0] > i)[1]
        ref_times[op.name] = times[op.name] * reference.REFERENCE_S * 2 / (before + after)

    failures, digests, failed = [], {}, 0
    for op in order:
        out = outputs[op.name]
        if isinstance(out, Exception):
            bad, text = ["raised %r" % (out,)], "error %r" % (out,)
        else:
            bad, text = op.check(out)
        digests[op.name] = hashlib.sha256(text.encode()).hexdigest()
        if first_digests and first_digests.get(op.name) != digests[op.name]:
            bad = bad + ["output differs from the first pass"]
        failed += bool(bad)
        failures.extend("%s: %s" % (op.name, msg) for msg in bad)
    slowest = max(ref_times, key=ref_times.get)
    fingerprint = hashlib.sha256("".join(
        "%s %s\n" % (name, digests[name]) for name in sorted(digests)).encode()).hexdigest()
    return {"pass_s": sum(times.values()), "ref_pass_s": sum(ref_times.values()),
            "slowest": [slowest, times[slowest], ref_times[slowest]],
            "kernel_s": statistics.median(k for _, k in speeds),
            "attempted": len(order), "failed": failed, "failures": failures,
            "fingerprint": fingerprint, "digests": digests}


def run_passes(ops: list, rng: random.Random, budget_s: float, first_digests: dict,
               after_pass=None) -> list:
    """Passes until another one would overrun budget_s; at least one.
    Fills first_digests from the first pass if it is empty."""
    start = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops, rng, first_digests))
        if after_pass:
            after_pass(passes[-1])
        if not first_digests:
            first_digests.update(passes[0]["digests"])
        typical = statistics.median(p["pass_s"] for p in passes)
        if perf_counter() - start + typical > budget_s:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0,
                    help="which of the run's measuring processes this is")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.make(args.workload)
    workload.setup(args.seed, args.workdir)
    setup_s = time.time() - args.t0
    setup_kernel_s = reference.speed_sample(5)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "kernel_s": setup_kernel_s}))
        return 0

    ops = workload.ops()
    rng = random.Random("%d/%d" % (args.seed, args.index))
    digests: dict = {}
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    start = perf_counter()
    passes = run_passes(ops, rng, untraced_budget, digests)
    result = {"setup_s": setup_s, "kernel_s": setup_kernel_s, "passes": passes,
              "traced_passes": [], "layers": None}

    if args.trace:
        # time orbit enumeration alone, before any wrapper is installed
        searching = isinstance(workload, workloads.SearchWorkload)
        enumerate_s = {}
        for grid in workload.grids if searching else ():
            samples = []
            for _ in range(3):
                t = perf_counter()
                workload.probe(grid)
                samples.append(perf_counter() - t)
            enumerate_s[grid] = statistics.median(samples)
        tracer = tracing.Tracer()
        spans = []
        tracer.install(workloads.MODULES)
        try:
            tracer.take()
            traced = run_passes(ops, rng, args.seconds - (perf_counter() - start), digests,
                                after_pass=lambda _: spans.append(tracer.take()))
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(spans, [p["pass_s"] for p in traced], enumerate_s,
                                       workload.caps if searching else {})
        layers["trace.overhead_ratio"] = (statistics.median(p["ref_pass_s"] for p in traced)
                                          / statistics.median(p["ref_pass_s"] for p in passes))
        result["traced_passes"] = traced
        result["layers"] = layers

    for p in result["passes"] + result["traced_passes"]:
        del p["digests"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
