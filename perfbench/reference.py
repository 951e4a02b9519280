"""Reference kernel: a fixed pure-Python job that uses no ooc2d code.

The machines this benchmark runs on are shared, and their speed drifts
by a quarter or more over minutes.  Timing this kernel around every pass
and every set-up measures the speed of the moment, and the benchmark
reports its times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

On a machine where the kernel takes REFERENCE_S, reference seconds are
wall seconds.  Changes to ooc2d cannot move the kernel, so a change
that slows the library still shows in full.  The kernel mixes what the
library does most: sorting small tuples, taking combinations and
counting them in a dict, and integer arithmetic.
"""

from __future__ import annotations

import random
import statistics
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.01

_rng = random.Random(0)
_BLOCKS = [tuple(sorted(_rng.sample(range(40), 4))) for _ in range(150)]


def kernel_s() -> float:
    """Time of one run of the kernel: 10 to 15 ms on a shared 2 GHz
    Xeon virtual machine with Python 3.11."""
    start = perf_counter()
    counts: dict = {}
    for block in _BLOCKS:
        for d in range(8):
            image = tuple(sorted((x + d) % 40 for x in block))
            for sub in combinations(image, 3):
                counts[sub] = counts.get(sub, 0) + 1
    total = 0
    for i in range(100_000):
        total += i * i
    return perf_counter() - start


def speed_sample(runs: int = 3) -> float:
    """Median kernel time over a few runs."""
    return statistics.median(kernel_s() for _ in range(runs))
