"""Verification of column-cyclic t-wise packings.

A packing is valid when no t-subset of grid points appears in more
than one developed block.  It is strictly cyclic when every base block
has a trivial stabilizer, i.e. every orbit has full length v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import CyclicPacking, Point, shift, stabilizer_order


@dataclass(frozen=True)
class PackingReport:
    valid: bool
    strictly_cyclic: bool
    orbit_lengths: tuple
    leave_size: int
    # (t_subset, count) for the lexicographically least over-covered
    # t-subset, or None when valid
    violation: tuple | None


def develop(p: CyclicPacking) -> list:
    """All distinct developed blocks, orbit by orbit in base order."""
    out = []
    for b in p.base_blocks:
        seen = set()
        for d in range(p.v):
            img = shift(b, d, p.v)
            if img not in seen:
                seen.add(img)
                out.append(img)
    return out


def verify_packing(p: CyclicPacking) -> PackingReport:
    lengths = tuple(p.v // stabilizer_order(b, p.v) for b in p.base_blocks)
    counts: dict = {}
    for block in develop(p):
        for sub in combinations(block, p.t):
            counts[sub] = counts.get(sub, 0) + 1
    bad = sorted(sub for sub, c in counts.items() if c > 1)
    violation = (bad[0], counts[bad[0]]) if bad else None
    leave_size = comb(p.u * p.v, p.t) - len(counts)
    return PackingReport(
        valid=not bad,
        strictly_cyclic=all(n == p.v for n in lengths),
        orbit_lengths=lengths,
        leave_size=leave_size,
        violation=violation,
    )


def leave(p: CyclicPacking) -> list:
    """Sorted list of t-subsets covered by no developed block."""
    report = verify_packing(p)
    if not report.valid:
        raise ValueError("leave is only defined for valid packings, found %r"
                         % (report.violation,))
    covered = set()
    developed = develop(p)
    for block in developed:
        covered.update(combinations(block, p.t))
    points = [Point(i, j) for i in range(p.u) for j in range(p.v)]
    missing = [sub for sub in combinations(sorted(points), p.t) if sub not in covered]
    expected = comb(p.u * p.v, p.t) - len(developed) * comb(p.k, p.t)
    if len(missing) != expected:
        raise AssertionError("leave has %d t-subsets, expected %d" % (len(missing), expected))
    return missing


def is_perfect(p: CyclicPacking) -> bool:
    """Valid, strictly cyclic, and empty leave."""
    report = verify_packing(p)
    perfect = report.valid and report.strictly_cyclic and report.leave_size == 0
    if perfect and (p.k, p.t) == (4, 3):
        n = p.u * p.v
        if p.num_base_blocks * 24 != p.u * (n - 1) * (n - 2):
            raise AssertionError("perfect packing with %d base blocks breaks the count"
                                 % p.num_base_blocks)
    return perfect
