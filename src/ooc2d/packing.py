"""Verification of column-cyclic t-wise packings.

A packing is valid when no t-subset of grid points appears in more
than one developed block.  It is strictly cyclic when every base block
has a trivial stabilizer, i.e. every orbit has full length v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import CyclicPacking, _cover_counts, _develop, _grid_block, _kept


@dataclass(frozen=True)
class PackingReport:
    valid: bool
    strictly_cyclic: bool
    orbit_lengths: tuple
    leave_size: int
    # (t_subset, count) for the lexicographically least over-covered
    # t-subset, or None when valid
    violation: tuple | None


def _developed(p: CyclicPacking) -> list:
    """Every developed block as codes, orbit by orbit in shift order, by
    core._develop from the codes CyclicPacking checked: base blocks are
    distinct canonical representatives, so no orbits clash."""
    return _develop(p._codes, p.v)[0]


def develop(p: CyclicPacking) -> list:
    """All distinct developed blocks, orbit by orbit in base order."""
    return [_grid_block(img, p.v) for img in _developed(p)]


@_kept
def verify_packing(p: CyclicPacking) -> PackingReport:
    counts = _cover_counts(_developed(p), p.t)
    violation = None
    if sum(counts.values()) != len(counts):
        sub = min(sub for sub, c in counts.items() if c > 1)
        violation = (_grid_block(sub, p.v), counts[sub])
    return PackingReport(
        valid=violation is None,
        strictly_cyclic=all(s == 1 for s in p._stabs),
        orbit_lengths=tuple(p.v // s for s in p._stabs),
        leave_size=comb(p.u * p.v, p.t) - len(counts),
        violation=violation,
    )


def leave(p: CyclicPacking) -> list:
    """Sorted list of t-subsets covered by no developed block."""
    images = _developed(p)
    covered = _cover_counts(images, p.t)
    if sum(covered.values()) != len(covered):
        raise ValueError("leave is only defined for valid packings, found %r"
                         % (verify_packing(p).violation,))
    missing = [_grid_block(sub, p.v) for sub in combinations(range(p.u * p.v), p.t)
               if sub not in covered]
    expected = comb(p.u * p.v, p.t) - len(images) * comb(p.k, p.t)
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
