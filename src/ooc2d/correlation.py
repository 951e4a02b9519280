"""Correlation checks for constant-weight codes on a u x v grid.

correlation(a, b, r) counts positions where a overlaps b after b's
columns are rotated left by r.  A code is acceptable when every such
count stays at or below lambda, excluding the trivial case of a
codeword against itself at zero shift.

verify_ooc checks a whole code on the integer cover-count kernel of
core.  Codeword a rotated by r is a block of grid codes, its key; two
keys (a, ra), (b, rb) meet in correlation(A, B, ra - rb) cells, so the
code is acceptable exactly when no (lambda + 1)-subset of cells lies in
two keys.  That is a count of v * n * C(k, lambda + 1) subsets for n
codewords of weight k, and a clean code counts none twice.  A short
cascade of such counts at other subset sizes gives the worst
correlation, and only a failing code pays one more pass to name its
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (Block, Code, CodewordMatrix, CyclicPacking, _block_codes, _cells_matrix,
                   _cover_counts, _grid_block, _image, _kept, _packing)


@dataclass(frozen=True)
class CorrelationReport:
    ok: bool
    worst_value: int
    # the least violating ((index_a, index_b), r) with index_a <= index_b,
    # or None when the code is clean
    witness: tuple | None


def correlation(a: CodewordMatrix, b: CodewordMatrix, r: int) -> int:
    """Sum over all cells of a[i][j] * b[i][(j + r) mod v]."""
    if (a.u, a.v) != (b.u, b.v):
        raise ValueError("matrices have different shapes")
    v = a.v
    total = 0
    for ra, rb in zip(a.bits, b.bits):
        for j in range(v):
            total += ra[j] * rb[(j + r) % v]
    return total


def block_to_matrix(block: Block, u: int, v: int) -> CodewordMatrix:
    """The u x v matrix whose ones are block's points, refused as
    make_packing refuses a block, or with a point below the grid."""
    codes = _block_codes(block, v)
    if codes[-1] >= u * v:
        raise ValueError("point %r outside %dx%d grid"
                         % (_grid_block([e for e in codes if e >= u * v], v)[0], u, v))
    return _cells_matrix(codes, u, v)


def matrix_to_block(m: CodewordMatrix) -> Block:
    return _grid_block(m.cells, m.v)


@_kept
def verify_ooc(code: Code) -> CorrelationReport:
    """Check every codeword pair at every rotation as a cover count.

    Every codeword is developed over all v rotations, one key per
    (codeword, rotation) pair: short periods and repeated codewords are
    not merged, so they clash like any other pair.  Keys (a, ra) and
    (b, rb) share an m-subset of cells exactly when correlation(A, B,
    ra - rb) >= m, so the code is acceptable when no (lambda + 1)-subset
    is counted twice.  worst_value is the largest m whose m-subsets
    clash: a failing code walks up from lambda + 1, a clean one down
    from lambda, stopping at 0.  Each level counts v * n * C(k, m)
    subsets.

    Only a failing code pays for the witness: one more pass lists the
    keys holding each (lambda + 1)-subset, and every two keys (a, ra) <
    (b, rb) of a list name the violation ((a, b), (ra - rb) mod v).  The
    witness is the least of them.  A codeword clashing with itself at
    shift r clashes at v - r too, and both appear among its key pairs,
    so the least r of the pair (a, a) is found without folding r onto
    v - r.
    """
    v, k, lam = code.v, code.k, code.lam
    keys = [_image(m.cells, r, v) for m in code.codewords for r in range(v)]

    def clash(m: int) -> bool:
        return len(_cover_counts(keys, m)) < len(keys) * comb(k, m)

    if not clash(lam + 1):
        worst = lam
        while worst and not clash(worst):
            worst -= 1
        return CorrelationReport(ok=True, worst_value=worst, witness=None)
    worst = lam + 1
    while worst < k and clash(worst + 1):
        worst += 1
    holders: dict = {}
    for key, cells in enumerate(keys):
        for sub in combinations(cells, lam + 1):
            holders.setdefault(sub, []).append(key)
    witness = min(_violation(x, y, v) for held in holders.values() if len(held) > 1
                  for x, y in combinations(held, 2))
    return CorrelationReport(ok=False, worst_value=worst, witness=witness)


def _violation(x: int, y: int, v: int) -> tuple:
    """((a, b), r) for keys x = a * v + ra < y = b * v + rb."""
    (a, ra), (b, rb) = divmod(x, v), divmod(y, v)
    return (a, b), (ra - rb) % v


def packing_to_code(p: CyclicPacking) -> Code:
    """Read each base block as a codeword matrix.  Needs t >= 2 so the
    correlation bound t - 1 is a valid lambda.  Each matrix is built
    from the grid codes CyclicPacking checked, not from its Points."""
    if p.t < 2:
        raise ValueError("packing with t=%d has no code counterpart" % p.t)
    mats = tuple(_cells_matrix(codes, p.u, p.v) for codes in p._codes)
    return Code(u=p.u, v=p.v, k=p.k, lam=p.t - 1, codewords=mats)


def code_to_packing(c: Code) -> CyclicPacking:
    """The packing whose base blocks are the codewords' canonical
    images, built once from their cells: each codeword's orbit is taken
    once, and its Points are made only for the finished packing."""
    return _packing(c.u, c.v, c.k, c.lam + 1, [m.cells for m in c.codewords])
