"""Correlation checks for constant-weight codes on a u x v grid.

correlation(a, b, r) counts positions where a overlaps b after b's
columns are rotated left by r.  A code is acceptable when every such
count stays at or below lambda, excluding the trivial case of a
codeword against itself at zero shift.

verify_ooc checks a whole code through an inverted index from grid
cells to (codeword, rotation) keys, so its work follows the point
pairs that actually meet rather than the n(n+1)/2 codeword pairs: a
pair that shares no cell at any rotation costs nothing.  The index
holds k * v entries per codeword.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Block, Code, CodewordMatrix, CyclicPacking, Point, make_packing


@dataclass(frozen=True)
class CorrelationReport:
    ok: bool
    worst_value: int
    # ((index_a, index_b), r) of the first violation in scan order,
    # or None when the code is clean
    witness: tuple | None


def correlation(a: CodewordMatrix, b: CodewordMatrix, r: int) -> int:
    """Sum over all cells of a[i][j] * b[i][(j + r) mod v]."""
    if (a.u, a.v) != (b.u, b.v):
        raise ValueError("matrices have different shapes")
    v = a.v
    total = 0
    for i in range(a.u):
        ra, rb = a.bits[i], b.bits[i]
        for j in range(v):
            total += ra[j] * rb[(j + r) % v]
    return total


def block_to_matrix(block: Block, u: int, v: int) -> CodewordMatrix:
    grid = [[0] * v for _ in range(u)]
    for p in block:
        if not (0 <= p.row < u and 0 <= p.col < v):
            raise ValueError("point %r outside %dx%d grid" % (p, u, v))
        if grid[p.row][p.col]:
            raise ValueError("duplicate point %r" % (p,))
        grid[p.row][p.col] = 1
    return CodewordMatrix(u=u, v=v, bits=tuple(tuple(row) for row in grid))


def matrix_to_block(m: CodewordMatrix) -> Block:
    return tuple(Point(i, j) for i in range(m.u) for j in range(m.v) if m.bits[i][j])


def verify_ooc(code: Code) -> CorrelationReport:
    """Check every codeword pair at every rotation.

    Only unordered pairs are scanned: correlation(A, B, r) equals
    correlation(B, A, v - r), so the ordered half is redundant.  The
    witness is the first violation in (index_a, index_b, r) order.

    The scan runs over an inverted index.  Cell i * v + j lists the
    keys ib * v + r of every codeword ib that, rotated by r, has a
    point there: (i, (j + r) % v) is in block ib.  Codewords are
    visited from last to first, each adding its v rotations to the
    index before it looks up its own k cells, so the index holds the
    codewords ib >= ia and key ib * v + r is hit correlation(A, B, r)
    times.  Key ia * v, the codeword against itself at zero shift, is
    dropped.  The cost is the k * v * n index entries plus one step per
    hit; keys order as (index_b, r), so the least key over lambda of
    the last codeword visited that has one is the witness.
    """
    u, v = code.u, code.v
    lam = code.lam
    index: list = [[] for _ in range(u * v)]
    worst = 0
    witness = None
    for ia in range(len(code.codewords) - 1, -1, -1):
        base = ia * v
        cells = []
        for i, bits in enumerate(code.codewords[ia].bits):
            row = i * v
            for j, bit in enumerate(bits):
                if bit:
                    cells.append(row + j)
                    for col in range(v):
                        index[row + col].append(base + (j - col) % v)
        hits = Counter()
        for cell in cells:
            hits.update(index[cell])
        del hits[base]
        top = max(hits.values(), default=0)
        worst = max(worst, top)
        if top > lam:
            key = min(key for key, value in hits.items() if value > lam)
            witness = ((ia, key // v), key % v)
    return CorrelationReport(ok=worst <= lam, worst_value=worst, witness=witness)


def packing_to_code(p: CyclicPacking) -> Code:
    """Read each base block as a codeword matrix.  Needs t >= 2 so the
    correlation bound t - 1 is a valid lambda."""
    if p.t < 2:
        raise ValueError("packing with t=%d has no code counterpart" % p.t)
    mats = tuple(block_to_matrix(b, p.u, p.v) for b in p.base_blocks)
    return Code(u=p.u, v=p.v, k=p.k, lam=p.t - 1, codewords=mats)


def code_to_packing(c: Code) -> CyclicPacking:
    blocks = [matrix_to_block(m) for m in c.codewords]
    return make_packing(c.u, c.v, c.k, c.lam + 1, blocks)
