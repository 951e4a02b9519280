"""Basic objects: grid points, base blocks, cyclic packings, codes.

Points live on a u x v grid.  The group Z_v acts on the grid by adding
1 to the column index modulo v, row indices never move.  A base block
is the chosen representative of its orbit under that action: the
lexicographically least among the v column shifts, with points sorted.

All orbit and cover work runs on one private integer kernel.  Each
universe codes its points 0 .. N-1 in lexicographic order, so sorted
codes decode to sorted points: grid (row, col) -> row * v + col; cyclic
fan (x, y, j) -> (off[x] + y) * h + j, off[x] being the fibre rows of
the earlier groups; H design (x, y, j) -> (x * l + y) * h + j;
rotational quadruple system INF -> 0, x -> x + 1; a design's code of a
point is its index in the design's points().  A design encodes its own
blocks once, when it is built, and keeps each family's sorted codes for
its verifier and the constructions.  Z_P moves code e by d
to e - e % P + (e % P + d) % P.  The canonical image and the stabilizer
come from at most k shifts, those taking a least-row point to 0.  A
cover check counts the covered t-subsets once and passes when none is
counted twice, none wanting 0 is counted, and as many are counted as
the closed form says want 1; only a failure walks all C(N, t) subsets
in order to name the first miscounted one.

Every entry point for a block of grid points takes its codes from one
check, _block_codes: a non-integral or bool coordinate, a repeated
point and a point out of range for the period get one text wherever
the block enters, and 1.0 is read as 1.

A u x v codeword matrix is kept as the sorted grid codes i * v + j of
its ones (CodewordMatrix.cells) and rebuilds its rows only when asked,
so codes reach the same kernel: a codeword rotated by r is its cells'
image under Z_v, and a code's correlation is a cover count of its
developed codewords.  A CyclicPacking is built from its codes once:
make_packing, code_to_packing, the constructions and the search witness
take each orbit once, check the canonical images on ints and decode
them with one Point per distinct code.  It keeps the checked codes and
stabilizer orders; every orbit, a packing's too, is developed by _develop.

A verifier's report is computed once per object and kept beside its
codes (_kept): the constructions, the catalog and the command line ask
again for free, and an object read back from a file is a new object,
checked from scratch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import chain, combinations, compress, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple


class Point(NamedTuple):
    row: int
    col: int


Block = tuple  # tuple[Point, ...], sorted ascending


def as_block(points: Iterable) -> Block:
    """The sorted Points of (row, col) pairs, refusing a repeated point, a
    bool and a coordinate that int() would change, such as 1.9 or "1"."""
    raw = [(r, c) for r, c in points]
    bad = [x for p in raw for x in p if type(x) is not int and (type(x) is bool or int(x) != x)]
    if bad:
        raise ValueError("block %r has a non-integral coordinate %r" % (raw, bad[0]))
    pts = tuple(sorted([Point(int(r), int(c)) for r, c in raw]))
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point in block: %r" % (pts,))
    return pts


def _check_ints(**params) -> None:
    """Refuse a parameter that is not an int, a float or a bool included,
    with the text the file reader gives."""
    for name, x in params.items():
        if type(x) is not int:
            raise ValueError("parameter %r must be an integer, got %r" % (name, x))


def _check_grid(u: int, v: int) -> None:
    _check_ints(u=u, v=v)
    if u < 1 or v < 1:
        raise ValueError("grid dimensions must be positive")


def _check_params(u: int, v: int, k: int, lam: int) -> None:
    _check_grid(u, v)
    _check_ints(k=k, **{"lambda": lam})
    if lam < 1 or k <= lam:
        raise ValueError("need k > lambda >= 1")


def _check_t(k: int, t: int) -> None:
    _check_ints(k=k, t=t)
    if not (1 <= t <= k):
        raise ValueError("need 1 <= t <= k, got t=%d k=%d" % (t, k))


def _image(codes: tuple, delta: int, period: int) -> tuple:
    """Sorted codes moved by delta under Z_period."""
    if not delta % period:
        return codes
    return tuple(sorted([e - e % period + (e % period + delta) % period for e in codes]))


def _orbit(codes: tuple, period: int) -> tuple:
    """(least image, stabilizer order) of sorted codes.  The candidates move
    a least-row point to 0: the least image is one of them, and the shifts
    fixing the block are the differences of candidates with equal images."""
    if not codes or period == 1:
        return codes, period
    row = codes[0] - codes[0] % period
    images = [_image(codes, row - e, period) for e in codes if e - row < period]
    return min(images), images.count(images[0])


def _develop(blocks, period: int) -> tuple:
    """(images, stabilizer orders, clash) for sorted blocks of codes: each
    block's shifts until an image repeats, the block itself after L shifts
    (stabilizer period // L) or an earlier orbit's image (clash, else None)."""
    images, seen, stabs = [], set(), []
    for codes in blocks:
        img, d = codes, 0
        while img not in seen:
            seen.add(img)
            images.append(img)
            d += 1
            img = _image(codes, d, period)
        if not d or img != codes:  # only a clashing block asks _orbit
            stabs.append(_orbit(codes, period)[1])
            return images, stabs, img
        stabs.append(period // d)
    return images, stabs, None


def _cover_counts(blocks, t: int) -> Counter:
    return Counter(chain.from_iterable(combinations(b, t) for b in blocks))


def _cover_miss(counts: Counter, n: int, t: int, want, n_want: int, strays: bool = False):
    """None when counts cover each t-subset of range(n) want(sub) in
    {0, 1} times, n_want of them wanting 1, else the first (sub, got,
    wanted) in order.  strays says a block covers a subset wanting 0."""
    if not strays and len(counts) == n_want == sum(counts.values()):
        return None
    for sub in combinations(range(n), t):
        got, wanted = counts.get(sub, 0), want(sub)
        if got != wanted:
            return sub, got, wanted
    raise AssertionError("cover count failed but every %d-subset has its count" % t)


def _grid_block(codes, v: int) -> Block:
    return tuple([Point._make(divmod(e, v)) for e in codes])


def _set(obj, **fields):
    """obj with its frozen fields set: every target is a dataclass
    without slots, whose fields live in its __dict__."""
    vars(obj).update(fields)
    return obj


def _kept(verify):
    """verify(obj), computed once per object: the first report is kept
    on obj and every later call returns it.  Sound because the objects
    are frozen and every other _set write happens while one is built,
    so nothing a report reads changes once an object is checked;
    dataclasses.replace and every file read build a new object, checked
    from scratch.  The reports sit beside _codes and _stabs, not
    fields, so ==, repr, hash and design_json ignore them."""
    name = verify.__name__

    @wraps(verify)
    def kept(obj):
        reports = vars(obj).setdefault("_reports", {})
        if name not in reports:
            reports[name] = verify(obj)
        return reports[name]
    return kept


def _block_codes(points, v: int) -> tuple:
    """Sorted grid codes of a block of (row, col) pairs, the one check of a
    block of grid points.  It refuses, in this order, what as_block
    refuses, no point, a period below 1, and a point with a row below 0
    or a column outside 0 .. v - 1, whose code would belong to another
    point.  Only a refused block or a float such as 1.0 walks its points."""
    points = tuple(points)
    codes = sorted([r * v + c for r, c in points
                    if type(r) is int is type(c) and r >= 0 and 0 <= c < v])
    if codes and len(codes) == len(points) == len(set(codes)):
        return tuple(codes)
    block = as_block(points)
    if not block:
        raise ValueError("cannot canonicalize an empty block")
    if v <= 0:
        raise ValueError("period v must be positive")
    for p in block:
        if p.row < 0 or not 0 <= p.col < v:
            raise ValueError("point %r out of range for period %d" % (p, v))
    return tuple([r * v + c for r, c in block])


def shift(block: Block, delta: int, v: int) -> Block:
    """Add delta to every column index modulo v and re-sort."""
    return _grid_block(_image(_block_codes(block, v), delta, v), v)


def canonicalize(block: Block, v: int) -> Block:
    """Lexicographically least among the v column shifts of the block."""
    return _grid_block(_orbit(_block_codes(block, v), v)[0], v)


def stabilizer_order(block: Block, v: int) -> int:
    """Order of the subgroup of Z_v fixing the block setwise."""
    return _orbit(_block_codes(block, v), v)[1]


def orbit(block: Block, v: int) -> list:
    """All distinct column shifts of the block, starting from the
    canonical representative."""
    images, _, _ = _develop([_orbit(_block_codes(block, v), v)[0]], v)
    return [_grid_block(img, v) for img in images]


@dataclass(frozen=True)
class CyclicPacking:
    """A set of base blocks on the u x v grid whose Z_v orbits form a
    t-wise packing candidate.  Construction only checks cheap shape
    invariants; run packing.verify_packing for the covering property.
    """

    u: int
    v: int
    k: int
    t: int
    base_blocks: tuple

    def __post_init__(self):
        _check_blocks(self)

    @property
    def num_base_blocks(self) -> int:
        return len(self.base_blocks)


def _check_blocks(p: CyclicPacking, orbits=None) -> None:
    """Check p's parameters, then each base block against its (canonical
    codes, stabilizer order) in orbits, else through _block_codes: k
    Points of ints on the grid, canonical, one block per orbit.  Keeps the
    codes and stabilizer orders for packing; not fields, so ==, repr
    and hash ignore them."""
    u, v, k = p.u, p.v, p.k
    _check_grid(u, v)
    _check_t(k, p.t)
    n, reps, stabs = u * v, {}, []  # reps: the canonical codes in block order
    for b, (rep, stab) in zip(p.base_blocks, repeat((None, None)) if orbits is None else orbits):
        if len(b) != k:
            raise ValueError("block %r has size %d, expected %d" % (b, len(b), k))
        if rep is None or rep[-1] >= n:  # the point by point walk names the first bad point
            codes = _block_codes(b, v)
            if not all(type(q) is Point and type(q.row) is type(q.col) is int for q in b):
                raise ValueError("block %r has a point that is not a Point of ints" % (b,))
            if codes[-1] >= n:
                raise ValueError("point %r outside %dx%d grid"
                                 % (next(q for q in b if q.row >= u), u, v))
            rep, stab = _orbit(codes, v)
            if tuple(b) != _grid_block(rep, v):
                raise ValueError("block %r is not the canonical representative %r"
                                 % (b, _grid_block(rep, v)))
        if rep in reps:
            raise ValueError("two base blocks share the orbit of %r" % (_grid_block(rep, v),))
        reps[rep] = None
        stabs.append(stab)
    _set(p, _codes=tuple(reps), _stabs=tuple(stabs))


def _packing(u: int, v: int, k: int, t: int, blocks) -> CyclicPacking:
    """The CyclicPacking of the canonical images of blocks, sorted tuples
    of non-negative grid codes: one _orbit per block, the checks on ints,
    and one Point per distinct code."""
    orbits = sorted([_orbit(codes, v) for codes in blocks], key=itemgetter(0))
    point = {e: Point._make(divmod(e, v)) for e in {e for rep, _ in orbits for e in rep}}
    p = _set(object.__new__(CyclicPacking), u=u, v=v, k=k, t=t, base_blocks=tuple(
        [tuple(map(point.__getitem__, rep)) for rep, _ in orbits]))
    _check_blocks(p, orbits)
    return p


def make_packing(u: int, v: int, k: int, t: int, blocks: Iterable) -> CyclicPacking:
    """Build a CyclicPacking from arbitrary orbit representatives.

    Each block is refused as _block_codes refuses it, and the packing
    is built once from the blocks' sorted grid codes: its base blocks
    are their canonical images, sorted, so equal packings compare equal
    whichever orbit representatives the caller picked.
    """
    return _packing(u, v, k, t, [_block_codes(b, v) for b in blocks])


@dataclass(frozen=True, init=False, repr=False)
class CodewordMatrix:
    """A u x v matrix over {0,1}, kept as the sorted grid codes
    i * v + j of its ones; _bit_rows rebuilds its u rows of v ints.
    The constructor accepts bits in one pass when the row count, every
    row length and the set of entries are right; only a refusal walks
    the rows, to name the first fault."""

    u: int
    v: int
    cells: tuple

    def __init__(self, u: int, v: int, bits: tuple):
        if len(bits) != u:
            raise ValueError("expected %d rows, got %d" % (u, len(bits)))
        try:
            flat = tuple(chain.from_iterable(bits))
            ok = set(map(len, bits)) <= {v} and {0, 1}.issuperset(flat)
        except TypeError:  # a row that is no sequence, or an unhashable entry
            ok = False
        if not ok:  # the row-by-row walk names the first fault
            for row in bits:
                if len(row) != v:
                    raise ValueError("expected %d columns, got %d" % (v, len(row)))
                for x in row:
                    if x not in (0, 1):
                        raise ValueError("matrix entries must be 0 or 1, got %r" % (x,))
            flat = tuple(chain.from_iterable(bits))
        _set(self, u=u, v=v, cells=tuple(compress(range(len(flat)), flat)))

    @property
    def bits(self) -> tuple:
        return tuple(map(tuple, _bit_rows(self)))

    @property
    def weight(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return "CodewordMatrix(u=%r, v=%r, bits=%r)" % (self.u, self.v, self.bits)


def _bit_rows(m: CodewordMatrix) -> list:
    """The u rows of v 0/1 entries of m, as lists, straight from its
    cells, for CodewordMatrix.bits and files.design_to_dict."""
    flat = [0] * (m.u * m.v)
    for e in m.cells:
        flat[e] = 1
    return [flat[i:i + m.v] for i in range(0, len(flat), m.v)]


def _cells_matrix(cells, u: int, v: int) -> CodewordMatrix:
    """The u x v matrix whose ones are the grid codes in cells, which
    must be distinct and in increasing order."""
    return _set(object.__new__(CodewordMatrix), u=u, v=v, cells=tuple(cells))


@dataclass(frozen=True)
class Code:
    """A family of u x v codeword matrices of constant weight k."""

    u: int
    v: int
    k: int
    lam: int
    codewords: tuple  # tuple[CodewordMatrix, ...]

    def __post_init__(self):
        _check_params(self.u, self.v, self.k, self.lam)
        if not set(map(type, self.codewords)) <= {CodewordMatrix}:
            i, m = next((i, m) for i, m in enumerate(self.codewords)
                        if type(m) is not CodewordMatrix)
            raise ValueError("codeword %d is not a CodewordMatrix: %r" % (i, m))
        for m in self.codewords:
            if (m.u, m.v) != (self.u, self.v):
                raise ValueError("codeword has shape %dx%d, expected %dx%d"
                                 % (m.u, m.v, self.u, self.v))
            if m.weight != self.k:
                raise ValueError("codeword weight %d, expected %d" % (m.weight, self.k))

    @property
    def size(self) -> int:
        return len(self.codewords)
