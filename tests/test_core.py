from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ooc2d.core import (Code, CodewordMatrix, CyclicPacking, Point, as_block,
                        canonicalize, make_packing, orbit, shift,
                        stabilizer_order)
from ooc2d.catalog import catalog_get
from ooc2d.correlation import block_to_matrix, code_to_packing, packing_to_code
from ooc2d.designs import INF, fan_shift, rosqs_shift


def random_block(rng, u, v, k):
    points = rng.sample([(r, c) for r in range(u) for c in range(v)], k)
    return as_block(points)


def test_shift_composes():
    b = as_block([(0, 0), (0, 2), (1, 5)])
    assert shift(shift(b, 3, 7), 4, 7) == b


def test_canonicalize_idempotent_and_shift_invariant():
    rng = random.Random(7)
    for _ in range(200):
        u = rng.randint(1, 4)
        v = rng.randint(1, 9)
        k = rng.randint(1, min(4, u * v))
        b = random_block(rng, u, v, k)
        c = canonicalize(b, v)
        assert canonicalize(c, v) == c
        d = rng.randrange(v)
        assert canonicalize(shift(b, d, v), v) == c


def test_canonical_is_least_in_orbit():
    rng = random.Random(8)
    for _ in range(100):
        v = rng.randint(1, 9)
        b = random_block(rng, 3, v, 3)
        assert canonicalize(b, v) == min(orbit(b, v))


def test_stabilizer_times_orbit_is_v():
    rng = random.Random(9)
    for _ in range(100):
        v = rng.choice([1, 2, 3, 4, 6, 8, 12])
        b = random_block(rng, 2, v, min(4, 2 * v))
        assert stabilizer_order(b, v) * len(orbit(b, v)) == v


def test_stabilizer_of_full_row_block():
    # a block using every column of one row is fixed by every shift
    b = as_block([(0, c) for c in range(4)])
    assert stabilizer_order(b, 4) == 4
    assert len(orbit(b, 4)) == 1


@pytest.mark.parametrize("op", [shift, canonicalize, stabilizer_order, orbit],
                         ids=["shift", "canonicalize", "stabilizer_order", "orbit"])
@pytest.mark.parametrize("block, v, message", [
    ((Point(0, 5), Point(1, 1)), 3, "point Point(row=0, col=5) out of range for period 3"),
    ((Point(-1, 0), Point(1, 1)), 3, "point Point(row=-1, col=0) out of range for period 3"),
    ((Point(0, 0), Point(1, 1)), 0, "period v must be positive"),
], ids=["column", "row", "period"])
def test_period_ops_refuse_points_outside_the_period(op, block, v, message):
    """a column outside Z_v would be coded as a point of another row:
    shift once moved (0, 5) to (1, 0), and a zero period divided by zero"""
    args = (block, 1, v) if op is shift else (block, v)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        op(*args)


def test_make_packing_canonicalizes():
    b = as_block([(0, 1), (0, 2), (1, 0), (1, 1)])
    p = make_packing(2, 4, 4, 3, [b])
    assert p.base_blocks[0] == canonicalize(b, 4)


def test_make_packing_rejects_orbit_duplicates():
    b = as_block([(0, 1), (0, 2), (1, 0), (1, 1)])
    with pytest.raises(ValueError):
        make_packing(2, 4, 4, 3, [b, shift(b, 2, 4)])


def test_packing_rejects_wrong_block_size():
    with pytest.raises(ValueError):
        CyclicPacking(u=2, v=3, k=4, t=3,
                      base_blocks=(as_block([(0, 0), (0, 1), (1, 0)]),))


@pytest.mark.parametrize("v", [1, 2, 3])
def test_packing_rejects_repeated_point(v):
    # codes (0, 0) would pass the canonical check, and verify_packing
    # would count the "pair" they form
    with pytest.raises(ValueError, match="duplicate point in block"):
        CyclicPacking(u=1, v=v, k=2, t=2, base_blocks=((Point(0, 0), Point(0, 0)),))


def test_packing_rejects_non_canonical_block():
    b = (Point(0, 1), Point(0, 2), Point(1, 0), Point(1, 1))
    message = ("block %r is not the canonical representative %r"
               % (b, (Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 3))))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        CyclicPacking(u=2, v=4, k=4, t=3, base_blocks=(b,))


@pytest.mark.parametrize("block, bad", [
    ([(0, 0), (0, 1), (1, 0), (1, 1.9)], "1.9"), ([(0, 0), (0, 1), (1, 0), ("1", 1)], "'1'"),
    ([(0, 0), (0, True), (1, 0), (1, 1)], "True"),
])
def test_make_packing_refuses_non_integral_coordinates(block, bad):
    # int() would truncate (1, 1.9) to Point(1, 1), or read True as 1, and build a packing
    message = "block %r has a non-integral coordinate %s" % (block, bad)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make_packing(2, 3, 4, 3, [block])
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        as_block(block)


def test_make_packing_takes_integral_floats():
    p = make_packing(2, 3, 4, 3, [[(0, 0), (0, 1.0), (1, 0), (1, 1)]])
    assert p == make_packing(2, 3, 4, 3, [[(0, 0), (0, 1), (1, 0), (1, 1)]])
    assert {type(x) for q in p.base_blocks[0] for x in q} == {int}


@pytest.mark.parametrize("block", [
    ((0, 0), (0, 1)), (Point(0, 0), (0, 1)), (Point(0, 0), Point(0, 1.0)),
])
def test_packing_refuses_blocks_of_non_points(block):
    message = "block %r has a point that is not a Point of ints" % (block,)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        CyclicPacking(u=2, v=2, k=2, t=2, base_blocks=(block,))


def test_packing_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_packing(2, 3, 4, 3, [as_block([(0, 0), (0, 1), (1, 0), (2, 0)])])


@pytest.mark.parametrize("block, message", [
    ([(0, 0), (0, 0), (0, 1), (1, 0)], "duplicate point in block: "),
    ([(0, 0), (0, 1), (0, 5), (1, 0)], "point Point(row=0, col=5) out of range for period 3"),
    ([(-1, 0), (0, 1), (1, 0), (1, 1)], "point Point(row=-1, col=0) out of range for period 3"),
    ([], "cannot canonicalize an empty block"),
])
def test_make_packing_refusals(block, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        make_packing(2, 3, 4, 3, [block])


@pytest.mark.parametrize("blocks, message", [
    ([[(0, 0), (0, 1), (2, 0)]],
     "block (Point(row=0, col=0), Point(row=0, col=1), Point(row=2, col=0)) has size 3, "
     "expected 4"),
    ([[(0, 1), (1, 0), (1, 2), (2, 2)], [(0, 2), (1, 0), (1, 1)]],
     "block (Point(row=0, col=0), Point(row=1, col=1), Point(row=1, col=2)) has size 3, "
     "expected 4"),
    ([[(1, 0), (1, 1), (1, 2)], [(0, 0), (0, 1), (1, 0), (2, 1)]],
     "point Point(row=2, col=1) outside 2x3 grid"),
    ([[(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 1), (0, 2), (1, 1), (1, 2)],
      [(1, 1), (0, 2), (1, 2)]],
     "two base blocks share the orbit of (Point(row=0, col=0), Point(row=0, col=1), "
     "Point(row=1, col=0), Point(row=1, col=1))"),
], ids=["size before range", "first bad block by size", "first bad block by range",
        "orbit before a later size"])
def test_make_packing_names_the_first_bad_block(blocks, message):
    """blocks are checked in their sorted canonical order, each for size,
    then range, then its orbit"""
    with pytest.raises(ValueError) as info:
        make_packing(2, 3, 4, 3, blocks)
    assert str(info.value) == message


def _outcome(build):
    """("built", packing, its repr, hash, codes and stabilizer orders),
    or ("refused", message) for a ValueError."""
    try:
        p = build()
    except ValueError as exc:
        return "refused", str(exc)
    return "built", p, repr(p), hash(p), p._codes, p._stabs


@st.composite
def packing_inputs(draw):
    """Small grids and random blocks: most have k distinct points on the
    grid, the rest another size, a repeated point, or a point one row or
    column past the grid.  Blocks often share an orbit."""
    u, v = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    k = draw(st.integers(1, min(4, u * v)))
    t = draw(st.integers(1, k + 1))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        size = k if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        rows = u if draw(st.integers(0, 3)) else u + 1
        cols = v if draw(st.integers(0, 7)) else v + 1
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        unique = draw(st.integers(0, 4)) > 0
        size = min(size, len(cells)) if unique else size
        blocks.append(draw(st.lists(st.sampled_from(cells), min_size=size, max_size=size,
                                    unique=unique)))
    return u, v, k, t, blocks


@settings(max_examples=400, deadline=None)
@given(packing_inputs())
def test_packing_from_codes_equals_public_constructor(args):
    """make_packing and code_to_packing build a packing from its codes
    once; the result, or the refusal, is the public constructor's on the
    sorted canonical blocks"""
    u, v, k, t, blocks = args
    want = _outcome(lambda: CyclicPacking(u=u, v=v, k=k, t=t, base_blocks=tuple(
        sorted(canonicalize(as_block(b), v) for b in blocks))))
    assert _outcome(lambda: make_packing(u, v, k, t, blocks)) == want
    if want[0] == "built" and t >= 2:
        assert _outcome(lambda: code_to_packing(packing_to_code(want[1]))) == want
    cells = [sorted({r * v + c for r, c in b if r < u and c < v}) for b in blocks]
    if 2 <= t <= k and all(len(c) == len(b) == k for c, b in zip(cells, blocks)):
        mats = tuple(CodewordMatrix(u=u, v=v, bits=tuple(
            tuple(int(i * v + j in c) for j in range(v)) for i in range(u))) for c in cells)
        code = Code(u=u, v=v, k=k, lam=t - 1, codewords=mats)
        assert _outcome(lambda: code_to_packing(code)) == want


def test_make_packing_on_a_huge_grid_returns_at_once():
    """nothing is sized by the grid or by the largest code"""
    block = [(999_999, 0), (999_999, 1), (999_999, 3), (999_999, 7)]
    start = time.perf_counter()
    p = make_packing(10**6, 10**6, 4, 3, [block])
    assert time.perf_counter() - start < 0.5
    assert p.base_blocks == (as_block(block),) and p._stabs == (1,)


def test_packing_rejects_bad_t():
    with pytest.raises(ValueError):
        make_packing(2, 3, 4, 5, [])


def test_code_rejects_wrong_weight():
    m = CodewordMatrix(u=2, v=3, bits=((1, 1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        Code(u=2, v=3, k=4, lam=2, codewords=(m,))


def test_code_rejects_wrong_shape():
    m = CodewordMatrix(u=1, v=3, bits=((1, 1, 1),))
    with pytest.raises(ValueError):
        Code(u=2, v=3, k=3, lam=2, codewords=(m,))


@pytest.mark.parametrize("codeword", [None, ((1, 1),), (0, 1)], ids=["None", "rows", "cells"])
def test_code_rejects_a_codeword_that_is_not_a_matrix(codeword):
    """a non-matrix codeword gave an AttributeError on its shape"""
    m = CodewordMatrix(u=1, v=2, bits=((1, 1),))
    with pytest.raises(ValueError) as info:
        Code(u=1, v=2, k=2, lam=1, codewords=(m, codeword))
    assert str(info.value) == "codeword 1 is not a CodewordMatrix: %r" % (codeword,)


def test_matrix_weight():
    m = CodewordMatrix(u=2, v=3, bits=((1, 0, 1), (0, 1, 1)))
    assert m.weight == 4


@pytest.mark.parametrize("u, bits, message", [
    (2, ((1, 2, 0), (1, 0)), "matrix entries must be 0 or 1, got 2"),
    (2, ((1, 0, 0), (1, 0), (0, 0, 0)), "expected 2 rows, got 3"),
    (2, ((1, 0, 0), (0, 1)), "expected 3 columns, got 2"),
    (2, ((1, [1], 0), (0, 0, 0)), "matrix entries must be 0 or 1, got [1]"),
    (1, (("1", 0, 0),), "matrix entries must be 0 or 1, got '1'"),
], ids=["entry before short row", "row count", "short row", "unhashable", "string"])
def test_matrix_refusals_name_the_first_fault(u, bits, message):
    """the one-pass accept leaves the row-by-row texts and their order
    as they were"""
    with pytest.raises(ValueError) as info:
        CodewordMatrix(u=u, v=3, bits=bits)
    assert str(info.value) == message


def test_matrix_accepts_true_and_float_entries():
    m = CodewordMatrix(u=2, v=3, bits=((True, 0, 1.0), (0.0, 1, False)))
    assert m == CodewordMatrix(u=2, v=3, bits=((1, 0, 1), (0, 1, 0)))
    assert m.cells == (0, 2, 4)


# every entry point for a block of grid points, on the 2x2 grid; the
# strict constructor is handed the block as Points
GRID_BLOCK_ENTRIES = {
    "shift": lambda b: shift(b, 1, 2),
    "canonicalize": lambda b: canonicalize(b, 2),
    "stabilizer_order": lambda b: stabilizer_order(b, 2),
    "orbit": lambda b: orbit(b, 2),
    "make_packing": lambda b: make_packing(2, 2, 2, 2, [b]),
    "CyclicPacking": lambda b: CyclicPacking(u=2, v=2, k=2, t=2,
                                             base_blocks=(tuple(map(Point._make, b)),)),
    "block_to_matrix": lambda b: block_to_matrix(b, 2, 2),
}


@pytest.mark.parametrize("entry", list(GRID_BLOCK_ENTRIES))
@pytest.mark.parametrize("block, message", [
    (((0, 0), (0, 1.5)), "block [(0, 0), (0, 1.5)] has a non-integral coordinate 1.5"),
    (((0, 0), (0, True)), "block [(0, 0), (0, True)] has a non-integral coordinate True"),
    (((0, 0), (0, "1")), "block [(0, 0), (0, '1')] has a non-integral coordinate '1'"),
    (((0, 1), (0, 1)),
     "duplicate point in block: (Point(row=0, col=1), Point(row=0, col=1))"),
], ids=["float", "bool", "str", "repeat"])
def test_grid_block_entry_points_refuse_as_make_packing(entry, block, message):
    """shift and its kin once returned Point(row=0.0, col=0.5), read True
    as 1, raised a TypeError or kept the repeated point, and
    block_to_matrix raised an AttributeError on each"""
    with pytest.raises(ValueError) as info:
        GRID_BLOCK_ENTRIES[entry](block)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", [e for e in GRID_BLOCK_ENTRIES if e != "CyclicPacking"])
def test_grid_block_entry_points_read_integral_floats_as_ints(entry):
    """1.0 is 1 everywhere but in the strict constructor, which wants
    Points of ints (test_packing_refuses_blocks_of_non_points)"""
    got = GRID_BLOCK_ENTRIES[entry](((0, 0), (1, 1.0)))
    want = GRID_BLOCK_ENTRIES[entry](((0, 0), (1, 1)))
    assert got == want and repr(got) == repr(want)


B2 = ((0, 0), (0, 1))


@pytest.mark.parametrize("call, name, value", [
    (lambda: shift(B2, 1.5, 3), "delta", 1.5),
    (lambda: shift(B2, True, 3), "delta", True),
    (lambda: canonicalize(B2, 3.0), "v", 3.0),
    (lambda: orbit(B2, 3.0), "v", 3.0),
    (lambda: stabilizer_order(B2, 2.0), "v", 2.0),
    (lambda: block_to_matrix(B2, 2.0, 3), "u", 2.0),
    (lambda: block_to_matrix(B2, 2, 3.0), "v", 3.0),
    (lambda: fan_shift(catalog_get("fg-4^2-s2c").payload, ((0, 0, 0), (1, 0, 0)), 1.5),
     "delta", 1.5),
    (lambda: rosqs_shift((INF, 0, 1, 3), 1.5, 7), "delta", 1.5),
    (lambda: rosqs_shift((INF, 0, 1, 3), 1, 7.0), "m", 7.0),
], ids=["shift", "shift bool", "canonicalize", "orbit", "stabilizer_order",
        "block_to_matrix u", "block_to_matrix v", "fan_shift", "rosqs_shift delta",
        "rosqs_shift m"])
def test_a_period_or_shift_that_is_not_an_int_is_refused(call, name, value):
    """shift once returned Point(row=0.0, col=1.5), canonicalize and
    orbit float Points, stabilizer_order an answer and block_to_matrix a
    matrix whose bits raised TypeError"""
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == "parameter %r must be an integer, got %r" % (name, value)


def test_block_to_matrix_takes_plain_tuples():
    m = block_to_matrix(((0, 1), (1, 0), (1, 2)), 2, 3)
    assert m == block_to_matrix((Point(0, 1), Point(1, 0), Point(1, 2)), 2, 3)
    assert m.bits == ((0, 1, 0), (1, 0, 1))


@pytest.mark.parametrize("entry", ["block_to_matrix", "CyclicPacking"])
@pytest.mark.parametrize("block, message", [
    (((0, 0), (0, 5)), "point Point(row=0, col=5) out of range for period 2"),
    (((-1, 0), (0, 1)), "point Point(row=-1, col=0) out of range for period 2"),
    (((0, 0), (2, 1)), "point Point(row=2, col=1) outside 2x2 grid"),
], ids=["column", "negative row", "row"])
def test_grid_block_range_refusals(entry, block, message):
    """a bad column or a negative row is out of range for the period, as
    in make_packing; only a row past the grid is outside it"""
    with pytest.raises(ValueError) as info:
        GRID_BLOCK_ENTRIES[entry](block)
    assert str(info.value) == message

