from __future__ import annotations

import random
import re

import pytest

from ooc2d.core import (Code, CodewordMatrix, CyclicPacking, Point, as_block,
                        canonicalize, make_packing, orbit, shift,
                        stabilizer_order)


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


def test_matrix_weight():
    m = CodewordMatrix(u=2, v=3, bits=((1, 0, 1), (0, 1, 1)))
    assert m.weight == 4
