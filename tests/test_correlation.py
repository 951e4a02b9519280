from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ooc2d.catalog import catalog_get
from ooc2d.constructs import fold
from ooc2d.core import Code, CodewordMatrix, Point, as_block, make_packing
from ooc2d.correlation import (CorrelationReport, block_to_matrix, code_to_packing,
                               correlation, matrix_to_block, packing_to_code, verify_ooc)
from ooc2d.pipelines import run_pipeline


def random_matrix(rng, u, v, w):
    cells = rng.sample([(r, c) for r in range(u) for c in range(v)], w)
    bits = [[0] * v for _ in range(u)]
    for r, c in cells:
        bits[r][c] = 1
    return CodewordMatrix(u=u, v=v, bits=tuple(tuple(row) for row in bits))


def test_block_matrix_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        u, v = rng.randint(1, 4), rng.randint(1, 8)
        m = random_matrix(rng, u, v, min(4, u * v))
        assert block_to_matrix(matrix_to_block(m), u, v) == m


def test_correlation_symmetry():
    """shifting the other matrix by the negated offset gives the same sum."""
    rng = random.Random(4)
    for _ in range(60):
        u, v = rng.randint(1, 3), rng.randint(2, 7)
        a = random_matrix(rng, u, v, 4) if u * v >= 4 else random_matrix(rng, u, v, u * v)
        b = random_matrix(rng, u, v, a.weight)
        for r in range(v):
            assert correlation(a, b, r) == correlation(b, a, (-r) % v)


def test_autocorrelation_at_zero_is_weight():
    m = random_matrix(random.Random(5), 2, 5, 4)
    assert correlation(m, m, 0) == 4


def test_verify_ooc_agrees_with_direct_correlation():
    code = packing_to_code(catalog_get("small-(2,6)").payload)
    report = verify_ooc(code)
    assert report.ok
    worst = 0
    for i, a in enumerate(code.codewords):
        for j, b in enumerate(code.codewords[i:], start=i):
            for r in range(code.v):
                if i == j and r == 0:
                    continue
                worst = max(worst, correlation(a, b, r))
    assert worst == report.worst_value
    assert worst <= code.lam


def test_verify_ooc_flags_violation():
    # two codewords sharing three cells in a common row pattern
    a = block_to_matrix(as_block([(0, 0), (0, 1), (0, 2), (1, 0)]), 2, 7)
    b = block_to_matrix(as_block([(0, 0), (0, 1), (0, 2), (1, 3)]), 2, 7)
    code = Code(u=2, v=7, k=4, lam=2, codewords=(a, b))
    report = verify_ooc(code)
    assert not report.ok
    assert report.worst_value >= 3
    (ia, ib), r = report.witness
    assert correlation(code.codewords[ia], code.codewords[ib], r) > code.lam


def brute_force_report(code: Code) -> CorrelationReport:
    """verify_ooc's contract spelled out with correlation() alone."""
    worst, witness = 0, None
    for ia, a in enumerate(code.codewords):
        for ib in range(ia, code.size):
            for r in range(code.v):
                if ia == ib and r == 0:
                    continue
                value = correlation(a, code.codewords[ib], r)
                worst = max(worst, value)
                if value > code.lam and witness is None:
                    witness = ((ia, ib), r)
    return CorrelationReport(ok=worst <= code.lam, worst_value=worst, witness=witness)


@st.composite
def small_codes(draw):
    """Codes on grids up to 4x8 with lambda 1-3.  Codewords may repeat
    an earlier one, and a codeword of period d < v (a union of cosets
    of the shift by d) has a non-trivial stabilizer."""
    u, v = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    lam = draw(st.integers(1, 3))
    k = draw(st.integers(lam + 1, lam + 3))
    assume(k <= u * v)
    periods = [d for d in range(1, v + 1)
               if v % d == 0 and k % (v // d) == 0 and u * d >= k // (v // d)]
    mats = []
    for _ in range(draw(st.integers(0, 6))):
        if mats and draw(st.integers(0, 3)) == 0:
            mats.append(draw(st.sampled_from(mats)))
            continue
        d = draw(st.sampled_from(periods))
        cells = draw(st.permutations([(i, j) for i in range(u) for j in range(d)]))
        block = as_block((i, j + m * d) for i, j in cells[:k // (v // d)]
                         for m in range(v // d))
        mats.append(block_to_matrix(block, u, v))
    return Code(u=u, v=v, k=k, lam=lam, codewords=tuple(mats))


@settings(max_examples=300, deadline=None)
@given(small_codes())
def test_verify_ooc_matches_brute_force(code):
    assert verify_ooc(code) == brute_force_report(code)


def test_verify_ooc_report_on_folded_pipeline():
    code, _ = fold(packing_to_code(run_pipeline("12x2")[0]), 2)
    assert (code.u, code.v, code.size) == (24, 1, 496)
    assert verify_ooc(code) == CorrelationReport(ok=True, worst_value=2, witness=None)
    # codeword 7 takes three cells of codeword 300 plus cell (0, 0);
    # codeword 52 also meets it in three cells and comes first in scan order
    blocks = [matrix_to_block(m) for m in code.codewords]
    mats = list(code.codewords)
    mats[7] = block_to_matrix(as_block(list(blocks[300][:3]) + [Point(0, 0)]), 24, 1)
    broken = Code(u=24, v=1, k=4, lam=2, codewords=tuple(mats))
    assert correlation(mats[7], mats[300], 0) == 3
    assert verify_ooc(broken) == CorrelationReport(ok=False, worst_value=3, witness=((7, 52), 0))


def test_packing_code_roundtrip():
    p = catalog_get("small-(3,3)").payload
    assert code_to_packing(packing_to_code(p)) == p


def test_packing_to_code_needs_pairs():
    p = make_packing(2, 3, 2, 1, [as_block([(0, 0), (1, 1)])])
    with pytest.raises(ValueError):
        packing_to_code(p)
