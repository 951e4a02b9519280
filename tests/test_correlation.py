from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ooc2d.catalog import catalog_get
from ooc2d.constructs import fold
from ooc2d.core import Code, CodewordMatrix, Point, as_block, make_packing, shift
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


def test_correlation_refuses_two_shapes():
    a = CodewordMatrix(u=1, v=2, bits=((1, 0),))
    b = CodewordMatrix(u=2, v=1, bits=((1,), (0,)))
    with pytest.raises(ValueError, match="^matrices have different shapes$"):
        correlation(a, b, 0)


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


def _rewritten(code: Code, a: int, b: int) -> Code:
    """code with codeword a replaced by three cells of codeword b moved
    one column, plus cell (0, 1)."""
    moved = shift(matrix_to_block(code.codewords[b]), 1, code.v)
    mats = list(code.codewords)
    mats[a] = block_to_matrix(as_block(list(moved[:3]) + [Point(0, 1)]), code.u, code.v)
    return Code(u=code.u, v=code.v, k=code.k, lam=code.lam, codewords=tuple(mats))


def test_verify_ooc_reports_with_rotated_witness():
    """Witnesses at r != 0 on the 8x4 pipeline's code (v = 4, where r and
    v - r differ) and on its 16x2 fold (v = 2)."""
    base = packing_to_code(run_pipeline("8x4")[0])
    code, _ = fold(base, 2)
    assert (code.u, code.v, code.size) == (16, 2, 616)
    clean = CorrelationReport(ok=True, worst_value=2, witness=None)
    assert verify_ooc(base) == verify_ooc(code) == clean
    for intact, a, b, witness in ((base, 5, 200, ((5, 23), 3)), (code, 7, 300, ((7, 60), 1))):
        broken = _rewritten(intact, a, b)
        assert verify_ooc(broken) == CorrelationReport(ok=False, worst_value=3, witness=witness)
        (ia, ib), r = witness
        assert correlation(broken.codewords[ia], broken.codewords[ib], r) == 3


def _code(u, v, k, lam, *blocks) -> Code:
    return Code(u=u, v=v, k=k, lam=lam,
                codewords=tuple(block_to_matrix(as_block(b), u, v) for b in blocks))


SHORT = [(0, 0), (0, 2), (1, 1), (1, 3)]  # period 2 on a 2x4 grid


@pytest.mark.parametrize("code, report", [
    # a repeated codeword meets its copy in all k cells at r = 0
    (_code(2, 4, 4, 2, [(0, 0), (0, 1), (1, 0), (1, 2)], [(0, 0), (0, 1), (1, 0), (1, 2)]),
     CorrelationReport(ok=False, worst_value=4, witness=((0, 1), 0))),
    # a codeword of period 2 < v meets itself in all k cells at r = 2
    (_code(2, 4, 4, 2, SHORT), CorrelationReport(ok=False, worst_value=4, witness=((0, 0), 2))),
    (_code(2, 4, 4, 3, [(0, 0), (0, 1), (1, 0), (1, 2)], SHORT),
     CorrelationReport(ok=False, worst_value=4, witness=((1, 1), 2))),
    # codewords whose rotations never meet
    (_code(4, 3, 2, 1, [(0, 0), (1, 0)], [(2, 0), (3, 1)]),
     CorrelationReport(ok=True, worst_value=0, witness=None)),
    # lambda = 1: the cyclic difference set {0, 1, 3} mod 7, then a second
    # codeword whose differences repeat one of its own
    (_code(1, 7, 3, 1, [(0, 0), (0, 1), (0, 3)]),
     CorrelationReport(ok=True, worst_value=1, witness=None)),
    (_code(1, 7, 3, 1, [(0, 0), (0, 1), (0, 3)], [(0, 2), (0, 4), (0, 5)]),
     CorrelationReport(ok=False, worst_value=2, witness=((0, 1), 1))),
    # lambda = 3: clean with worst 2, then a codeword meeting another's
    # rotation in 4 cells
    (_code(2, 5, 4, 3, [(0, 0), (0, 1), (0, 2), (1, 0)]),
     CorrelationReport(ok=True, worst_value=2, witness=None)),
    (_code(2, 5, 5, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 4)],
           [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),
     CorrelationReport(ok=False, worst_value=4, witness=((0, 1), 2))),
])
def test_verify_ooc_pinned_small_reports(code, report):
    assert verify_ooc(code) == report == brute_force_report(code)


def test_codeword_cells_agree_with_bits():
    rng = random.Random(6)
    for _ in range(100):
        u, v = rng.randint(1, 4), rng.randint(1, 8)
        m = random_matrix(rng, u, v, rng.randint(0, u * v))
        assert m.cells == tuple(i * v + j for i in range(u) for j in range(v) if m.bits[i][j])
        assert m.weight == sum(map(sum, m.bits)) == len(m.cells)
        assert matrix_to_block(m) == tuple(Point(e // v, e % v) for e in m.cells)


@pytest.mark.parametrize("bits, message", [
    (((0, 1), (1,)), "expected 2 columns, got 1"),
    (((0, 1), (1, 2)), "matrix entries must be 0 or 1, got 2"),
    (((0, [1]), (1, 0)), "matrix entries must be 0 or 1, got [1]"),
    (((0, 1),), "expected 2 rows, got 1"),
])
def test_codeword_matrix_rejects_bad_bits(bits, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CodewordMatrix(u=2, v=2, bits=bits)
