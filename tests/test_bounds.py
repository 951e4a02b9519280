from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ooc2d.bounds import (CASE_A, CASE_B, CLASS1, CLASS3, EXCLUDED_COR5_5, JOHNSON,
                          JSTAR_CASES, MOD6_GENERAL, MOD12_4_8_VEVEN,
                          NOT_ADMISSIBLE, U7_11_V2, bound_report, j1,
                          johnson_bound, jstar, lifting_equal, perfect_class)


def test_johnson_values():
    assert johnson_bound(2, 7, 4, 2) == 13
    assert johnson_bound(12, 2, 4, 2) == 252
    assert johnson_bound(4, 2, 4, 2) == 7
    assert johnson_bound(2, 2, 4, 2) == 0
    assert johnson_bound(1, 13, 4, 2) == 5
    assert johnson_bound(14, 1, 4, 2) == 91


def test_j1_exact():
    assert j1(14, 4, 2) == Fraction(26, 4)
    assert j1(24, 4, 2) == Fraction(84, 4)


def test_lifting_oracles():
    """residue classes of n where the single-row bound lifts exactly."""
    for n in [13, 15, 25, 27, 37]:
        assert n % 6 in (1, 3)
        assert j1(n, 4, 2) - johnson_bound(1, n, 4, 2) == 0
    for n in [26, 34, 50, 58]:
        assert n % 24 in (2, 10)
        assert j1(n, 4, 2) - johnson_bound(1, n, 4, 2) == 0
    for n in [28, 44, 52, 68]:
        assert n % 24 in (4, 20)
        assert j1(n, 4, 2) - johnson_bound(1, n, 4, 2) == Fraction(1, 4)
        assert lifting_equal(2, n // 2, 4, 2)
        assert not lifting_equal(4, n // 4, 4, 2)


def test_lifting_cross_check_runs_everywhere():
    # lifting_equal asserts its fraction test against the direct
    # comparison internally, so sweeping it is itself a check
    for u in range(1, 9):
        for v in range(1, 9):
            lifting_equal(u, v, 4, 2)


def test_jstar_values_and_cases():
    assert jstar(2, 7) == (13, JOHNSON)
    assert jstar(7, 2) == (44, U7_11_V2)
    assert jstar(2, 3) == (1, MOD6_GENERAL)
    assert jstar(4, 2) == (6, MOD12_4_8_VEVEN)
    assert jstar(12, 2) == (248, CASE_A)
    assert jstar(2, 12) == (41, CASE_B)
    assert jstar(8, 2) == (68, MOD12_4_8_VEVEN)
    assert jstar(8, 4) == (308, MOD12_4_8_VEVEN)
    assert jstar(2, 15) == (67, MOD6_GENERAL)
    assert jstar(3, 10) == (100, MOD6_GENERAL)
    assert jstar(14, 1) == (91, JOHNSON)
    assert jstar(12, 1) == (51, MOD6_GENERAL)
    assert jstar(6, 1) == (3, MOD6_GENERAL)
    assert jstar(2, 2) == (0, MOD12_4_8_VEVEN)


def test_jstar_never_above_johnson():
    for u in range(1, 15):
        for v in range(1, 15):
            value, case = jstar(u, v)
            assert case in JSTAR_CASES
            assert value <= johnson_bound(u, v, 4, 2)


# sides near the residues mod 12 that pick a jstar case, and plain wide ones
SIDES = st.one_of(st.integers(1, 10_000),
                  st.builds(lambda a, r: 12 * a + r, st.integers(0, 800), st.integers(1, 12)))


@settings(max_examples=500, deadline=None)
@given(SIDES, SIDES)
def test_jstar_never_above_johnson_wide(u, v):
    """jstar raises when two cases claim a grid, so a return is also
    the exclusivity check"""
    value, case = jstar(u, v)
    assert case in JSTAR_CASES
    assert 0 <= value <= johnson_bound(u, v, 4, 2)
    if case == JOHNSON:
        assert value == johnson_bound(u, v, 4, 2)


def test_perfect_classes():
    assert perfect_class(2, 7) == CLASS3
    assert perfect_class(4, 2) == EXCLUDED_COR5_5
    assert perfect_class(2, 2) == NOT_ADMISSIBLE
    assert perfect_class(8, 1) == CLASS3
    assert perfect_class(1, 10) == CLASS1


def test_perfect_class_matches_raw_conditions():
    # the classifier asserts agreement with the divisibility test
    # internally; sweep to exercise every residue combination
    for u in range(1, 50):
        for v in range(1, 50):
            perfect_class(u, v)


def test_bound_report_fields():
    report = bound_report(2, 7, 4, 2)
    assert report.johnson == 13
    assert report.jstar == 13
    assert report.perfect == CLASS3
    other = bound_report(2, 7, 4, 3)
    assert other.jstar is None
    assert other.jstar_case is None


def test_bad_parameters():
    with pytest.raises(ValueError):
        johnson_bound(0, 3, 4, 2)
    with pytest.raises(ValueError):
        johnson_bound(2, 3, 4, 4)
    with pytest.raises(ValueError):
        jstar(0, 1)
