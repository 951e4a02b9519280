from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ooc2d.catalog import catalog_get
from ooc2d.core import CyclicPacking, Point, as_block, canonicalize, make_packing, shift, \
    stabilizer_order
from ooc2d.packing import develop, is_perfect, leave, verify_packing


def test_develop_count_strict():
    p = catalog_get("small-(7,2)").payload
    blocks = develop(p)
    assert len(blocks) == p.num_base_blocks * p.v
    assert len(set(blocks)) == len(blocks)


def test_develop_collapses_short_orbits():
    # full-column blocks are fixed by every shift
    b = as_block([(r, c) for r in range(2) for c in range(2)])
    p = make_packing(2, 2, 4, 3, [b])
    assert len(develop(p)) == 1


def test_verify_packing_catalog_entries():
    for entry_id in ["small-(2,3)", "small-(3,4)", "small-(6,2)"]:
        p = catalog_get(entry_id).payload
        report = verify_packing(p)
        assert report.valid
        assert report.strictly_cyclic
        assert sorted(report.orbit_lengths) == [p.v] * p.num_base_blocks


def test_verify_packing_reports_violation():
    a = as_block([(0, 0), (0, 1), (1, 0), (1, 1)])
    b = as_block([(0, 0), (0, 1), (1, 0), (1, 2)])
    p = make_packing(2, 3, 4, 3, [a, b])
    report = verify_packing(p)
    assert not report.valid
    triple, count = report.violation
    assert count >= 2
    assert len(triple) == 3


def test_leave_size_identity():
    p = catalog_get("small-(3,2)").payload
    report = verify_packing(p)
    rest = leave(p)
    assert len(rest) == report.leave_size
    n = p.u * p.v
    assert len(rest) == comb(n, 3) - len(develop(p)) * comb(4, 3)


def test_leave_rejects_invalid():
    a = as_block([(0, 0), (0, 1), (1, 0), (1, 1)])
    b = as_block([(0, 0), (0, 1), (1, 0), (1, 2)])
    p = make_packing(2, 3, 4, 3, [a, b])
    with pytest.raises(ValueError):
        leave(p)


def test_is_perfect():
    from ooc2d.constructs import hartman

    p, _ = hartman(catalog_get("rosqs8").payload)
    assert is_perfect(p)
    assert verify_packing(p).leave_size == 0
    assert not is_perfect(catalog_get("small-(2,3)").payload)


@st.composite
def direct_packings(draw):
    """a CyclicPacking built by its constructor from distinct canonical
    representatives in drawn order, short orbits and clashes included"""
    u, v = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    k = draw(st.integers(1, min(4, u * v)))
    t = draw(st.integers(1, k))
    cells = [Point(i, j) for i in range(u) for j in range(v)]
    reps = {}
    for b in draw(st.lists(st.lists(st.sampled_from(cells), min_size=k, max_size=k, unique=True),
                           max_size=6)):
        reps.setdefault(canonicalize(as_block(b), v))
    return CyclicPacking(u=u, v=v, k=k, t=t, base_blocks=tuple(reps))


@settings(max_examples=300, deadline=None)
@given(direct_packings())
def test_stored_stabilizers_match_a_fresh_development(p):
    """verify_packing develops from the codes and stabilizer orders the
    constructor stored; a development by shift over all of Z_v, with
    stabilizer_order, must give the same report"""
    stabs = [stabilizer_order(b, p.v) for b in p.base_blocks]
    images = [sorted({shift(b, d, p.v) for d in range(p.v)}) for b in p.base_blocks]
    counts = Counter(sub for orbit in images for img in orbit for sub in combinations(img, p.t))
    over = sorted((sub, c) for sub, c in counts.items() if c > 1)
    report = verify_packing(p)
    assert report.orbit_lengths == tuple(p.v // s for s in stabs) == tuple(map(len, images))
    assert report.strictly_cyclic == all(s == 1 for s in stabs)
    assert report.leave_size == comb(p.u * p.v, p.t) - len(counts)
    assert report.violation == (over[0] if over else None)
    assert report.valid == (not over)
    assert sorted(develop(p)) == sorted(img for orbit in images for img in orbit)
