"""The integer kernel against the Point-tuple code it replaced.

The ref_ functions below are the tuple implementations of shift,
canonicalize, stabilizer_order, orbit, develop, verify_packing,
develop_family, verify_fan, the action checks, verify_h_design and
verify_rosqs as they were before the kernel.  Hypothesis compares every
report in full, by repr, so a detail string, a violation, a point type
or an orbit length that differs fails.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from ooc2d.catalog import catalog_get
from ooc2d.constructs import add_cross_pairs_layer, complete_pair_fan
from ooc2d.core import (Point, _develop, _image, _orbit, as_block, canonicalize, make_packing,
                        orbit, stabilizer_order)
from ooc2d.correlation import packing_to_code, verify_ooc
from ooc2d.designs import (CYCLIC, INF, REGULAR, DesignReport, FanDesign, HDesign,
                           RoSQSDesign, develop_family, verify_fan, verify_h_cyclic,
                           verify_h_design, verify_regular, verify_rosqs)
from ooc2d.packing import PackingReport, develop, verify_packing
from ooc2d.pipelines import run_pipeline


# ---- references: the tuple implementations -------------------------------

def ref_shift(block, delta, v):
    return tuple(sorted(Point(p.row, (p.col + delta) % v) for p in block))


def ref_canonicalize(block, v):
    return min(ref_shift(block, d, v) for d in range(v))


def ref_stabilizer_order(block, v):
    base = tuple(sorted(block))
    return sum(1 for d in range(v) if ref_shift(base, d, v) == base)


def ref_orbit(block, v):
    rep = ref_canonicalize(block, v)
    seen = []
    for d in range(v):
        img = ref_shift(rep, d, v)
        if img not in seen:
            seen.append(img)
    return seen


def ref_develop(p):
    out = []
    for b in p.base_blocks:
        seen = set()
        for d in range(p.v):
            img = ref_shift(b, d, p.v)
            if img not in seen:
                seen.add(img)
                out.append(img)
    return out


def ref_verify_packing(p):
    lengths = tuple(p.v // ref_stabilizer_order(b, p.v) for b in p.base_blocks)
    counts: dict = {}
    for block in ref_develop(p):
        for sub in combinations(block, p.t):
            counts[sub] = counts.get(sub, 0) + 1
    bad = sorted(sub for sub, c in counts.items() if c > 1)
    return PackingReport(
        valid=not bad,
        strictly_cyclic=all(n == p.v for n in lengths),
        orbit_lengths=lengths,
        leave_size=comb(p.u * p.v, p.t) - len(counts),
        violation=(bad[0], counts[bad[0]]) if bad else None,
    )


def ref_fan_shift(d, block, delta=1):
    if d.shape == CYCLIC:
        return tuple(sorted((x, y, (j + delta) % d.h) for x, y, j in block))
    return tuple(sorted(Point(p[0], (p[1] + delta) % d.v) for p in block))


def ref_block_stabilizer(d, block):
    base = tuple(sorted(block))
    return sum(1 for delta in range(d.period) if ref_fan_shift(d, base, delta) == base)


def ref_develop_family(d, blocks):
    if d.developed:
        fam = [tuple(sorted(b)) for b in blocks]
        fam_set = set(fam)
        if len(fam_set) != len(fam):
            return fam, (), "duplicate block in developed family"
        for b in fam:
            if ref_fan_shift(d, b, 1) not in fam_set:
                return fam, (), "family not closed under the action at %r" % (b,)
        return fam, tuple(ref_block_stabilizer(d, b) for b in fam), None
    out = []
    seen: set = set()
    stabs = []
    for b in blocks:
        stabs.append(ref_block_stabilizer(d, b))
        for delta in range(d.period):
            img = ref_fan_shift(d, b, delta)
            if img in seen:
                if img in {ref_fan_shift(d, b, e) for e in range(delta)}:
                    continue
                return out, tuple(stabs), "orbit collision at %r" % (img,)
            seen.add(img)
            out.append(img)
    return out, tuple(stabs), None


def ref_verify_fan(d):
    developed = []
    for idx, fam in enumerate(d.families()):
        full, _, problem = ref_develop_family(d, fam)
        if problem:
            return DesignReport(False, "family %d: %s" % (idx, problem))
        developed.append(full)
    *layer_full, _ = developed
    pts = d.points()
    triple_counts: dict = {}
    for fam in developed:
        for b in fam:
            for sub in combinations(b, 3):
                triple_counts[sub] = triple_counts.get(sub, 0) + 1
    for sub in combinations(sorted(pts), 3):
        want = 1 if len({d.group_of(p) for p in sub}) >= 2 else 0
        got = triple_counts.get(sub, 0)
        if got != want:
            return DesignReport(False, "triple %r covered %d times, expected %d"
                                % (sub, got, want))
    for idx, fam in enumerate(layer_full):
        pair_counts: dict = {}
        for b in fam:
            for sub in combinations(b, 2):
                pair_counts[sub] = pair_counts.get(sub, 0) + 1
        for sub in combinations(sorted(pts), 2):
            want = 1 if d.group_of(sub[0]) != d.group_of(sub[1]) else 0
            got = pair_counts.get(sub, 0)
            if got != want:
                return DesignReport(False, "layer %d: pair %r covered %d times, expected %d"
                                    % (idx, sub, got, want))
    return DesignReport(True)


def ref_verify_action(d, strict):
    for idx, fam in enumerate(d.families()):
        full, stabs, problem = ref_develop_family(d, fam)
        if problem:
            return DesignReport(False, "family %d: %s" % (idx, problem))
        if strict:
            for b, order in zip(fam if not d.developed else full, stabs):
                if order != 1:
                    return DesignReport(False, "family %d: block %r has stabilizer of order %d"
                                        % (idx, b, order))
    return DesignReport(True)


def ref_h_shift(d, block, delta=1):
    return tuple(sorted((x, y, (j + delta) % d.h) for x, y, j in block))


def ref_verify_h_design(d):
    developed = []
    seen: set = set()
    for b in d.base_blocks:
        for delta in range(d.h):
            img = ref_h_shift(d, b, delta)
            if img in seen:
                if img in {ref_h_shift(d, b, e) for e in range(delta)}:
                    continue
                return DesignReport(False, "orbit collision at %r" % (img,))
            seen.add(img)
            developed.append(img)
    counts: dict = {}
    for b in developed:
        for sub in combinations(b, d.t):
            counts[sub] = counts.get(sub, 0) + 1
    for sub in combinations(sorted(d.points()), d.t):
        want = 1 if len({x for x, _, _ in sub}) == d.t else 0
        got = counts.get(sub, 0)
        if got != want:
            return DesignReport(False, "t-subset %r covered %d times, expected %d"
                                % (sub, got, want))
    return DesignReport(True)


def ref_rosqs_shift(block, delta, m):
    return tuple(sorted(x if x == INF else (x + delta) % m for x in block))


def ref_verify_rosqs(d):
    if d.n % 6 not in (2, 4):
        return DesignReport(False, "no quadruple system on %d points" % d.n)
    m = d.n - 1
    developed = []
    seen: set = set()
    for b in d.base_blocks:
        for delta in range(m):
            img = ref_rosqs_shift(b, delta, m)
            if img in seen:
                if img in {ref_rosqs_shift(b, e, m) for e in range(delta)}:
                    continue
                return DesignReport(False, "orbit collision at %r" % (img,))
            seen.add(img)
            developed.append(img)
    counts: dict = {}
    for b in developed:
        for sub in combinations(b, 3):
            counts[sub] = counts.get(sub, 0) + 1
    for sub in combinations(sorted([INF] + list(range(m))), 3):
        got = counts.get(sub, 0)
        if got != 1:
            return DesignReport(False, "triple %r covered %d times" % (sub, got))
    return DesignReport(True)


# ---- grid blocks and packings ----------------------------------------------

@st.composite
def grid_blocks(draw):
    """(block, v) on a random grid.  Half the blocks are unions of
    cosets of a subgroup of Z_v, so short orbits are common."""
    u, v = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    cells = [(r, c) for r in range(u) for c in range(v)]
    if draw(st.booleans()):
        step = draw(st.sampled_from([s for s in range(1, v + 1) if v % s == 0]))
        seeds = draw(st.lists(st.sampled_from([(r, c) for r, c in cells if c < step]),
                              min_size=1, max_size=3, unique=True))
        return as_block((r, c + m * step) for r, c in seeds for m in range(v // step)), v
    return as_block(draw(st.lists(st.sampled_from(cells), min_size=1,
                                  max_size=min(5, u * v), unique=True))), v


@settings(max_examples=200, deadline=None)
@given(grid_blocks(), st.integers(0, 8))
def test_block_kernel_matches_reference(case, delta):
    block, v = case
    assert repr(canonicalize(block, v)) == repr(ref_canonicalize(block, v))
    assert stabilizer_order(block, v) == ref_stabilizer_order(block, v)
    assert repr(orbit(block, v)) == repr(ref_orbit(block, v))
    moved = ref_shift(block, delta, v)
    assert stabilizer_order(moved, v) == ref_stabilizer_order(block, v)


@st.composite
def random_packings(draw, k=None, t=None):
    """Packings of random canonical blocks, distinct orbits, short
    orbits included; most are invalid."""
    u = draw(st.integers(1, 4))
    v = draw(st.integers(-(-(k or 1) // u), 7))
    k = k or draw(st.integers(1, min(5, u * v)))
    t = t or draw(st.integers(1, k))
    cells = [(r, c) for r in range(u) for c in range(v)]
    blocks = draw(st.lists(st.lists(st.sampled_from(cells), min_size=k, max_size=k,
                                    unique=True), max_size=8))
    reps = {canonicalize(as_block(b), v) for b in blocks}
    return make_packing(u, v, k, t, reps)


@settings(max_examples=200, deadline=None)
@given(random_packings())
def test_packing_kernel_matches_reference(p):
    assert repr(develop(p)) == repr(ref_develop(p))
    assert repr(verify_packing(p)) == repr(ref_verify_packing(p))


@settings(max_examples=200, deadline=None)
@given(random_packings(k=4, t=3))
def test_packing_and_correlation_verifiers_agree(p):
    """a k = 4, t = 3 packing is valid and strictly cyclic exactly when
    its code has correlation at most 2"""
    report = verify_packing(p)
    assert verify_ooc(packing_to_code(p)).ok == (report.valid and report.strictly_cyclic)


# ---- catalog designs, mutated ----------------------------------------------

def _developed_copy(d: FanDesign) -> FanDesign:
    """The same design with every family listed in full."""
    fams = [tuple(ref_develop_family(d, fam)[0]) for fam in d.families()]
    return FanDesign(s=d.s, shape=d.shape, h=d.h, layers=tuple(fams[:-1]),
                     terminal=fams[-1], g_list=d.g_list, u=d.u, v=d.v, developed=True)


FANS = [catalog_get(i).payload for i in
        ("fan-plain-3^3", "fan-plain-4^2", "fg-4^2-s2c", "fg-6^3-s3c",
         "fg-(2,2)reg-4^2", "fg-(2,4)reg-8^2", "fg-(3,2)reg-6^5")]
FANS += [complete_pair_fan(4)[0], add_cross_pairs_layer(catalog_get("fg-(2,2)reg-4^2").payload)[0]]
FANS += [_developed_copy(FANS[2]), _developed_copy(FANS[4]), _developed_copy(FANS[8])]
H_DESIGNS = [catalog_get("h-4-2-4-3").payload, run_pipeline("h44-2cyc")[0]]
MUTATIONS = ("none", "drop", "duplicate", "move", "shift", "add", "one group")


def _mutate(data, families, points, shifted, movable, group=None):
    """One mutation of one block family: drop a block, duplicate one,
    move one of its points, replace it with a shift of another, add a
    random block of its size, or (with group) replace it with a block
    inside one group."""
    families = [list(fam) for fam in families]
    fam = families[data.draw(st.sampled_from([i for i, f in enumerate(families) if f]))]
    i = data.draw(st.integers(0, len(fam) - 1))
    kind = data.draw(st.sampled_from(MUTATIONS))
    size = len(fam[i])
    if kind == "drop":
        del fam[i]
    elif kind == "duplicate":
        fam.append(fam[i])
    elif kind == "add":
        block: list = []
        for _ in range(size):
            block.append(data.draw(st.sampled_from(
                [p for p in points if p not in block and movable(p, block)])))
        fam.append(tuple(sorted(block)))
    elif kind == "one group" and group is not None:
        members = [p for p in points if group(p) == group(fam[i][0])]
        if len(members) >= size:
            fam[i] = tuple(sorted(data.draw(st.lists(st.sampled_from(members), min_size=size,
                                                     max_size=size, unique=True))))
    elif kind == "move":
        block = list(fam[i])
        j = data.draw(st.integers(0, len(block) - 1))
        rest = block[:j] + block[j + 1:]
        options = [p for p in points if p not in block and movable(p, rest)]
        if options:
            block[j] = data.draw(st.sampled_from(options))
            fam[i] = tuple(sorted(block))
    elif kind == "shift":
        fam[i] = shifted(data.draw(st.sampled_from(fam)), data.draw(st.integers(1, 12)))
    return families


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FANS), st.data())
def test_fan_kernel_matches_reference(d, data):
    fams = _mutate(data, d.families(), d.points(),
                   lambda b, delta: ref_fan_shift(d, b, delta), lambda p, rest: True, d.group_of)
    m = FanDesign(s=d.s, shape=d.shape, h=d.h, layers=tuple(map(tuple, fams[:-1])),
                  terminal=tuple(fams[-1]), g_list=d.g_list, u=d.u, v=d.v,
                  developed=d.developed)
    assert repr(verify_fan(m)) == repr(ref_verify_fan(m))
    for fam in m.families():
        assert repr(develop_family(m, fam)) == repr(ref_develop_family(m, fam))
    action = verify_h_cyclic if m.shape == CYCLIC else verify_regular
    for strict in (False, True):
        assert repr(action(m, strict=strict)) == repr(ref_verify_action(m, strict))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FANS), st.data())
def test_strict_fan_check_matches_reference_pair(d, data):
    """verify_fan(strict=True) reports what verify_fan followed by the
    strict action check reported, from a single development."""
    fams = _mutate(data, d.families(), d.points(),
                   lambda b, delta: ref_fan_shift(d, b, delta), lambda p, rest: True, d.group_of)
    m = FanDesign(s=d.s, shape=d.shape, h=d.h, layers=tuple(map(tuple, fams[:-1])),
                  terminal=tuple(fams[-1]), g_list=d.g_list, u=d.u, v=d.v,
                  developed=d.developed)
    cover = ref_verify_fan(m)
    assert repr(verify_fan(m, strict=False)) == repr(cover)
    pair = cover if not cover.ok else ref_verify_action(m, True)
    assert repr(verify_fan(m, strict=True)) == repr(pair)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(H_DESIGNS), st.data())
def test_h_design_kernel_matches_reference(d, data):
    (blocks,) = _mutate(data, [d.base_blocks], d.points(),
                        lambda b, delta: ref_h_shift(d, b, delta),
                        lambda p, rest: p[0] not in {q[0] for q in rest})
    m = HDesign(n=d.n, l=d.l, h=d.h, t=d.t, base_blocks=tuple(blocks))
    assert repr(verify_h_design(m)) == repr(ref_verify_h_design(m))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rosqs_kernel_matches_reference(data):
    d = catalog_get("rosqs8").payload
    m = d.n - 1
    (blocks,) = _mutate(data, [d.base_blocks], [INF] + list(range(m)),
                        lambda b, delta: ref_rosqs_shift(b, delta, m),
                        lambda x, rest: x != INF or INF not in rest)
    r = RoSQSDesign(n=d.n, base_blocks=tuple(blocks))
    assert repr(verify_rosqs(r)) == repr(ref_verify_rosqs(r))


def test_mutations_reach_failures():
    """the strategies above reach each failure path at least once"""
    d = catalog_get("fg-(2,2)reg-4^2").payload
    dropped = FanDesign(s=0, shape=REGULAR, h=d.h, layers=(), terminal=d.terminal[1:],
                        u=d.u, v=d.v)
    assert verify_fan(dropped).detail.startswith("triple (Point(row=")
    doubled = FanDesign(s=0, shape=REGULAR, h=d.h, layers=(),
                        terminal=d.terminal + d.terminal[:1], u=d.u, v=d.v)
    assert verify_fan(doubled).detail.startswith("family 0: orbit collision at (Point(")
    r = catalog_get("rosqs8").payload
    assert verify_rosqs(RoSQSDesign(n=8, base_blocks=r.b2())).detail.startswith("triple (-1, ")


# ---- the develop walk -------------------------------------------------------

def ref_develop_codes(blocks, period):
    """core._develop as it was when it asked _orbit for every block's
    stabilizer before walking its period // stabilizer shifts."""
    images, seen, stabs = [], set(), []
    for codes in blocks:
        stabs.append(_orbit(codes, period)[1])
        for d in range(period // stabs[-1]):
            img = _image(codes, d, period)
            if img in seen:
                return images, stabs, img
            seen.add(img)
            images.append(img)
    return images, stabs, None


def test_develop_with_period_1():
    assert _develop([(0, 1), (2, 3)], 1) == ([(0, 1), (2, 3)], [1, 1], None)
    assert _develop([(0, 1), (0, 1)], 1) == ([(0, 1)], [1, 1], (0, 1))


def test_develop_reads_stabilizers_2_and_3_off_the_walk():
    """(0, 3) on a row of 6 closes after 3 shifts, (6, 8, 10) on the next
    row after 2."""
    assert _develop([(0, 3), (6, 8, 10)], 6) == (
        [(0, 3), (1, 4), (2, 5), (6, 8, 10), (7, 9, 11)], [2, 3], None)


def test_develop_a_duplicate_orbit_clashes_at_shift_0():
    """(1, 2) is (0, 1) moved by 1, so it is met at d = 0; its stabilizer
    is reported too."""
    assert _develop([(0, 1), (1, 2)], 3) == ([(0, 1), (1, 2), (0, 2)], [1, 1], (1, 2))


def test_develop_a_clash_in_the_middle_of_the_walk():
    """Shifts act as a group, so a sorted block clashes at d = 0 or not at
    all; the clash here stops the walk over the blocks after the first
    two orbits, each in shift order from its own block, and (4, 7) is
    never developed."""
    assert _develop([(0, 2), (5, 7), (4, 6), (4, 7)], 4) == (
        [(0, 2), (1, 3), (5, 7), (4, 6)], [2, 2, 2], (4, 6))


@st.composite
def code_blocks(draw):
    """(sorted blocks of codes, period), some of them shifts of an earlier
    block and some unions of cosets, so clashes and short orbits are
    common."""
    rows, period = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    codes = st.lists(st.integers(0, rows * period - 1), min_size=1, max_size=4, unique=True)
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "cosets"] + ["shift"] * bool(blocks)))
        if kind == "shift":
            block = _image(draw(st.sampled_from(blocks)), draw(st.integers(0, period)), period)
        elif kind == "cosets":
            step = draw(st.sampled_from([s for s in range(1, period + 1) if period % s == 0]))
            block = tuple(sorted({e - e % period + (e % period + m * step) % period
                                  for e in draw(codes) for m in range(period // step)}))
        else:
            block = tuple(sorted(draw(codes)))
        blocks.append(block)
    return blocks, period


@settings(max_examples=300, deadline=None)
@given(code_blocks())
def test_develop_matches_the_walk_over_orbit_stabilizers(case):
    blocks, period = case
    images, stabs, clash = _develop(blocks, period)
    assert (images, stabs, clash) == ref_develop_codes(blocks, period)
    assert stabs == [_orbit(b, period)[1] for b in blocks[:len(stabs)]]
    walked = [_image(b, d, period) for b, s in zip(blocks, stabs) for d in range(period // s)]
    assert images == walked[:len(images)]
    assert (clash is None) == (len(stabs) == len(blocks) and images == walked)
