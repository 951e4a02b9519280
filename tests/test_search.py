from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ooc2d.search as search
from ooc2d.bounds import johnson_bound, jstar
from ooc2d.constructs import fold
from ooc2d.correlation import packing_to_code
from ooc2d.files import design_to_dict
from ooc2d.packing import is_perfect, verify_packing
from ooc2d.core import _image, _orbit
from ooc2d.search import (_branch_and_bound, _build_orbits, _candidates, _pair_level,
                          _ruin_recreate, _subset_orbits, max_packing)


def test_small_grids_proved():
    for u, v, best in [(2, 3, 1), (2, 4, 3), (1, 7, 1), (2, 2, 0)]:
        result = max_packing(u, v, 4, 3)
        assert result.max_blocks == best
        assert result.proved_optimal
        assert not result.budget_exhausted


def test_witness_verifies():
    result = max_packing(3, 3, 4, 3)
    assert result.max_blocks == 6
    report = verify_packing(result.witness)
    assert report.valid
    assert report.strictly_cyclic
    assert result.witness.num_base_blocks == result.max_blocks


def test_never_exceeds_bound():
    for u, v in [(2, 3), (2, 4), (3, 3), (2, 5)]:
        result = max_packing(u, v, 4, 3)
        assert result.max_blocks <= jstar(u, v)[0]


def test_budget_exhaustion_is_reported():
    result = max_packing(3, 4, 4, 3, node_budget=50, heuristic_iterations=0)
    assert result.budget_exhausted
    assert not result.proved_optimal
    assert result.max_blocks <= jstar(3, 4)[0]


def test_pair_packing_path():
    # k=4 blocks over v=3 cover more pairs than the grid holds
    result = max_packing(2, 3, 4, 2)
    assert result.max_blocks == 0
    assert result.proved_optimal


def test_single_row_optimum_folds_down():
    result = max_packing(1, 10, 4, 3)
    assert result.max_blocks == 3
    assert result.proved_optimal
    assert is_perfect(result.witness)
    code = packing_to_code(result.witness)
    by_two, _ = fold(code, 2)
    assert (by_two.u, by_two.v, by_two.size) == (2, 5, 6)
    by_five, _ = fold(code, 5)
    assert (by_five.u, by_five.v, by_five.size) == (5, 2, 15)
    assert by_two.size == jstar(2, 5)[0]
    assert by_five.size == jstar(5, 2)[0]


def _digest(result) -> str:
    text = json.dumps(design_to_dict(result.witness), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("u, v, digest", [
    (6, 2, "3840be4ec578e772"), (12, 1, "5a34b9118ee773f2"), (3, 4, "9031739f94250909"),
])
def test_heuristic_witnesses_pinned(u, v, digest):
    result = max_packing(u, v, 4, 3)
    assert (result.proof, result.nodes_explored) == ("bound", 0)
    assert _digest(result) == digest


@pytest.mark.parametrize("u, v, nodes, digest", [
    (4, 3, 1_986, "41210ef277b459e1"), (9, 1, 13_261, "54493c71be697e66"),
    (2, 7, 52, "4534c107055ba340"), (2, 4, 6, "096db74a5019c7bf"),
    (3, 3, 13, "096affacdee76913"), (3, 4, 8_402, "9b425edfd80e8fb8"),
    (1, 16, 194, "22555a938b70bcd7"),
])
def test_tree_witnesses_pinned(u, v, nodes, digest):
    result = max_packing(u, v, 4, 3, heuristic_iterations=0)
    assert result.nodes_explored == nodes
    assert _digest(result) == digest


@pytest.mark.parametrize("u, v, k, t, nodes, digest", [
    (3, 4, 5, 3, 1_666, "00474e52f46dfb7e"), (1, 12, 5, 4, 2_943, "d16730a458e0345f"),
    (2, 7, 5, 3, 177, "f630132040cebe78"),
])
def test_five_point_trees_pinned(u, v, k, t, nodes, digest):
    # C(k-2, t-2) = 3: a leave moves pair residues mod 3 by 1 or 2
    result = max_packing(u, v, k, t, heuristic_iterations=0)
    assert (result.nodes_explored, result.proof, result.budget_exhausted) == (
        nodes, "exhausted", False)
    assert _digest(result) == digest


def test_five_point_budget_run_pinned():
    result = max_packing(2, 6, 5, 4, node_budget=50, heuristic_iterations=0)
    assert (result.max_blocks, result.nodes_explored, result.proof) == (10, 51, None)
    assert result.budget_exhausted
    assert _digest(result) == "5c20f576b7375830"


def test_proof_reasons():
    # 6x2 is proved by the bound in test_heuristic_witnesses_pinned
    result = max_packing(2, 2, 4, 3)
    assert (result.proof, result.upper_bound, result.max_blocks) == ("bound", 0, 0)
    result = max_packing(2, 3, 4, 2)
    assert (result.proof, result.upper_bound) == ("bound", 0)
    assert result.proved_optimal
    result = max_packing(3, 4, 4, 3, node_budget=50, heuristic_iterations=0)
    assert (result.proof, result.upper_bound) == (None, 12)
    assert not result.proved_optimal


@pytest.mark.parametrize("u, v, k, t", [(1, 5, 5, 5), (2, 2, 4, 4), (2, 2, 4, 3)])
def test_zero_bound_walks_no_tree(u, v, k, t, monkeypatch):
    """the empty incumbent already meets a cap of 0, so no node is walked"""
    def walk(*args):
        raise AssertionError("the tree ran with a cap of 0")

    monkeypatch.setattr(search, "_branch_and_bound", walk)
    for iterations in (0, 30_000):
        result = max_packing(u, v, k, t, heuristic_iterations=iterations)
        assert (result.upper_bound, result.max_blocks, result.nodes_explored) == (0, 0, 0)
        assert (result.proof, result.budget_exhausted) == ("bound", False)


def test_witness_failures_read_as_verdict(monkeypatch):
    """a witness that fails its check raises verdict's strict detail"""
    def overlapping(orbits, cap, iterations, rng):
        first = orbits[0]
        return [first, next(o for o in orbits[1:] if o[1] & first[1])]

    monkeypatch.setattr(search, "_ruin_recreate", overlapping)
    with pytest.raises(ValueError, match=r"^search witness: covered twice: "):
        max_packing(2, 3, 4, 3)
    # row 0 of 2x4 is fixed by every column shift
    monkeypatch.setattr(search, "_branch_and_bound", lambda *args: ([(0, 1, 2, 3)], 1, False))
    with pytest.raises(ValueError, match=r"^search witness: block .* has a short orbit$"):
        max_packing(2, 4, 4, 3, heuristic_iterations=0)


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_tree_needs_no_recursion():
    # without an incumbent the 1x16 tree nests 119 open nodes deep
    # before its witness meets the bound
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        result = max_packing(1, 16, 4, 3, heuristic_iterations=0)
    finally:
        sys.setrecursionlimit(limit)
    assert result.proof == "bound"
    assert result.max_blocks == 8


@pytest.mark.parametrize("u, v, k, t, best, digest", [
    (4, 3, 4, 4, 165, "e91b0fe819574f2d"), (3, 5, 4, 2, 3, "835aec087422fcb8"),
])
def test_johnson_bound_stops_heuristic(u, v, k, t, best, digest):
    # the heuristic stops once it meets johnson_bound(u, v, k, t - 1)
    # instead of running all 30,000 iterations, which takes several
    # times the limit below, and meeting that bound proves the optimum
    start = time.perf_counter()
    result = max_packing(u, v, k, t)
    elapsed = time.perf_counter() - start
    assert (result.max_blocks, result.nodes_explored, result.proof) == (best, 0, "bound")
    assert _digest(result) == digest
    assert elapsed < 0.5


def _orbits(u: int, v: int, k: int, t: int) -> tuple:
    """(orbits, orbit_of, members) as max_packing builds them."""
    orbit_of, members = _subset_orbits(u * v, v, t)
    return _build_orbits(u, v, k, t, orbit_of, members), orbit_of, members


def _reps(orbits: list) -> list:
    return [rep for rep, _ in orbits]


@pytest.mark.parametrize("u, v, count, digest", [
    (3, 5, 270, "2640f95ea9c1a1a7"), (2, 9, 324, "a7db297ea56b0a2c"),
])
def test_orbit_list_pinned(u, v, count, digest):
    reps = _reps(_orbits(u, v, 4, 3)[0])
    assert len(reps) == count
    assert hashlib.sha256(repr(reps).encode()).hexdigest()[:16] == digest


def test_orbit_table_built_once(monkeypatch):
    """one max_packing call builds the t-subset orbit table once, for
    the orbit builder, the heuristic and the tree alike"""
    calls = []

    def counted(*args):
        calls.append(args)
        return _subset_orbits(*args)

    monkeypatch.setattr(search, "_subset_orbits", counted)
    result = max_packing(4, 3, 4, 3, heuristic_iterations=20)
    assert result.nodes_explored > 0
    assert calls == [(12, 3, 3)]


def _reference_build_orbits(u: int, v: int, k: int, t: int, index: dict) -> list:
    """The orbit builder that develops all v images of each candidate
    and sets their t-subsets' bits one at a time, one bit per t-subset,
    stopping at the first repeat."""
    orbits = []
    for c in combinations(range(u * v), k):
        if c[0] % v or _orbit(c, v) != (c, 1):
            continue
        mask = 0
        ok = True
        for d in range(v):
            for sub in combinations(_image(c, d, v), t):
                bit = 1 << index[sub]
                if mask & bit:
                    ok = False
                    break
                mask |= bit
            if not ok:
                break
        if ok:
            orbits.append((c, mask))
    return orbits


def _reference_orbits(u: int, v: int, k: int, t: int) -> tuple:
    """(orbits, index) with one mask bit per t-subset, its index in
    combinations(range(uv), t)."""
    index = {sub: i for i, sub in enumerate(combinations(range(u * v), t))}
    return _reference_build_orbits(u, v, k, t, index), index


def _reference_candidates(v: int, t: int, orbits: list, index: dict) -> list:
    """Per t-subset index, the (mask, rep) of every orbit covering it,
    ordered by the other points of the image that holds the t-subset."""
    keyed: list = [[] for _ in range(len(index))]
    for rep, mask in orbits:
        entry = (mask, rep)
        for d in range(v):
            img = _image(rep, d, v)
            for sub in combinations(img, t):
                keyed[index[sub]].append((img, entry))
    return [[entry for _, entry in sorted(options)] for options in keyed]


def _bits(mask: int):
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


# every grid with 4 <= uv <= 16
_SMALL_GRIDS = [(u, n // u) for n in range(4, 17) for u in range(1, n + 1) if n % u == 0]
_BUILDER_KT = [(3, 2), (4, 2), (4, 3), (4, 4), (5, 3), (5, 4)]


@pytest.mark.parametrize("k, t", _BUILDER_KT)
def test_orbit_builder_matches_reference(k, t):
    """The orbit table keeps the same orbits as developing every image,
    and each mask is the reference's full mask condensed to one bit per
    t-subset orbit: each t-subset becomes its least image, and least
    images are numbered in order.  Short t-subset orbits occur here:
    3 | v for t = 3, 2 | v for t = 2 and t = 4."""
    for u, v in _SMALL_GRIDS:
        orbits = _orbits(u, v, k, t)[0]
        reference, index = _reference_orbits(u, v, k, t)
        assert _reps(orbits) == _reps(reference), (u, v)
        least = [min(_image(sub, d, v) for d in range(v)) for sub in index]
        number = {sub: j for j, sub in enumerate(sorted(set(least)))}
        for (_, mask), (_, full) in zip(orbits, reference):
            condensed = {1 << number[least[b]] for b in _bits(full)}
            assert mask == sum(condensed), (u, v)


def _developed_candidates(v: int, t: int, orbits: list, orbit_of: dict, members: list) -> list:
    """Per t-subset orbit, the (mask, rep) of every orbit covering its
    least member, found by developing all v images of each orbit and
    keeping the one that holds that member, sorted by that image."""
    keyed: list = [[] for _ in members]
    for rep, mask in orbits:
        for d in range(v):
            img = _image(rep, d, v)
            for sub in combinations(img, t):
                j = orbit_of[sub]
                if members[j][0] == sub:
                    keyed[j].append((img, (mask, rep)))
    return [[entry for _, entry in sorted(options)] for options in keyed]


@pytest.mark.parametrize("k, t", _BUILDER_KT)
def test_candidates_match_developed_images(k, t):
    """Reading each branching image from the shift-ordered table finds
    the same options, masks and order as developing every image."""
    for u, v in _SMALL_GRIDS + [(2, 11)]:
        orbits, orbit_of, members = _orbits(u, v, k, t)
        assert (_candidates(v, t, orbits, orbit_of, members)
                == _developed_candidates(v, t, orbits, orbit_of, members)), (u, v)


@pytest.mark.parametrize("u, v, k, t, best, nodes, proof, bound", [
    (4, 2, 4, 4, 32, 58, "exhausted", 35),  # the optimum is below the Johnson bound
    (6, 2, 4, 1, 1, 0, "bound", 1),  # a full orbit fills k of the u rows
])
def test_one_cap_for_every_search(u, v, k, t, best, nodes, proof, bound):
    result = max_packing(u, v, k, t)
    assert (result.max_blocks, result.nodes_explored, result.proof) == (best, nodes, proof)
    assert result.upper_bound == bound


def _reference_ruin_recreate(orbits: list, cap, iterations: int, rng: random.Random) -> list:
    """The heuristic written with list filters, rng.randrange and
    rng.shuffle: the bitset version must make exactly these draws."""

    def grow(blocks: list) -> list:
        covered = 0
        for _, mask in blocks:
            covered |= mask
        avail = [o for o in orbits if not o[1] & covered]
        while avail:
            pick = avail[rng.randrange(len(avail))]
            blocks.append(pick)
            avail = [o for o in avail if not o[1] & pick[1]]
        return blocks

    cur = grow([])
    best = list(cur)
    for _ in range(iterations):
        if cap is not None and len(best) >= cap:
            break
        keep = max(0, len(cur) - rng.randrange(2, 7))
        rng.shuffle(cur)
        cur = grow(cur[:keep])
        if len(cur) > len(best):
            best = list(cur)
    return best


@pytest.mark.parametrize("u, v, k, t", [
    (2, 6, 4, 3), (6, 2, 4, 3), (12, 1, 4, 3), (3, 5, 4, 3), (4, 2, 4, 4), (3, 5, 4, 2),
    (2, 10, 4, 3), (5, 4, 4, 3),
])
def test_ruin_recreate_matches_reference(u, v, k, t):
    # 300 iterations stop short of the cap everywhere but 2x6 and
    # (4, 2) on 3x5, which meet it within them; on 2x10 (474 orbits)
    # and 5x4 (1,200) the free bitset spans many 30-bit int digits.
    # The reference grows on its own masks of one bit per t-subset.
    cap = jstar(u, v)[0] if (k, t) == (4, 3) else johnson_bound(u, v, k, t - 1)
    orbits = _orbits(u, v, k, t)[0]
    full = _reference_orbits(u, v, k, t)[0]
    for seed in (1, 2, 3, 20210 + 31 * u + v):
        ours, reference = random.Random(seed), random.Random(seed)
        best = _ruin_recreate(orbits, cap, 300, ours)
        assert _reps(best) == _reps(_reference_ruin_recreate(full, cap, 300, reference))
        assert ours.getstate() == reference.getstate()


_SMALL_CASES = [(u, n // u, k, t) for n in range(3, 11) for u in range(1, n + 1) if n % u == 0
                for k in (3, 4) if k <= n for t in range(1, k + 1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SMALL_CASES), st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_ruin_recreate_matches_reference_property(case, seed, iterations):
    """Any seed and iteration count, stopped where max_packing stops it."""
    u, v, k, t = case
    if (k, t) == (4, 3):
        cap = jstar(u, v)[0]
    else:
        cap = None if t < 2 else johnson_bound(u, v, k, t - 1)
    orbits = _orbits(u, v, k, t)[0]
    full = _reference_orbits(u, v, k, t)[0]
    ours, reference = random.Random(seed), random.Random(seed)
    best = _ruin_recreate(orbits, cap, iterations, ours)
    assert _reps(best) == _reps(_reference_ruin_recreate(full, cap, iterations, reference))
    assert ours.getstate() == reference.getstate()


def _reference_branch_and_bound(v: int, k: int, t: int, orbits: list, index: dict,
                                incumbent: list, cap, node_budget: int,
                                point_bound: bool = False):
    """The tree whose leave branch writes off the target t-subset alone,
    on orbits with one mask bit per t-subset: writing off its whole
    shift orbit must find exactly these reps.
    It prunes with the counting bound, or with point_bound with the
    per-point count at the column-0 points: the f_i free t-subsets
    through (i, 0) leave room for f_i // C(k-1, t-1) more blocks through
    it, and every orbit puts exactly k blocks through those points, so
    the count is sound whether or not the free t-subsets are closed
    under shifts."""
    total_t = len(index)
    per_block = v * comb(k, t)
    if point_bound:
        through: dict = {}  # row -> mask of the t-subsets through (row, 0)
        for sub, i in index.items():
            for p in sub:
                if p % v == 0:
                    through[p // v] = through.get(p // v, 0) | 1 << i
        per_point = comb(k - 1, t - 1)
        room = lambda free, n_used: sum(
            (mask & free).bit_count() // per_point for mask in through.values()) // k
    else:
        room = lambda free, n_used: (total_t - n_used) // per_block
    full = (1 << total_t) - 1
    options_of = _reference_candidates(v, t, orbits, index)
    best = len(incumbent)
    best_blocks = [rep for rep, _ in incumbent]
    nodes = 0
    path: list = []
    stack: list = []
    call = (0, 0, 0)
    while call is not None or stack:
        if call is None:
            frame = stack[-1]
            depth, used, n_used, target, options, pos = frame
            while pos < len(options):
                mask, rep = options[pos]
                pos += 1
                if mask & used:
                    continue
                frame[5] = pos
                del path[depth:]
                path.append(rep)
                call = (depth + 1, used | mask, n_used + per_block)
                break
            else:
                stack.pop()
                if depth + room(full ^ used ^ target, n_used + 1) > best:
                    del path[depth:]
                    call = (depth, used | target, n_used + 1)
            continue

        depth, used, n_used = call
        call = None
        nodes += 1
        if nodes > node_budget:
            return best_blocks, nodes, True
        free = full ^ used
        if not free:
            if depth > best:
                best, best_blocks = depth, path[:depth]
                if cap is not None and best >= cap:
                    break
        elif cap is not None and best >= cap:
            break
        elif depth + room(free, n_used) > best:
            target = free & -free
            stack.append([depth, used, n_used, target, options_of[target.bit_length() - 1], 0])
    return best_blocks, nodes, False


@pytest.mark.parametrize("u, v, k, t", [
    (2, 4, 4, 3), (3, 3, 4, 3), (4, 3, 4, 3), (2, 7, 4, 3), (5, 2, 4, 3), (1, 13, 4, 3),
    (4, 2, 4, 4), (3, 4, 3, 2), (3, 5, 4, 2), (2, 6, 3, 2), (9, 1, 4, 3), (3, 4, 4, 3),
])
def test_orbit_leave_matches_reference(u, v, k, t):
    # the heuristic incumbent is one greedy grow; on the t = 3 grids
    # but 1x13 it falls short of the optimum, so both trees improve on it
    cap = jstar(u, v)[0] if (k, t) == (4, 3) else None
    orbits, orbit_of, members = _orbits(u, v, k, t)
    full, index = _reference_orbits(u, v, k, t)
    grown = _ruin_recreate(orbits, cap, 0, random.Random(20210 + 31 * u + v))
    for incumbent in ([], grown):
        reps, nodes, exhausted = _branch_and_bound(u, v, k, t, orbits, orbit_of, members,
                                                   incumbent, cap, 10**7)
        ref_reps, ref_nodes, _ = _reference_branch_and_bound(v, k, t, full, index,
                                                             incumbent, cap, 10**7,
                                                             point_bound=True)
        assert reps == ref_reps
        assert not exhausted and nodes <= ref_nodes


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SMALL_CASES), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_slot_bound_matches_reference(case, seed):
    """The reference tree prunes with the counting bound alone: the pair
    bound may only cut nodes, never change the reps found, whether the
    walk starts from no incumbent or from a greedy grow of some seed.
    A reference that runs out of its budget decides nothing."""
    u, v, k, t = case
    cap = jstar(u, v)[0] if (k, t) == (4, 3) else None
    orbits, orbit_of, members = _orbits(u, v, k, t)
    full, index = _reference_orbits(u, v, k, t)
    incumbent = [] if seed is None else _ruin_recreate(orbits, cap, 0, random.Random(seed))
    ref_reps, ref_nodes, ref_exhausted = _reference_branch_and_bound(
        v, k, t, full, index, incumbent, cap, 50_000)
    assume(not ref_exhausted)
    reps, nodes, exhausted = _branch_and_bound(u, v, k, t, orbits, orbit_of, members,
                                               incumbent, cap, 50_000)
    assert reps == ref_reps
    assert not exhausted and nodes <= ref_nodes


def _row_leave_orbits(v: int, t: int, index: dict) -> list:
    """Per t-subset index, the (mask, rows) of its orbit under column
    shifts, rows holding per row i that its members meet the mask of
    all t-subsets through point (i, 0) and how many members pass
    through that point."""
    through: dict = {}  # row -> mask of the t-subsets through (row, 0)
    for sub, i in index.items():
        for p in sub:
            if p % v == 0:
                through[p // v] = through.get(p // v, 0) | 1 << i
    table: list = [None] * len(index)
    for sub, i in index.items():
        if table[i] is None:
            images = {_image(sub, d, v) for d in range(v)}
            lost: dict = {}
            for img in images:
                for p in img:
                    if p % v == 0:
                        lost[p // v] = lost.get(p // v, 0) + 1
            entry = (sum(1 << index[img] for img in images),
                     tuple((through[row], n) for row, n in sorted(lost.items())))
            for img in images:
                table[index[img]] = entry
    return table


def _row_bound_branch_and_bound(v: int, k: int, t: int, orbits: list, index: dict,
                                incumbent: list, cap, node_budget: int):
    """The tree pruned with the per-row slot bound, the first level of
    Johnson's bound: row i has f_i // C(k-1, t-1) slots, f_i the free
    t-subsets through point (i, 0)."""
    n = next(reversed(index))[-1] + 1
    per_point = comb(k - 1, t - 1)
    through_point = comb(n - 1, t - 1)
    full = (1 << len(index)) - 1
    options_of = _reference_candidates(v, t, orbits, index)
    leave_of = _row_leave_orbits(v, t, index)
    best = len(incumbent)
    best_blocks = [rep for rep, _ in incumbent]
    nodes = 0
    stack: list = [(0, 0, n // v * (through_point // per_point), None, None)]
    while stack:
        depth, used, slots, chosen, leave = stack.pop()
        if leave is not None:
            orbit, rows = leave
            for row_mask, lost in rows:
                free_here = through_point - (row_mask & used).bit_count()
                slots += (free_here - lost) // per_point - free_here // per_point
            if depth + slots // k <= best:
                continue
            used |= orbit
        nodes += 1
        if nodes > node_budget:
            return best_blocks, nodes, True
        free = full ^ used
        if not free:
            if depth > best:
                best, best_blocks = depth, []
                while chosen is not None:
                    rep, chosen = chosen
                    best_blocks.append(rep)
                best_blocks.reverse()
                if cap is not None and best >= cap:
                    break
        elif cap is not None and best >= cap:
            break
        elif depth + slots // k > best:
            target = (free & -free).bit_length() - 1
            stack.append((depth, used, slots, chosen, leave_of[target]))
            for mask, rep in reversed(options_of[target]):
                if not mask & used:
                    stack.append((depth + 1, used | mask, slots - k, (rep, chosen), None))
    return best_blocks, nodes, False


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SMALL_CASES), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_pair_bound_matches_row_bound(case, seed):
    """The pair bound is at least as sharp as the row slot bound and as
    sound: the same reps in no more nodes, from no incumbent or from a
    greedy grow of some seed, t = 1 (no pair level) included."""
    u, v, k, t = case
    cap = jstar(u, v)[0] if (k, t) == (4, 3) else None
    orbits, orbit_of, members = _orbits(u, v, k, t)
    full, index = _reference_orbits(u, v, k, t)
    incumbent = [] if seed is None else _ruin_recreate(orbits, cap, 0, random.Random(seed))
    ref_reps, ref_nodes, ref_exhausted = _row_bound_branch_and_bound(
        v, k, t, full, index, incumbent, cap, 10**6)
    reps, nodes, exhausted = _branch_and_bound(u, v, k, t, orbits, orbit_of, members,
                                               incumbent, cap, 10**6)
    assert not ref_exhausted and not exhausted
    assert reps == ref_reps
    assert nodes <= ref_nodes


def test_root_slots_are_johnson():
    """at the root the pair bound is johnson_bound(u, v, k, t - 1)"""
    grids = [(u, v, k) for u, v, k, t in _SMALL_CASES if t == 2]
    for u, v, k in grids + [(12, 1, 4), (6, 2, 4), (5, 4, 4)]:
        for t in (2, 3):
            _, _, per_block, root = _pair_level(u * v, k, t)
            assert u * (root // per_block) // k == johnson_bound(u, v, k, t - 1), (u, v, k, t)
