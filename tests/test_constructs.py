from __future__ import annotations

import re
from itertools import combinations

import pytest

from ooc2d.catalog import catalog_get
from ooc2d.constructs import (add_cross_pairs_layer, as_semicyclic,
                              complete_pair_fan, filling_1, filling_2, fold,
                              hartman, hartman_part_sizes,
                              perfect_to_regular_1fg, regular_to_h1cyclic,
                              semicyclic_to_vcyclic, trivial_packing, weighting_1,
                              weighting_2, weighting_3)
from ooc2d.core import Point, as_block, canonicalize, make_packing
from ooc2d.correlation import packing_to_code, verify_ooc
from ooc2d.designs import (CYCLIC, FanDesign, HDesign, RoSQSDesign, verify_fan, verify_h_cyclic,
                           verify_h_design)
from ooc2d.packing import is_perfect, verify_packing


def _cat(entry_id):
    return catalog_get(entry_id).payload


def test_hartman_counts_and_perfection():
    p, trace = hartman(_cat("rosqs8"))
    assert (p.u, p.v) == (2, 7)
    assert p.num_base_blocks == 13
    assert is_perfect(p)
    assert sum(delta for _, delta in trace.steps) == 13


def test_hartman_part_sizes():
    assert hartman_part_sizes(_cat("rosqs8")) == (2, 2, 9)
    assert sum(hartman_part_sizes(_cat("rosqs8"))) == 13


def test_hartman_rejects_broken_system():
    with pytest.raises(ValueError):
        hartman(RoSQSDesign(n=8, base_blocks=()))


def test_filling_1_counts():
    p, trace = filling_1(_cat("fg-4^2-s2c"), {2: trivial_packing(2, 2)})
    assert (p.u, p.v, p.num_base_blocks) == (4, 2, 6)
    assert dict(trace.steps)["master blocks"] == 6

    p, _ = filling_1(_cat("fg-6^2-s3c"), {2: _cat("small-(2,3)")})
    assert (p.u, p.v, p.num_base_blocks) == (4, 3, 17)


def test_filling_1_missing_filler():
    with pytest.raises(ValueError):
        filling_1(_cat("fg-6^2-s3c"), {})


def test_filling_1_wrong_filler_grid():
    with pytest.raises(ValueError):
        filling_1(_cat("fg-6^2-s3c"), {2: _cat("small-(3,2)")})


def test_filling_2_counts():
    p, _ = filling_2(_cat("fg-(2,2)reg-4^2"), trivial_packing(2, 2))
    assert (p.u, p.v, p.num_base_blocks) == (2, 4, 3)
    q, _ = filling_2(_cat("fg-(2,4)reg-8^2"), p)
    assert (q.u, q.v, q.num_base_blocks) == (2, 8, 17)


def test_weighting_glue_on_pairs():
    fan, _ = weighting_1(complete_pair_fan(4)[0], {2: _cat("fg-4^2-s2c")},
                         {4: _h44_2cyc()})
    assert fan.shape == CYCLIC
    assert tuple(fan.g_list) == (2, 2, 2, 2)
    assert fan.h == 2
    assert len(fan.terminal) == 68
    assert verify_fan(fan).ok
    assert verify_h_cyclic(fan, strict=True).ok


def test_weighting_layered_ingredient():
    """an ingredient fan with a layer glues it onto every master layer
    block, so the output keeps the master's layer"""
    quadruple = HDesign(n=4, l=1, h=1, t=3,
                        base_blocks=(tuple((x, 0, 0) for x in range(4)),))
    fan, trace = weighting_1(complete_pair_fan(4)[0], {2: complete_pair_fan(2)[0]}, {4: quadruple})
    pairs = tuple(combinations([(x, 0, 0) for x in range(4)], 2))
    assert (fan.s, fan.layers) == (1, (pairs,))
    assert sorted(fan.terminal) == sorted(pairs + quadruple.base_blocks)
    assert tuple(delta for _, delta in trace.steps) == (12, 1)
    assert verify_fan(fan, strict=True).ok


def _h44_2cyc():
    seed = _cat("h-4-2-4-3")
    semi, _ = as_semicyclic(seed)
    h, _ = weighting_3(seed, {4: semi})
    return h


@pytest.mark.parametrize("op, entry, message", [
    (weighting_1, "fg-(2,2)reg-4^2", "weighting_1 master must use the cyclic shape"),
    (weighting_2, "fan-plain-3^3", "weighting_2 master must use the regular shape"),
    (weighting_1, "fan-plain-4^2", "weighting_1 master must have exactly one layer"),
    (weighting_2, "fg-(2,2)reg-4^2", "weighting_2 master must have exactly one layer"),
])
def test_weighting_master_messages(op, entry, message):
    """both weightings share one body and keep their own messages"""
    with pytest.raises(ValueError, match=r"^%s$" % re.escape(message)):
        op(_cat(entry), {}, {})


def test_weighting_1_unequal_fibres():
    a, b, c = (0, 0, 0), (1, 0, 0), (1, 1, 0)
    master = FanDesign(s=1, shape=CYCLIC, h=1, layers=(((a, b), (a, c)),),
                       terminal=((a, b, c),), g_list=(1, 2))
    with pytest.raises(ValueError, match="^master groups must share one fibre size$"):
        weighting_1(master, {}, {})


def _unequal_empty_master():
    return weighting_1(FanDesign(s=1, shape=CYCLIC, h=1, layers=((),), terminal=(),
                                 g_list=(1, 2)), {}, {})


def _empty_layer_ingredient():
    empty = FanDesign(s=0, shape=CYCLIC, h=1, layers=(), terminal=(), g_list=(2, 2))
    return weighting_1(complete_pair_fan(4)[0], {2: empty}, {})


def _double_covered_perfect_input():
    return perfect_to_regular_1fg(make_packing(2, 7, 4, 3, [
        [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 0), (1, 2)]]))


@pytest.mark.parametrize("build, message", [
    # unequal fibres break a precondition and the missing blocks break
    # the verdict: the gate runs first, so the verdict is reported
    (_unequal_empty_master,
     "weighting_1 master: triple ((0, 0, 0), (1, 0, 0), (1, 1, 0)) covered 0 times, expected 1"),
    (_empty_layer_ingredient,
     "ingredient for layer blocks of size 2: triple ((0, 0, 0), (0, 1, 0), (1, 0, 0))"
     " covered 0 times, expected 1"),
    (_double_covered_perfect_input,
     "perfect_to_regular_1fg input: covered twice: ((Point(row=0, col=0), Point(row=0, col=1),"
     " Point(row=1, col=0)), 2)"),
])
def test_construction_input_is_refused_for_its_verdict(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


@pytest.mark.parametrize("op, args, message", [
    (weighting_1, ("pairfan", {2: "h-4-2-4-3"}, {4: "h-4-2-4-3"}),
     "ingredient for layer blocks of size 2 is a HDesign, not a fan design"),
    (weighting_1, ("pairfan", {2: "fg-4^2-s2c"}, {4: "rosqs8"}),
     "H ingredient for size 4 is a RoSQSDesign, not an H design"),
    (weighting_3, ("h-4-2-4-3", {4: "rosqs8"}),
     "H ingredient for size 4 is a RoSQSDesign, not an H design"),
])
def test_weighting_wrong_kind_ingredient(op, args, message):
    """a library caller passing the wrong kind of ingredient gets a
    ValueError naming the size, not an AttributeError"""
    master, *slots = args
    master = complete_pair_fan(4)[0] if master == "pairfan" else _cat(master)
    slots = [{size: _cat(entry) for size, entry in slot.items()} for slot in slots]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        op(master, *slots)


@pytest.mark.parametrize("op, args, message", [
    (hartman, ("fg-4^2-s2c",), "hartman input is a FanDesign, not a rotational system"),
    (filling_1, ("rosqs8", {}), "filling_1 master is a RoSQSDesign, not a fan design"),
    (filling_1, ("fg-6^2-s3c", {2: "h-4-2-4-3"}),
     "filling_1 filler for fibre 2 is a HDesign, not a packing"),
    (filling_2, ("small-(2,3)", "small-(2,3)"),
     "filling_2 master is a CyclicPacking, not a fan design"),
    (filling_2, ("fg-(2,2)reg-4^2", "fg-4^2-s2c"), "filling_2 filler is a FanDesign, not a packing"),
    (as_semicyclic, ("fg-4^2-s2c",), "as_semicyclic input is a FanDesign, not an H design"),
    (semicyclic_to_vcyclic, ("h-4-2-4-3",),
     "semicyclic_to_vcyclic input is a HDesign, not a fan design"),
    (regular_to_h1cyclic, ("rosqs8", 1), "regular_to_h1cyclic input is a RoSQSDesign, not a fan design"),
    (add_cross_pairs_layer, ("small-(2,3)",),
     "add_cross_pairs_layer input is a CyclicPacking, not a fan design"),
    (perfect_to_regular_1fg, ("fg-(2,2)reg-4^2",),
     "perfect_to_regular_1fg input is a FanDesign, not a packing"),
    (fold, ("small-(2,3)", 1), "fold input is a CyclicPacking, not a code"),
    (weighting_1, ("h-4-2-4-3", {}, {}), "weighting_1 master is a HDesign, not a fan design"),
    (weighting_2, ("small-(2,3)", {}, {}), "weighting_2 master is a CyclicPacking, not a fan design"),
    (weighting_3, ("fg-4^2-s2c", {}), "weighting_3 master is a FanDesign, not an H design"),
])
def test_construction_wrong_kind_input(op, args, message):
    """a library caller passing a catalog object of the wrong kind gets
    a ValueError naming the expected kind, not an AttributeError"""
    first, *rest = args
    rest = [{size: _cat(entry) for size, entry in arg.items()} if isinstance(arg, dict)
            else _cat(arg) if isinstance(arg, str) else arg for arg in rest]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        op(_cat(first), *rest)


def test_weighting_3_bootstraps():
    seed = _cat("h-4-2-4-3")
    plain, _ = weighting_3(seed, {4: seed})
    assert (plain.n, plain.l, plain.h) == (4, 4, 1)
    assert len(plain.base_blocks) == 64
    two_cyc = _h44_2cyc()
    assert (two_cyc.n, two_cyc.l, two_cyc.h) == (4, 2, 2)
    assert len(two_cyc.base_blocks) == 32


def test_as_semicyclic():
    semi, _ = as_semicyclic(_cat("h-4-2-4-3"))
    assert (semi.n, semi.l, semi.h) == (4, 1, 2)
    assert len(semi.base_blocks) == 4
    with pytest.raises(ValueError):
        as_semicyclic(semi)


def _swap_rows_of_group_0(d: HDesign) -> HDesign:
    """d with y = 0 and y = 1 swapped in group 0 only: still an H design"""
    swap = {(0, 0): 1, (0, 1): 0}
    blocks = (tuple(sorted((x, swap.get((x, y), y), j) for x, y, j in b))
              for b in d.base_blocks)
    return HDesign(n=d.n, l=d.l, h=d.h, t=d.t, base_blocks=tuple(sorted(blocks)))


@pytest.mark.parametrize("design, message", [
    (lambda: _swap_rows_of_group_0(weighting_3(_cat("h-4-2-4-3"), {4: _cat("h-4-2-4-3")})[0]),
     "orbits do not partition the block set"),
    (_h44_2cyc, "input must be a plain H design"),
])
def test_as_semicyclic_refusals(design, message):
    """valid H designs as_semicyclic refuses: a plain one whose blocks
    are not whole orbits under Z_l, and one that is not plain.  No valid
    design reaches the short orbit refusal: a transversal block has a
    trivial stabilizer"""
    d = design()
    assert verify_h_design(d).ok
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        as_semicyclic(d)


def test_add_cross_pairs_layer_matches_pinned_orbits():
    layered, _ = add_cross_pairs_layer(_cat("fg-(2,2)reg-4^2"))
    assert layered.s == 1
    got = set(layered.layers[0])
    pinned = {
        tuple(sorted([Point(0, 0), Point(0, 1)])),
        tuple(sorted([Point(0, 0), Point(1, 1)])),
        tuple(sorted([Point(1, 0), Point(1, 1)])),
        tuple(sorted([Point(0, 0), Point(1, 3)])),
    }
    canon = {min(tuple(sorted(Point(p.row, (p.col + d) % 4) for p in b))
                 for d in range(4)) for b in got}
    canon_pinned = {min(tuple(sorted(Point(p.row, (p.col + d) % 4) for p in b))
                        for d in range(4)) for b in pinned}
    assert canon == canon_pinned


def test_fold_to_single_column():
    p, _ = hartman(_cat("rosqs8"))
    code, trace = fold(packing_to_code(p), 7)
    assert (code.u, code.v) == (14, 1)
    assert code.size == 91
    assert verify_ooc(code).ok
    assert dict(trace.steps)["translated copies"] == 91


def test_fold_by_one_keeps_code():
    p = _cat("small-(2,3)")
    code, _ = fold(packing_to_code(p), 1)
    assert (code.u, code.v, code.size) == (2, 3, 1)


def test_fold_rejects_bad_divisor():
    p = _cat("small-(2,3)")
    with pytest.raises(ValueError):
        fold(packing_to_code(p), 2)


def test_regular_to_h1cyclic():
    out, _ = regular_to_h1cyclic(_cat("fg-(2,4)reg-8^2"), 2)
    assert out.shape == CYCLIC
    assert tuple(out.g_list) == (4, 4)
    assert out.h == 2
    assert len(out.terminal) == 56
    assert verify_fan(out).ok
    assert verify_h_cyclic(out, strict=True).ok


def test_perfect_to_regular_1fg():
    p, _ = hartman(_cat("rosqs8"))
    fan, _ = perfect_to_regular_1fg(p)
    assert fan.s == 1
    assert len(fan.layers[0]) == 12
    assert len(fan.terminal) == 13
    assert verify_fan(fan).ok


def test_complete_pair_fan():
    fan, trace = complete_pair_fan(4)
    assert trace.inputs == () and trace.steps == (("pair and quadruple blocks", 7),)
    assert fan.s == 1
    assert len(fan.layers[0]) == 6
    assert len(fan.terminal) == 1
    assert verify_fan(fan).ok


def test_trivial_packing_is_empty():
    p = trivial_packing(2, 2)
    assert p.num_base_blocks == 0
    assert verify_packing(p).valid


def test_regular_to_h1cyclic_keeps_an_empty_layer():
    """an empty layer is the same () as an empty terminal class"""
    d = FanDesign(s=1, shape="regular", h=2, layers=((),), terminal=(), u=1, v=2)
    assert verify_fan(d, strict=True).ok
    out, _ = regular_to_h1cyclic(d, 1)
    assert (out.s, out.layers, out.terminal) == (1, ((),), ())
    assert verify_fan(out, strict=True).ok
