from __future__ import annotations

import json
import re
from importlib import resources

import pytest

from ooc2d.catalog import catalog_get
from ooc2d.core import Point
from ooc2d.designs import (CYCLIC, INF, REGULAR, FanDesign, GroupType, HDesign,
                           RoSQSDesign, admissible_0fg, develop_family,
                           exists_0fg_quad, exists_h_design, fan_shift,
                           group_type, rosqs_shift, verify_fan,
                           verify_h_cyclic, verify_h_design, verify_regular,
                           verify_rosqs)


def test_catalog_fans_verify():
    for entry_id in ["fan-plain-4^2", "fg-4^2-s2c", "fg-6^2-s3c"]:
        d = catalog_get(entry_id).payload
        assert verify_fan(d).ok
        assert verify_h_cyclic(d, strict=True).ok


def test_regular_fan_verifies():
    d = catalog_get("fg-(2,4)reg-8^2").payload
    assert verify_fan(d).ok
    assert verify_regular(d, strict=True).ok


def test_action_shape_mismatch_raises():
    d = catalog_get("fg-4^2-s2c").payload
    with pytest.raises(ValueError):
        verify_regular(d)


def test_group_sizes():
    assert catalog_get("fg-6^3-s3c").payload.group_sizes() == group_type([6, 6, 6])
    assert catalog_get("fg-(2,2)reg-4^2").payload.group_sizes() == group_type([4, 4])


def test_developed_regular_view_of_plain_fan():
    """the plain two-group fan on 8 points, reread on the 2x4 grid with
    columns acting, is invariant but not strictly so."""
    raw = json.loads(resources.files("ooc2d.data").joinpath("catalog.json").read_text())
    blocks = raw["entries"]["fan-plain-4^2"]["source"]["terminal"]
    relabeled = tuple(tuple(sorted(Point(x // 4, x % 4) for x in b)) for b in blocks)
    d = FanDesign(s=0, shape=REGULAR, h=2, layers=(), terminal=relabeled,
                  u=2, v=4, developed=True)
    assert verify_fan(d).ok
    assert verify_regular(d, strict=False).ok
    assert not verify_regular(d, strict=True).ok

    lengths = []
    seen = set()
    for b in relabeled:
        if b in seen:
            continue
        images = {fan_shift(d, b, delta) for delta in range(d.v)}
        seen |= images
        lengths.append(len(images))
    assert sorted(lengths) == [1, 1, 2, 4, 4]


def test_develop_family_detects_collision():
    d = catalog_get("fg-4^2-s2c").payload
    b = d.terminal[0]
    _, _, problem = develop_family(d, [b, fan_shift(d, b, 1)])
    assert problem is not None


def test_develop_family_closure_check():
    # dropping one block from a length-4 orbit breaks closure
    raw = json.loads(resources.files("ooc2d.data").joinpath("catalog.json").read_text())
    blocks = raw["entries"]["fan-plain-4^2"]["source"]["terminal"]
    relabeled = [tuple(sorted(Point(x // 4, x % 4) for x in b)) for b in blocks]
    probe = FanDesign(s=0, shape=REGULAR, h=2, layers=(), terminal=tuple(relabeled),
                      u=2, v=4, developed=True)
    moving = next(b for b in relabeled if fan_shift(probe, b, 1) != b)
    relabeled.remove(moving)
    d = FanDesign(s=0, shape=REGULAR, h=2, layers=(), terminal=tuple(relabeled),
                  u=2, v=4, developed=True)
    _, _, problem = develop_family(d, d.terminal)
    assert problem is not None


@pytest.mark.parametrize("entry_id, block, point", [
    ("fg-4^2-s2c", ((0, 0, 0), (5, 0, 0)), (5, 0, 0)),
    ("fg-4^2-s2c", ((0, 0, 0), (0, 0, 2)), (0, 0, 2)),
    ("fg-(2,2)reg-4^2", (Point(0, 0), Point(0, 7)), Point(0, 7)),
], ids=["cyclic group", "cyclic period", "regular column"])
def test_fan_shift_refuses_a_point_outside_the_universe(entry_id, block, point):
    """once a bare KeyError; before that an IndexError, or on the regular
    shape a block moved to another row"""
    message = "block %r has point %r outside the universe of int points" % (block, point)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        fan_shift(catalog_get(entry_id).payload, block)


@pytest.mark.parametrize("block, message", [
    (((0, 0, 0), (0, 0, True)), "has point (0, 0, True) outside the universe of int points"),
    (((0, 0, 0), (1.0, 0, 0)), "has point (1.0, 0, 0) outside the universe of int points"),
    (((0, 0, 0), (2, 0, 0)), "has point (2, 0, 0) outside the universe of int points"),
    (((0, 0, 1), (0, 0, 1)), "is not sorted or repeats a point"),
], ids=["bool", "float", "outside", "repeat"])
def test_develop_family_refuses_blocks_the_constructor_refuses(block, message):
    """develop_family read a True coordinate as 1"""
    d = catalog_get("fg-4^2-s2c").payload
    with pytest.raises(ValueError, match="^" + re.escape("block %r %s" % (block, message)) + "$"):
        develop_family(d, [block])


def test_foreign_blocks_may_be_unsorted():
    d = catalog_get("fg-4^2-s2c").payload
    b = ((1, 0, 0), (0, 0, 0))
    assert fan_shift(d, b) == ((0, 0, 1), (1, 0, 1))
    assert develop_family(d, [b])[0] == [((0, 0, 0), (1, 0, 0)), ((0, 0, 1), (1, 0, 1))]


def test_h_design_verifies():
    d = catalog_get("h-4-2-4-3").payload
    assert verify_h_design(d).ok
    assert (d.n, d.g) == (4, 2)


def test_h_design_missing_block_fails():
    d = catalog_get("h-4-2-4-3").payload
    broken = HDesign(n=d.n, l=d.l, h=d.h, t=d.t, base_blocks=d.base_blocks[1:])
    assert not verify_h_design(broken).ok


def test_rosqs_verifies():
    r = catalog_get("rosqs8").payload
    assert verify_rosqs(r).ok
    assert len(r.b1()) + len(r.b2()) == len(r.base_blocks)
    for b in r.b1():
        assert INF in b
    for b in r.b2():
        assert INF not in b


def test_rosqs_shift_fixes_infinity():
    b = (INF, 0, 2, 5)
    shifted = rosqs_shift(b, 3, 7)
    assert INF in shifted
    assert set(shifted) == {INF, 3, 5, 1}


@pytest.mark.parametrize("block, message", [
    ((INF, 0, 1, 9), "block (-1, 0, 1, 9) has point 9 outside the universe of int points"),
    ((0, 1, True, 3), "block (0, 1, True, 3) has point True outside the universe of int points"),
    ((0, 1.0, 2, 3), "block (0, 1.0, 2, 3) has point 1.0 outside the universe of int points"),
    ((-2, 0, 1, 2), "block (-2, 0, 1, 2) has point -2 outside the universe of int points"),
    ((0, 1, 1, 3), "block (0, 1, 1, 3) repeats a point"),
    ((INF, INF, 0, 1), "block (-1, -1, 0, 1) repeats a point"),
], ids=["outside", "bool", "float", "below", "repeat", "repeat inf"])
def test_rosqs_shift_refuses_a_bad_point(block, message):
    """once a point 10 outside Z_7, or True read as 1 and repeated"""
    with pytest.raises(ValueError) as info:
        rosqs_shift(block, 1, 7)
    assert str(info.value) == message


@pytest.mark.parametrize("parts, message", [
    (((0, 1),), "bad group type part (0, 1)"),
    (((2, 0),), "bad group type part (2, 0)"),
    (((2, 1), (3, 1)), "parts must be sorted descending with distinct sizes"),
    (((2, 1), (2, 3)), "parts must be sorted descending with distinct sizes"),
], ids=["size", "count", "ascending", "repeated size"])
def test_group_type_refusals(parts, message):
    with pytest.raises(ValueError) as info:
        GroupType(parts=parts)
    assert str(info.value) == message


def test_rosqs_wrong_order_rejected():
    r = RoSQSDesign(n=9, base_blocks=((0, 1, 2, 3),))
    assert not verify_rosqs(r).ok


def test_admissibility_predicates():
    # instances shipped in the catalog witness the positive cases
    assert exists_0fg_quad(6, 3)
    assert exists_0fg_quad(6, 5)
    assert admissible_0fg(6, 3)
    assert admissible_0fg(6, 5)
    assert exists_0fg_quad(1, 8)
    assert not exists_0fg_quad(1, 6)
    assert not exists_0fg_quad(3, 3)
    assert not exists_0fg_quad(2, 3)


@pytest.mark.parametrize("sizes", [(), (1,), (2,), (2, 2), (1, 4), (0, 3)])
def test_admissible_0fg_refuses_bad_terminal_sizes(sizes):
    """a size below 2, or no size of 3 or more, makes every gcd 0"""
    with pytest.raises(ValueError, match=r"^terminal sizes must be .*, got %s$"
                       % re.escape(repr(sizes))):
        admissible_0fg(6, 3, sizes)


def test_admissible_0fg_keeps_its_answers():
    grids = [(6, 3), (1, 4), (3, 3), (2, 5), (1, 8), (4, 4)]
    assert all(admissible_0fg(g, n, (3,)) for g, n in grids)
    assert [admissible_0fg(g, n, (2, 4)) for g, n in grids] == [True, True, False, True,
                                                                 True, True]


def test_h_design_existence_predicate():
    assert exists_h_design(4, 4)
    assert exists_h_design(4, 1)
    assert not exists_h_design(5, 2)
    assert exists_h_design(5, 4)
    assert not exists_h_design(5, 58)
    with pytest.raises(ValueError):
        exists_h_design(3, 4)


def _cyclic_fan(block):
    return FanDesign(s=0, shape=CYCLIC, h=2, layers=(), terminal=(block,), g_list=(2, 2))


def _regular_fan(block):
    return FanDesign(s=0, shape=REGULAR, h=1, layers=(), terminal=(block,), u=2, v=2)


def _h_design(block):
    return HDesign(n=4, l=1, h=2, t=3, base_blocks=(block,))


def _rosqs(block):
    return RoSQSDesign(n=8, base_blocks=(block,))


P = Point
_REFUSED_BLOCKS = [
    (_cyclic_fan, ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, True))),
    (_cyclic_fan, ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1.0))),
    (_cyclic_fan, ((0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 0, 0))),
    (_cyclic_fan, ((0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1))),
    (_cyclic_fan, ((0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1))),
    (_cyclic_fan, ((0, 0), (0, 1), (1, 0), (1, 1))),
    (_cyclic_fan, ((0, 0, 0),)),
    (_regular_fan, (P(0, 0), P(0, 1), P(1, 0), P(1, True))),
    (_regular_fan, (P(0, 0), P(0, 1), P(1, 0), P(1, 1.0))),
    (_regular_fan, (P(0, 0), P(0, 1), P(1, 0), P(2, 0))),
    (_regular_fan, (P(0, 1), P(0, 0), P(1, 0), P(1, 1))),
    (_regular_fan, (P(0, 0), P(0, 0), P(1, 0), P(1, 1))),
    (_h_design, ((0, 0, 0), (1, 0, 0), (2, 0, True), (3, 0, 0))),
    (_h_design, ((0, 0, 0), (1, 0, 0), (2, 0, 1.0), (3, 0, 0))),
    (_h_design, ((0, 0, 0), (1, 0, 0), (2, 0, 2), (3, 0, 0))),
    (_h_design, ((1, 0, 0), (0, 0, 0), (2, 0, 1), (3, 0, 0))),
    (_h_design, ((0, 0, 0), (0, 0, 0), (2, 0, 1), (3, 0, 0))),
    (_h_design, ((0, 0, 0), (0, 0, 1), (2, 0, 1), (3, 0, 0))),
    (_rosqs, (INF, 0, True, 3)),
    (_rosqs, (INF, 0, 1.0, 3)),
    (_rosqs, (INF, 0, 1, 7)),
    (_rosqs, (0, INF, 1, 3)),
    (_rosqs, (INF, 0, 0, 3)),
    (_rosqs, (INF, 0, 1)),
]


@pytest.mark.parametrize("make, block", _REFUSED_BLOCKS, ids=[
    "cyclic bool", "cyclic float", "cyclic out of range", "cyclic unsorted", "cyclic repeated",
    "cyclic two coordinates", "cyclic one point",
    "regular bool", "regular float", "regular out of range", "regular unsorted",
    "regular repeated",
    "h bool", "h float", "h out of range", "h unsorted", "h repeated", "h not transversal",
    "rosqs bool", "rosqs float", "rosqs out of range", "rosqs unsorted", "rosqs repeated",
    "rosqs three points"])
def test_design_constructor_refuses_block(make, block):
    """a bool or float equal to an int coordinate is refused like one out
    of range: the file writer would print it as true or 1.0, and the
    reader refuses both"""
    with pytest.raises(ValueError, match="^block %s " % re.escape(repr(block))):
        make(block)


@pytest.mark.parametrize("fields, message", [
    (dict(shape="toroidal", g_list=(2,)), "unknown universe shape 'toroidal'"),
    (dict(shape=CYCLIC, s=1, g_list=(2,)), "s=1 but 0 layers given"),
    (dict(shape=CYCLIC, h=0, g_list=(2,)), "h must be positive"),
    (dict(shape=CYCLIC, g_list=(2, 0)), "cyclic shape needs positive fibre sizes"),
    (dict(shape=CYCLIC, g_list=(2,), u=2, v=2), "u, v are for the regular shape"),
    (dict(shape=REGULAR, u=0, v=2), "regular shape needs positive u, v"),
    (dict(shape=REGULAR, h=2, u=2, v=3), "h=2 must divide v=3"),
    (dict(shape=REGULAR, u=2, v=2, g_list=(2,)), "g_list is for the cyclic shape"),
], ids=["unknown shape", "layer count", "zero h", "zero fibre", "cyclic with u, v",
        "regular zero u", "h not dividing v", "regular with g_list"])
def test_fan_design_refuses_shape_fields(fields, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        FanDesign(**dict(dict(s=0, h=1, layers=(), terminal=()), **fields))
