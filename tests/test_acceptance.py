"""Acceptance suite.

One test per criterion; each prints a single PASS line when it
finishes, so a verbose run reads as a checklist.
"""

from __future__ import annotations

import random

from ooc2d.bounds import (EXCLUDED_COR5_5, NOT_ADMISSIBLE, jstar,
                          perfect_class)
from ooc2d.catalog import catalog_get, catalog_ids
from ooc2d.cli import main as cli_main
from ooc2d.constructs import (add_cross_pairs_layer, complete_pair_fan,
                              filling_1, filling_2, hartman,
                              hartman_part_sizes, trivial_packing,
                              weighting_1, weighting_2)
from ooc2d.core import CyclicPacking, Point, as_block, canonicalize
from ooc2d.correlation import packing_to_code, verify_ooc
from ooc2d.designs import (CYCLIC, group_type, verify_fan, verify_h_cyclic,
                           verify_h_design, verify_regular, verify_rosqs)
from ooc2d.files import load_design, save_design
from ooc2d.packing import is_perfect, verify_packing
from ooc2d.pipelines import run_pipeline
from ooc2d.search import max_packing

# every numeric cell of the published size table for 6 <= uv <= 34
TABLE_SIZES = {
    (2, 3): 1, (3, 2): 1, (2, 4): 3, (4, 2): 6, (3, 3): 6, (2, 5): 6,
    (5, 2): 15, (2, 6): 8, (3, 4): 12, (4, 3): 17, (6, 2): 25, (2, 7): 13,
    (7, 2): 44, (3, 5): 21, (5, 3): 35, (2, 8): 17, (4, 4): 34, (8, 2): 68,
    (2, 9): 22, (3, 6): 33, (6, 3): 66, (9, 2): 99, (2, 10): 28, (4, 5): 57,
    (5, 4): 70, (10, 2): 140, (3, 7): 45, (7, 3): 105, (2, 11): 35,
    (2, 12): 41, (4, 6): 82, (8, 3): 166, (12, 2): 248, (5, 5): 110,
    (2, 13): 50, (13, 2): 325, (3, 9): 78, (9, 3): 234, (2, 14): 58,
    (4, 7): 117, (7, 4): 203, (14, 2): 406, (2, 15): 67, (3, 10): 100,
    (6, 5): 201, (10, 3): 335, (2, 16): 77, (4, 8): 154, (8, 4): 308,
    (16, 2): 616, (3, 11): 120, (11, 3): 440, (2, 17): 88, (17, 2): 748,
}

# the worked 2x7 optimum, written as (row, col) quadruples
WORKED_2X7 = [
    [(0, 0), (0, 1), (0, 2), (0, 5)],
    [(1, 0), (0, 0), (0, 1), (0, 3)],
    [(0, 0), (0, 1), (1, 1), (1, 2)],
    [(0, 0), (0, 1), (1, 3), (1, 4)],
    [(0, 0), (0, 1), (1, 5), (1, 6)],
    [(0, 0), (0, 3), (1, 3), (1, 6)],
    [(0, 0), (0, 3), (1, 2), (1, 5)],
    [(0, 0), (0, 3), (1, 1), (1, 4)],
    [(0, 1), (0, 3), (1, 2), (1, 4)],
    [(0, 1), (0, 3), (1, 6), (1, 1)],
    [(0, 1), (0, 3), (1, 3), (1, 5)],
    [(1, 0), (1, 6), (1, 5), (1, 2)],
    [(0, 0), (1, 0), (1, 6), (1, 4)],
]

PINNED_CATALOG_COUNTS = {
    "small-(3,3)": 6, "small-(2,6)": 8, "small-(3,4)": 12, "small-(6,2)": 25,
    "small-(7,2)": 44, "small-(2,11)": 35, "fg-(2,2)reg-4^2": 3,
    "fg-(2,4)reg-8^2": 14, "fg-6^2-s3c": 15, "h-4-2-4-3": 8,
}


def _count_base(entry):
    if entry.kind == "fan":
        return sum(len(fam) for fam in entry.payload.families())
    if entry.kind == "packing":
        return entry.payload.num_base_blocks
    return len(entry.payload.base_blocks)


def test_criterion_1_catalog_validity():
    for entry_id in catalog_ids():
        entry = catalog_get(entry_id)
        assert _count_base(entry) == entry.expected_base_count, entry_id
        if entry.kind == "packing":
            report = verify_packing(entry.payload)
            assert report.valid, entry_id
            if entry.declared_action.get("strict", True):
                assert report.strictly_cyclic, entry_id
        elif entry.kind == "fan":
            assert verify_fan(entry.payload).ok, entry_id
            action = (verify_h_cyclic if entry.declared_action["form"] == "cyclic"
                      else verify_regular)
            assert action(entry.payload,
                          strict=entry.declared_action["strict"]).ok, entry_id
        elif entry.kind == "hdesign":
            assert verify_h_design(entry.payload).ok, entry_id
        else:
            assert verify_rosqs(entry.payload).ok, entry_id
    for entry_id, count in PINNED_CATALOG_COUNTS.items():
        assert catalog_get(entry_id).expected_base_count == count, entry_id
    print("criterion 1 PASS: %d catalog entries verify with pinned counts"
          % len(catalog_ids()))


def test_criterion_2_hartman_end_to_end():
    p, _ = hartman(catalog_get("rosqs8").payload)
    assert p.num_base_blocks == 13
    assert is_perfect(p)
    got = set(p.base_blocks)
    expected = {canonicalize(as_block(b), 7) for b in WORKED_2X7}
    assert got == expected
    code = packing_to_code(p)
    assert code.lam == 2
    assert verify_ooc(code).ok
    print("criterion 2 PASS: 13 blocks match the worked listing, perfect, "
          "correlation clean")


def test_criterion_3_filling_pipelines():
    targets = ["4x2", "4x3", "2x4", "2x8", "2x12", "2x15", "3x10", "12x2"]
    for name in targets:
        p, _ = run_pipeline(name)
        u, v = map(int, name.split("x"))
        assert (p.u, p.v) == (u, v), name
        assert p.num_base_blocks == jstar(u, v)[0], name
        report = verify_packing(p)
        assert report.valid and report.strictly_cyclic, name
        assert verify_ooc(packing_to_code(p)).ok, name
    print("criterion 3 PASS: filling pipelines land on the bound for %s"
          % ", ".join(targets))


def test_criterion_4_weighting_pipelines():
    h2, _ = run_pipeline("h44-2cyc")
    fan, _ = weighting_1(complete_pair_fan(4)[0],
                         {2: catalog_get("fg-4^2-s2c").payload}, {4: h2})
    assert fan.shape == CYCLIC and fan.h == 2
    assert fan.group_sizes() == group_type([4, 4, 4, 4])
    assert len(fan.terminal) == 68
    assert verify_h_cyclic(fan, strict=True).ok
    filled, _ = filling_1(fan, {2: trivial_packing(2, 2)})
    assert (filled.u, filled.v, filled.num_base_blocks) == (8, 2, 68)

    layered, _ = add_cross_pairs_layer(catalog_get("fg-(2,2)reg-4^2").payload)
    hp, _ = run_pipeline("h44-plain")
    wide, _ = weighting_2(layered,
                          {2: catalog_get("fan-plain-4^2").payload}, {4: hp})
    assert wide.group_sizes() == group_type([16, 16])
    assert len(wide.terminal) == 240
    assert verify_regular(wide, strict=True).ok
    final, _ = filling_2(wide, filled)
    assert (final.u, final.v, final.num_base_blocks) == (8, 4, 308)
    assert final.num_base_blocks == jstar(8, 4)[0]
    assert verify_packing(final).valid
    print("criterion 4 PASS: weighted fans give 68 on 8x2 and 240 -> 308 on 8x4")


def test_criterion_5_bound_table():
    for (u, v), size in TABLE_SIZES.items():
        assert 6 <= u * v <= 34
        assert jstar(u, v)[0] == size, (u, v)
    print("criterion 5 PASS: jstar matches all %d numeric table cells"
          % len(TABLE_SIZES))


def test_criterion_6_search_oracle():
    targets = [(2, 3, 1), (3, 2, 1), (2, 4, 3), (4, 2, 6), (3, 3, 6),
               (2, 6, 8), (3, 4, 12), (6, 2, 25), (4, 3, 17), (2, 2, 0),
               (6, 1, 3), (12, 1, 51)]
    for u, v, best in targets:
        result = max_packing(u, v, 4, 3)
        assert result.max_blocks == best, (u, v)
        assert result.proved_optimal, (u, v)
        assert result.max_blocks <= jstar(u, v)[0], (u, v)
        report = verify_packing(result.witness)
        assert report.valid and report.strictly_cyclic, (u, v)
    print("criterion 6 PASS: search proves the bound on all %d grids"
          % len(targets))


def test_criterion_7_equivalence_round_trip():
    rng = random.Random(20260818)
    sources = [catalog_get(i).payload for i in
               ["small-(2,3)", "small-(3,2)", "small-(2,6)", "small-(3,3)",
                "small-(3,4)", "small-(6,2)", "small-(7,2)", "small-(2,11)"]]
    checked = 0
    while checked < 200:
        src = rng.choice(sources)
        m = rng.randint(0, src.num_base_blocks)
        blocks = rng.sample(src.base_blocks, m)
        p = CyclicPacking(u=src.u, v=src.v, k=4, t=3,
                          base_blocks=tuple(sorted(blocks)))
        assert verify_packing(p).valid
        assert verify_ooc(packing_to_code(p)).ok
        checked += 1
    # and the contrapositive: breaking triple coverage breaks correlation
    broken = 0
    while broken < 20:
        src = rng.choice(sources)
        if src.num_base_blocks == 0:
            continue
        base = list(rng.sample(src.base_blocks, 1 + rng.randrange(src.num_base_blocks)))
        victim = rng.choice(base)
        others = [Point(r, c) for r in range(src.u) for c in range(src.v)
                  if Point(r, c) not in victim]
        new_point = rng.choice(others)
        clash = as_block(list(victim[:3]) + [new_point])
        try:
            p = CyclicPacking(u=src.u, v=src.v, k=4, t=3,
                              base_blocks=tuple(sorted(set(base + [canonicalize(clash, src.v)]))))
        except ValueError:
            continue
        if verify_packing(p).valid:
            continue
        assert not verify_ooc(packing_to_code(p)).ok
        broken += 1
    print("criterion 7 PASS: 200 subsampled packings and 20 broken ones "
          "agree across the equivalence")


def test_criterion_8_counting_identities():
    assert hartman_part_sizes(catalog_get("rosqs8").payload) == (2, 2, 9)
    for u in range(1, 61):
        for v in range(1, 61):
            n = u * v
            admissible = n % 6 in (2, 4) and u * (n - 1) * (n - 2) % 24 == 0
            cls = perfect_class(u, v)
            assert (cls != NOT_ADMISSIBLE) == admissible, (u, v)
            excluded = u % 12 in (4, 8) and v % 6 in (2, 4)
            assert (cls == EXCLUDED_COR5_5) == excluded, (u, v)
    print("criterion 8 PASS: part sizes (2, 2, 9) and classifier consistent "
          "to u, v <= 60")


def test_criterion_9_user_supplied_ingredient(tmp_path):
    path = tmp_path / "user-rosqs.json"
    save_design(catalog_get("rosqs8").payload, str(path))
    supplied = load_design(str(path))
    assert verify_rosqs(supplied).ok
    p, _ = hartman(supplied, input_label="user file")
    assert p.num_base_blocks == jstar(2, 7)[0]
    assert verify_packing(p).valid
    assert verify_ooc(packing_to_code(p)).ok
    out = tmp_path / "user-out.json"
    assert cli_main(["construct", "hartman", str(path), "--out", str(out)]) == 0
    assert load_design(str(out)).num_base_blocks == 13
    print("criterion 9 PASS: a user-supplied system file drives the pipeline "
          "to the bound")
