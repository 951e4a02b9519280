from __future__ import annotations

import copy

import pytest

from ooc2d import catalog
from ooc2d.catalog import catalog_get, catalog_ids
from ooc2d.core import CyclicPacking
from ooc2d.designs import FanDesign, HDesign, RoSQSDesign

KINDS = {"packing": CyclicPacking, "fan": FanDesign,
         "hdesign": HDesign, "rosqs": RoSQSDesign}


def test_ids_sorted_and_nonempty():
    ids = catalog_ids()
    assert ids == sorted(ids)
    assert len(ids) >= 20


def test_every_entry_loads_and_counts():
    """catalog_get verifies each entry in full, so loading is the test."""
    for entry_id in catalog_ids():
        entry = catalog_get(entry_id)
        assert entry.id == entry_id
        assert isinstance(entry.payload, KINDS[entry.kind])


def test_entries_cached():
    assert catalog_get("rosqs8") is catalog_get("rosqs8")


def test_unknown_id():
    with pytest.raises(KeyError):
        catalog_get("not-a-real-entry")


def test_known_base_counts():
    for entry_id, count in [("rosqs8", 2), ("small-(7,2)", 44),
                            ("fg-(2,6)reg-12^2", 33), ("fan-plain-3^3", 27),
                            ("h-4-2-4-3", 8)]:
        assert catalog_get(entry_id).expected_base_count == count


def test_packing_entries_match_grid_names():
    for entry_id in catalog_ids():
        if not entry_id.startswith("small-("):
            continue
        u, v = map(int, entry_id[len("small-("):-1].split(","))
        p = catalog_get(entry_id).payload
        assert (p.u, p.v) == (u, v)


def test_form_mismatch_names_the_entry(monkeypatch):
    entries = copy.deepcopy(catalog._raw())
    action = entries["fg-4^2-s2c"]["action"]
    assert action["form"] == "cyclic"
    action["form"] = "regular"
    monkeypatch.setattr(catalog, "_raw", lambda: entries)
    catalog_get.cache_clear()
    try:
        with pytest.raises(ValueError, match="^catalog fg-4\\^2-s2c: declared form regular"):
            catalog_get("fg-4^2-s2c")
    finally:
        catalog_get.cache_clear()


def test_float_coordinate_is_refused(monkeypatch):
    """catalog entries decode through the file format, so they get its type checks"""
    entries = copy.deepcopy(catalog._raw())
    entries["small-(2,3)"]["source"]["blocks"][0][0][1] = 0.5
    monkeypatch.setattr(catalog, "_raw", lambda: entries)
    catalog_get.cache_clear()
    try:
        with pytest.raises(ValueError, match="'base_blocks'"):
            catalog_get("small-(2,3)")
    finally:
        catalog_get.cache_clear()


def test_decode_failure_names_the_entry(monkeypatch):
    """a transcription error reads like a verification failure: entry id first"""
    entries = copy.deepcopy(catalog._raw())
    entries["small-(2,3)"]["source"]["blocks"][0][0][1] = 0.5
    monkeypatch.setattr(catalog, "_raw", lambda: entries)
    catalog_get.cache_clear()
    try:
        with pytest.raises(ValueError) as info:
            catalog_get("small-(2,3)")
        assert str(info.value) == \
            "catalog small-(2,3): malformed 'base_blocks': 0.5 is not an integer"
    finally:
        catalog_get.cache_clear()


def _relabel_rule_missing_an_element(entries):
    entries["fan-plain-3^3"]["source"]["relabel"]["groups"][0].remove(8)


def _unknown_relabel_rule(entries):
    entries["rosqs8"]["source"]["relabel"] = {"name": "shuffle"}


def _wrong_base_count(entries):
    entries["rosqs8"]["expected_base_count"] = 3


@pytest.mark.parametrize("edit, entry_id, message", [
    (_wrong_base_count, "rosqs8", "catalog rosqs8: 2 base blocks, expected 3"),
    (_unknown_relabel_rule, "rosqs8", "catalog rosqs8: unknown relabel rule 'shuffle'"),
    (_relabel_rule_missing_an_element, "fan-plain-3^3",
     "catalog fan-plain-3^3: element 8 missing from group table"),
], ids=["base count", "relabel rule", "group table"])
def test_malformed_entry_names_the_entry(monkeypatch, edit, entry_id, message):
    entries = copy.deepcopy(catalog._raw())
    edit(entries)
    monkeypatch.setattr(catalog, "_raw", lambda: entries)
    catalog_get.cache_clear()
    try:
        with pytest.raises(ValueError) as info:
            catalog_get(entry_id)
        assert str(info.value) == message
    finally:
        catalog_get.cache_clear()

