"""A verifier's report is computed once per object and kept on it.

The counting tests wrap the kernels behind the verifiers, so they count
real computations, not calls.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from ooc2d import designs, packing
from ooc2d.catalog import catalog_get, catalog_ids
from ooc2d.cli import main
from ooc2d.constructs import hartman, semicyclic_to_vcyclic
from ooc2d.core import Code, CyclicPacking
from ooc2d.correlation import packing_to_code, verify_ooc
from ooc2d.designs import (FanDesign, HDesign, verify_fan, verify_h_cyclic, verify_h_design,
                           verify_regular, verify_rosqs)
from ooc2d.files import design_from_dict, design_json, design_to_dict, load_design, verdict
from ooc2d.packing import verify_packing
from ooc2d.pipelines import pipeline_names, run_pipeline

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "semicyclic-6x2.json")


def _counting(monkeypatch, module, name: str) -> list:
    """Wrap module.name; the list returned gains one entry per call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _verifiers(obj) -> list:
    """The verifier calls that apply to obj, one per strict flag."""
    if isinstance(obj, CyclicPacking):
        return [verify_packing]
    if isinstance(obj, Code):
        return [verify_ooc]
    if isinstance(obj, FanDesign):
        return [lambda d: verify_fan(d, False), lambda d: verify_fan(d, True)]
    if isinstance(obj, HDesign):
        return [verify_h_design]
    return [verify_rosqs]


def _fresh(obj):
    """An equal object that no verifier has seen."""
    return design_from_dict(design_to_dict(obj))


def test_hartman_develops_its_output_once(monkeypatch):
    developed = _counting(monkeypatch, packing, "_developed")
    out, _ = hartman(catalog_get("rosqs8").payload)
    assert len(developed) == 1
    assert verify_packing(out).leave_size == 0
    assert len(developed) == 1


def test_verify_perfect_develops_the_packing_once(monkeypatch, capsys):
    catalog_get.cache_clear()  # load the entry, and check it, inside the count
    developed = _counting(monkeypatch, packing, "_developed")
    assert main(["verify", "catalog:small-(2,3)", "--check", "perfect"]) == 1
    assert "leave is nonempty (8 t-subsets)" in capsys.readouterr().out
    assert len(developed) == 1


def _objects():
    return ([("catalog " + i, lambda i=i: catalog_get(i).payload) for i in catalog_ids()]
            + [("pipeline " + n, lambda n=n: run_pipeline(n)[0]) for n in pipeline_names()])


@pytest.mark.parametrize("build", [b for _, b in _objects()], ids=[n for n, _ in _objects()])
def test_kept_report_equals_a_fresh_one(build):
    obj = build()
    fresh = _fresh(obj)
    assert fresh == obj and fresh is not obj and "_reports" not in vars(fresh)
    for verify in _verifiers(obj):
        first, second = verify(obj), verify(obj)
        assert first == second == verify(fresh)


def test_all_catalog_entries_and_pipelines_are_covered():
    assert len(catalog_ids()) == 21
    assert len(pipeline_names()) == 14


@pytest.mark.parametrize("build", [
    lambda: catalog_get("small-(2,3)").payload,
    lambda: packing_to_code(catalog_get("small-(2,3)").payload),
    lambda: catalog_get("fg-4^2-s2c").payload,
    lambda: catalog_get("h-4-2-4-3").payload,
    lambda: catalog_get("rosqs8").payload,
], ids=["packing", "code", "fan", "hdesign", "rosqs"])
def test_kept_state_is_invisible(build):
    checked = build()
    for verify in _verifiers(checked):
        verify(checked)
    unchecked = _fresh(checked)
    assert "_reports" in vars(checked) and "_reports" not in vars(unchecked)
    assert checked == unchecked
    assert hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)
    assert design_json(checked) == design_json(unchecked)


def test_a_replaced_copy_is_checked_from_scratch(monkeypatch):
    p = catalog_get("small-(2,3)").payload
    verify_packing(p)
    developed = _counting(monkeypatch, packing, "_developed")
    copy = dataclasses.replace(p, base_blocks=p.base_blocks)
    assert copy == p and "_reports" not in vars(copy)
    assert verify_packing(copy) == verify_packing(p)
    assert len(developed) == 1


@pytest.mark.parametrize("build, short", [
    (lambda: _fresh(catalog_get("fg-4^2-s2c").payload), False),
    (lambda: load_design(FIXTURE), True),
], ids=["full orbits", "a short orbit"])
def test_strict_flags_share_one_fan_report(monkeypatch, build, short):
    d = build()
    developed = _counting(monkeypatch, designs, "_develop_families")
    assert verdict(d, None) is verdict(d, False) is None
    assert verify_fan(d, None) == verify_fan(d, False) == verify_fan(d)
    assert (verdict(d, True) is not None) == short
    assert verify_fan(d, True).ok != short
    assert len(developed) == 1


@pytest.mark.parametrize("entry_id, action", [
    ("fg-4^2-s2c", verify_h_cyclic), ("fg-(2,2)reg-4^2", verify_regular),
])
def test_action_and_fan_checks_share_one_development(monkeypatch, entry_id, action):
    d = _fresh(catalog_get(entry_id).payload)
    developed = _counting(monkeypatch, designs, "_develop_families")
    assert action(d, strict=True).ok and action(d, strict=False).ok
    assert verify_fan(d).ok and verify_fan(d, True).ok
    assert verdict(d, True) is None
    assert len(developed) == 1


def test_semicyclic_remap_develops_its_input_once(monkeypatch):
    d = load_design(FIXTURE)
    developed = _counting(monkeypatch, designs, "_develop")
    out, _ = semicyclic_to_vcyclic(d)
    assert verify_fan(out, True).ok
    assert sum(args[0] is d._codes[-1] for args in developed) == 1
