from __future__ import annotations

import hashlib
import os

import pytest

from ooc2d.bounds import jstar
from ooc2d.catalog import catalog_get
from ooc2d.constructs import (hartman, perfect_to_regular_1fg, regular_to_h1cyclic,
                              semicyclic_to_vcyclic)
from ooc2d.core import Code, CyclicPacking
from ooc2d.correlation import packing_to_code, verify_ooc
from ooc2d.designs import verify_fan, verify_h_cyclic
from ooc2d.files import design_json, load_design
from ooc2d.packing import verify_packing
from ooc2d.pipelines import pipeline_names, run_pipeline

GRID_PIPELINES = ["2x4", "2x7", "2x8", "2x12", "2x15", "3x10",
                  "4x2", "4x3", "8x2", "8x4", "12x2", "14x1"]


def test_registry_contents():
    names = pipeline_names()
    for name in GRID_PIPELINES + ["h44-plain", "h44-2cyc"]:
        assert name in names


def test_unknown_pipeline():
    with pytest.raises(KeyError):
        run_pipeline("9x9")


def test_grid_pipelines_reach_the_bound():
    """every grid pipeline must land exactly on the sharpened bound."""
    for name in GRID_PIPELINES:
        obj, trace = run_pipeline(name)
        u, v = map(int, name.split("x"))
        if isinstance(obj, CyclicPacking):
            assert (obj.u, obj.v) == (u, v), name
            count = obj.num_base_blocks
            report = verify_packing(obj)
            assert report.valid and report.strictly_cyclic, name
            assert verify_ooc(packing_to_code(obj)).ok, name
        else:
            assert isinstance(obj, Code)
            assert (obj.u, obj.v) == (u, v), name
            count = obj.size
            assert verify_ooc(obj).ok, name
        assert count == jstar(u, v)[0], name
        assert sum(delta for _, delta in trace.steps) == count, name


def test_h_pipelines():
    plain, _ = run_pipeline("h44-plain")
    assert len(plain.base_blocks) == 64
    two_cyc, _ = run_pipeline("h44-2cyc")
    assert len(two_cyc.base_blocks) == 32


def test_results_cached():
    assert run_pipeline("4x2") is run_pipeline("4x2")


SEMICYCLIC_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "semicyclic-6x2.json")


def test_semicyclic_fixture_converts():
    out, trace = semicyclic_to_vcyclic(load_design(SEMICYCLIC_FIXTURE))
    assert tuple(out.g_list) == (2, 2)
    assert out.h == 3
    assert len(out.terminal) == 15
    assert verify_fan(out).ok
    assert verify_h_cyclic(out, strict=True).ok
    assert sum(delta for _, delta in trace.steps) == 15


PINNED_TRACES = {
    "2x4": (("catalog fg-(2,2)reg-4^2", "trivial 2x2"),
            (("master blocks", 3), ("dilated filler blocks", 0))),
    "2x7": (("catalog rosqs8",),
            (("row 0 quadruples", 1), ("mirrored row 1 quadruples", 1),
             ("fixed point blocks", 1), ("mirrored fixed point blocks", 1),
             ("pair difference blocks", 9))),
    "2x8": (("catalog fg-(2,4)reg-8^2", "pipeline 2x4"),
            (("master blocks", 14), ("dilated filler blocks", 3))),
    "2x12": (("catalog fg-(2,6)reg-12^2", "catalog small-(2,6)"),
             (("master blocks", 33), ("dilated filler blocks", 8))),
    "2x15": (("catalog fg-(2,3)reg-6^5", "catalog small-(2,3)"),
             (("master blocks", 66), ("dilated filler blocks", 1))),
    "3x10": (("catalog fg-(3,2)reg-6^5", "catalog small-(3,2)"),
             (("master blocks", 99), ("dilated filler blocks", 1))),
    "4x2": (("catalog fg-4^2-s2c", "trivial 2x2"),
            (("master blocks", 6), ("filler blocks", 0))),
    "4x3": (("catalog fg-6^2-s3c", "catalog small-(2,3)"),
            (("master blocks", 15), ("filler blocks", 2))),
    "8x2": (("weighted 4^4 fan", "trivial 2x2"),
            (("master blocks", 68), ("filler blocks", 0))),
    "8x4": (("weighted 16^2 fan", "pipeline 8x2"),
            (("master blocks", 240), ("dilated filler blocks", 68))),
    "12x2": (("catalog fg-12^2-s2c", "catalog small-(6,2)"),
             (("master blocks", 198), ("filler blocks", 50))),
    "14x1": (("pipeline 2x7",), (("translated copies", 91),)),
    "h44-plain": (("catalog h-4-2-4-3", "catalog h-4-2-4-3"), (("inflated blocks", 64),)),
    "h44-2cyc": (("catalog h-4-2-4-3", "semicyclic h-4-2-4-3"), (("inflated blocks", 32),)),
}


def test_pipeline_traces_pinned():
    """every pipeline's final trace, inputs and steps, as the chains
    wrote them by hand before the single-step ones became recipes"""
    assert sorted(PINNED_TRACES) == pipeline_names()
    for name, pinned in PINNED_TRACES.items():
        _, trace = run_pipeline(name)
        assert (trace.inputs, trace.steps) == pinned, name


def _digest(obj) -> str:
    return hashlib.sha256(design_json(obj).encode()).hexdigest()[:16]


# the first 16 hex digits of sha256(design_json(obj)) of every pipeline's object
PINNED_DIGESTS = {
    "12x2": "b25632886801d052", "14x1": "b06217c7d68aee5a",
    "2x12": "0785eede58e175c4", "2x15": "2b4842d7afc5478a",
    "2x4": "6eeaecbefec69605", "2x7": "4b7ba5af95e321cd",
    "2x8": "9623e8c3452ca876", "3x10": "3a2e5ec2bd0f7bf5",
    "4x2": "160be91f929a4467", "4x3": "b80b765f7480b8d7",
    "8x2": "70cfa728f42f5d68", "8x4": "ac11a2f2f1f598eb",
    "h44-2cyc": "986f1f2889c19221", "h44-plain": "3cea4bc9e7d9f86b",
}


def test_pipeline_outputs_pinned():
    """every pipeline's object, byte for byte as the file writer writes it"""
    assert sorted(PINNED_DIGESTS) == pipeline_names()
    for name, digest in PINNED_DIGESTS.items():
        assert _digest(run_pipeline(name)[0]) == digest, name


@pytest.mark.parametrize("build, digest, trace", [
    (lambda: regular_to_h1cyclic(catalog_get("fg-(2,4)reg-8^2").payload, 2),
     "6b637d0ea9688c92", (("regular fan",), (("family 0 representatives", 56),))),
    (lambda: regular_to_h1cyclic(catalog_get("fg-(2,4)reg-8^2").payload, 4),
     "c6cd8313d882db49", (("regular fan",), (("family 0 representatives", 28),))),
    (lambda: perfect_to_regular_1fg(hartman(catalog_get("rosqs8").payload)[0]),
     "0ed063209c34479d", (("perfect packing",), (("existing terminal blocks", 13),
                                                 ("cross pair representatives", 12)))),
    (lambda: semicyclic_to_vcyclic(load_design(SEMICYCLIC_FIXTURE)),
     "39a3c0eb794c7216", (("semicyclic fan",), (("orbit representatives", 15),))),
], ids=["h1cyclic-2", "h1cyclic-4", "perfect1fg", "semicyclic"])
def test_remap_outputs_pinned(build, digest, trace):
    """the remaps no pipeline runs: object and trace"""
    out, got = build()
    assert (_digest(out), (got.inputs, got.steps)) == (digest, trace)
