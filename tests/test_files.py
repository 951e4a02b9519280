from __future__ import annotations

import copy
import dataclasses
import functools
import json
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ooc2d import catalog, files
from ooc2d.bounds import bound_report, jstar
from ooc2d.catalog import catalog_get
from ooc2d.cli import main
from ooc2d.constructs import filling_2, fold, hartman
from ooc2d.core import (Code, CodewordMatrix, CyclicPacking, Point, as_block, canonicalize,
                        make_packing)
from ooc2d.correlation import (block_to_matrix, code_to_packing, matrix_to_block,
                               packing_to_code, verify_ooc)
from ooc2d.designs import (CYCLIC, REGULAR, FanDesign, HDesign, RoSQSDesign, verify_fan,
                           verify_h_cyclic, verify_h_design, verify_rosqs)
from ooc2d.files import (SCHEMA_VERSION, design_from_dict, design_json, design_to_dict,
                         load_design, save_design, verdict)
from ooc2d.packing import verify_packing
from ooc2d.pipelines import run_pipeline
from ooc2d.search import max_packing

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "semicyclic-6x2.json")


SQUARE = [[(0, 0), (0, 1), (1, 0), (1, 1)]]


@pytest.mark.parametrize("build, name, value", [
    (lambda: make_packing(2.0, 3, 4, 3, SQUARE), "u", 2.0),
    (lambda: make_packing(2, 3, 4, True, SQUARE), "t", True),
    (lambda: Code(1, 2, 2, True, ()), "lambda", True),
    (lambda: jstar(2.5, 3), "u", 2.5),
    (lambda: bound_report(2, 3.5, 4, 2), "v", 3.5),
    (lambda: max_packing(2, 3, 4, 3, node_budget=True), "node_budget", True),
    (lambda: max_packing(2, 3, 4, 3, heuristic_iterations=1.5), "heuristic_iterations", 1.5),
    (lambda: max_packing(2, 3, 4, 3, heuristic_iterations="10"), "heuristic_iterations", "10"),
    (lambda: max_packing(2, 3, 4, 3, heuristic_iterations=True), "heuristic_iterations", True),
    (lambda: HDesign(4, 1.5, 1, 3, ()), "l", 1.5),
    (lambda: RoSQSDesign(8.0, ()), "n", 8.0),
    (lambda: FanDesign(s=0, shape=CYCLIC, h=1.0, layers=(), terminal=(), g_list=(2, 2)),
     "h", 1.0),
    (lambda: FanDesign(s=0, shape=CYCLIC, h=1, layers=(), terminal=(), g_list=(2, 2.0)),
     "g_list", 2.0),
    (lambda: FanDesign(s=0, shape=REGULAR, h=1, layers=(), terminal=(), u=2, v=True),
     "v", True),
], ids=["packing u", "packing t", "code lambda", "jstar", "bound_report", "node budget",
        "heuristic iterations float", "heuristic iterations str", "heuristic iterations bool",
        "hdesign", "rosqs", "fan h", "fan g_list", "fan v"])
def test_a_parameter_that_is_not_an_int_is_refused(build, name, value):
    """floats and bools are refused where the object is made, with the
    reader's text, so no file holds a parameter the reader refuses"""
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == "parameter %r must be an integer, got %r" % (name, value)


def test_the_reader_and_the_constructor_refuse_a_float_with_one_text():
    doc = design_to_dict(make_packing(2, 3, 4, 3, SQUARE))
    doc["parameters"]["u"] = 2.0
    with pytest.raises(ValueError) as from_file:
        design_from_dict(doc)
    with pytest.raises(ValueError) as built:
        make_packing(2.0, 3, 4, 3, SQUARE)
    assert str(from_file.value) == str(built.value)


def test_fixture_loads_and_verifies():
    d = load_design(FIXTURE)
    assert d.shape == "cyclic"
    assert d.h == 6
    assert tuple(d.g_list) == (1, 1)
    assert len(d.terminal) == 8
    assert verify_fan(d).ok
    assert verify_h_cyclic(d, strict=False).ok
    # one orbit is short, so the strict check must refuse
    assert not verify_h_cyclic(d, strict=True).ok


def test_roundtrip_all_kinds(tmp_path):
    r = catalog_get("rosqs8").payload
    p, _ = hartman(r)
    objects = [
        r,
        p,
        packing_to_code(p),
        catalog_get("h-4-2-4-3").payload,
        catalog_get("fg-4^2-s2c").payload,
        catalog_get("fg-(2,2)reg-4^2").payload,
        catalog_get("fan-plain-3^3").payload,
    ]
    for i, obj in enumerate(objects):
        path = tmp_path / ("rt%d.json" % i)
        save_design(obj, str(path))
        assert load_design(str(path)) == obj


def _written_objects():
    """every catalog payload, and a 12x1 code folded from the 4x3 pipeline"""
    folded, _ = fold(packing_to_code(run_pipeline("4x3")[0]), 3)
    return ([pytest.param(catalog_get(i).payload, id=i) for i in catalog.catalog_ids()]
            + [pytest.param(folded, id="12x1 fold")])


WRITTEN = _written_objects()


@pytest.mark.parametrize("obj", WRITTEN)
def test_saved_file_is_one_canonical_line(obj, tmp_path):
    path = tmp_path / "d.json"
    save_design(obj, str(path))
    text = path.read_text()
    assert text == design_json(obj) + "\n"
    assert text.count("\n") == 1 and " " not in text
    assert json.loads(text) == design_to_dict(obj)
    assert load_design(str(path)) == obj


@pytest.mark.parametrize("obj", WRITTEN)
def test_indented_layout_still_loads(obj, tmp_path):
    """files written by the earlier indented writer load as before"""
    path = tmp_path / "old.json"
    with open(path, "w") as fh:
        json.dump(design_to_dict(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert load_design(str(path)) == obj


def test_failed_save_keeps_the_target(tmp_path):
    """the text is built before the file is opened, so an object that
    cannot be written leaves the old file whole"""
    path = tmp_path / "keep.json"
    save_design(catalog_get("rosqs8").payload, str(path))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="cannot serialize 'object'"):
        save_design(object(), str(path))
    assert path.read_bytes() == before


def test_dict_roundtrip_is_stable():
    d = catalog_get("fan-plain-3^3").payload
    doc = design_to_dict(d)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert design_to_dict(design_from_dict(doc)) == doc


def test_rejects_unknown_kind():
    with pytest.raises(ValueError):
        design_from_dict({"schema_version": SCHEMA_VERSION, "kind": "mystery",
                          "parameters": {}, "base_blocks": []})


def test_rejects_wrong_schema_version():
    with pytest.raises(ValueError):
        design_from_dict({"schema_version": 99, "kind": "rosqs",
                          "parameters": {"n": 8}, "base_blocks": []})


def test_rejects_non_object():
    with pytest.raises(ValueError):
        design_from_dict([1, 2, 3])


# one small document of each kind, both fan shapes and a fan with a layer
MUTATION_SOURCES = [design_to_dict(obj) for obj in (
    catalog_get("rosqs8").payload,
    catalog_get("small-(2,3)").payload,
    packing_to_code(catalog_get("small-(3,3)").payload),
    catalog_get("h-4-2-4-3").payload,
    catalog_get("fg-4^2-s2c").payload,
    catalog_get("fg-(2,2)reg-4^2").payload,
    catalog_get("fan-plain-3^3").payload,
)]


def _mutate(draw, doc: dict) -> None:
    """Walk from the root to a random node and drop it, shorten it, or
    replace it by null, a string, a list, a float or the integer 2."""
    parent = doc
    key = draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    action = draw(st.sampled_from(["drop", "short", "null", "string", "list", "float", "two"]))
    if action == "drop":
        del parent[key]
    elif action == "short":
        if isinstance(parent[key], (list, str)):
            parent[key] = parent[key][:-1]
    else:
        parent[key] = {"null": None, "two": 2,
                       "string": draw(st.sampled_from(["", "1", "x", "cyclic"])),
                       "list": draw(st.lists(st.integers(-1, 2), max_size=3)),
                       "float": draw(st.floats()),
                       }[action]


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        if doc:
            _mutate(draw, doc)
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_load_or_raise_value_error(doc):
    """a malformed document is refused with ValueError or KeyError,
    which the command line reports as a parse error"""
    try:
        design_from_dict(doc)
    except (ValueError, KeyError):
        pass



@pytest.mark.parametrize("source,path,change,field", [
    (1, ("base_blocks", 0, 0, 1), lambda x: x + 0.9, "'base_blocks'"),
    (4, ("base_blocks", 0, 0, 0), str, "'base_blocks'"),
    (6, ("layers", 0, 0, 0, 0), str, "'layers'"),
    (5, ("base_blocks", 0, 0, 0), bool, "'base_blocks'"),
    (3, ("base_blocks", 0, 0, 2), lambda x: x + 0.5, "'base_blocks'"),
    (0, ("base_blocks", 0, 0), str, "'base_blocks'"),
    (2, ("codewords", 0, 0, 0), lambda x: x + 0.5, "'codewords'"),
    (3, ("parameters", "h"), bool, "'h'"),
    (4, ("parameters", "developed"), lambda x: "no", "'developed'"),
    (1, ("base_blocks", 0, 3), lambda p: p[:1],
     r"^malformed 'base_blocks': point \[1\] has 1 coordinate, expected 2$"),
    (1, ("base_blocks", 0, 3), lambda p: p + [1],
     r"^malformed 'base_blocks': point \[1, 1, 1\] has 3 coordinates, expected 2$"),
    (4, ("base_blocks", 0, 3), lambda p: p[:2],
     r"^malformed 'base_blocks': point \[1, 1\] has 2 coordinates, expected 3$"),
    (3, ("base_blocks", 0, 1), lambda p: p[:2],
     r"^malformed 'base_blocks': point \[1, 0\] has 2 coordinates, expected 3$"),
], ids=["packing float", "cyclic fan string", "layer string", "regular fan bool",
        "hdesign float", "rosqs string", "code float", "bool parameter",
        "string developed", "packing 1-coordinate point", "packing 3-coordinate point",
        "cyclic fan 2-coordinate point", "hdesign 2-coordinate point"])
def test_wrong_typed_value_is_refused_not_coerced(source, path, change, field):
    """int() would read each changed value as the one it replaced (and
    bool() reads "no" as true); the decoder names the field instead.  A
    point with the wrong number of coordinates gave a bare unpacking
    error; the decoder names the field and the point."""
    doc = copy.deepcopy(MUTATION_SOURCES[source])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    with pytest.raises(ValueError, match=field):
        design_from_dict(doc)


def _codes_through_bits():
    """codes whose matrices were built row by row through CodewordMatrix(bits=...)"""
    folded, _ = fold(packing_to_code(run_pipeline("4x3")[0]), 3)
    for code in (packing_to_code(catalog_get("small-(3,3)").payload), folded):
        mats = tuple(CodewordMatrix(u=m.u, v=m.v, bits=m.bits) for m in code.codewords)
        yield Code(u=code.u, v=code.v, k=code.k, lam=code.lam, codewords=mats)


@pytest.mark.parametrize("code", _codes_through_bits(), ids=["3x3", "12x1 fold"])
def test_decoded_code_equals_code_built_from_bits(code, tmp_path):
    """the decoder compresses each codeword straight to its cells; the
    matrices it gives equal, hash as, print as and save as those built
    from rows"""
    doc = design_to_dict(code)
    decoded = design_from_dict(doc)
    assert decoded == code and hash(decoded) == hash(code)
    for m, rows, built in zip(decoded.codewords, doc["codewords"], code.codewords):
        assert m == built and hash(m) == hash(built) and repr(m) == repr(built)
        assert m.bits == tuple(map(tuple, rows))
        assert m.cells == built.cells and m.weight == code.k
    save_design(code, str(tmp_path / "built.json"))
    save_design(decoded, str(tmp_path / "decoded.json"))
    assert (tmp_path / "built.json").read_text() == (tmp_path / "decoded.json").read_text()


@pytest.mark.parametrize("path,change,message", [
    (("codewords", 1), lambda rows: rows[:-1], "expected 3 rows, got 2"),
    (("codewords", 1, 2), lambda row: row[:-1], "expected 3 columns, got 2"),
    (("codewords", 1, 2, 0), lambda x: 2, "matrix entries must be 0 or 1, got 2"),
    (("codewords", 1, 2, 0), float, "malformed 'codewords': 1.0 is not an integer"),
    (("codewords", 1, 2, 0), lambda x: None, "malformed 'codewords': None is not an integer"),
], ids=["row count", "column count", "entry 2", "float entry", "null entry"])
def test_bad_codeword_message_is_unchanged(path, change, message):
    """a code that is not the writer's own line is decoded entry by
    entry, so the message names the first bad entry as before"""
    doc = copy.deepcopy(MUTATION_SOURCES[2])
    assert doc["codewords"][1][2][0] == 1
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    with pytest.raises(ValueError) as info:
        design_from_dict(doc)
    assert str(info.value) == message


# a 2 x 3 packing whose two base blocks both cover the triple (0,0), (0,1), (1,0)
DOUBLE_BLOCKS = [[[0, 0], [0, 1], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 0], [1, 2]]]


def _double_covered():
    return make_packing(2, 3, 4, 3, DOUBLE_BLOCKS)


def _missing_block(entry_id: str):
    obj = catalog_get(entry_id).payload
    if isinstance(obj, FanDesign):
        return dataclasses.replace(obj, terminal=obj.terminal[1:])
    return dataclasses.replace(obj, base_blocks=obj.base_blocks[1:])


# name: (object, fails without strict, fails with strict)
VERDICT_CASES = {
    "packing": (lambda: catalog_get("small-(2,3)").payload, False, False),
    "packing with a short orbit":
        (lambda: make_packing(1, 4, 4, 3, [[[0, 0], [0, 1], [0, 2], [0, 3]]]), False, True),
    "packing covered twice": (_double_covered, True, True),
    "code": (lambda: packing_to_code(catalog_get("small-(2,3)").payload), False, False),
    "code correlated": (lambda: packing_to_code(_double_covered()), True, True),
    "fan": (lambda: catalog_get("fg-4^2-s2c").payload, False, False),
    "fan with a short orbit": (lambda: load_design(FIXTURE), False, True),
    "fan missing a block": (lambda: _missing_block("fg-4^2-s2c"), True, True),
    "hdesign": (lambda: catalog_get("h-4-2-4-3").payload, False, False),
    "hdesign missing a block": (lambda: _missing_block("h-4-2-4-3"), True, True),
    "rosqs": (lambda: catalog_get("rosqs8").payload, False, False),
    "rosqs missing a block": (lambda: _missing_block("rosqs8"), True, True),
}


def _report_detail(obj, strict: bool):
    """What the verifier of obj's kind reports, in verdict's wording."""
    if isinstance(obj, CyclicPacking):
        report = verify_packing(obj)
        if not report.valid:
            return "covered twice: %r" % (report.violation,)
        if strict and not report.strictly_cyclic:
            block = next(b for b, n in zip(obj.base_blocks, report.orbit_lengths) if n != obj.v)
            return "block %r has a short orbit" % (block,)
        return None
    if isinstance(obj, Code):
        report = verify_ooc(obj)
        return None if report.ok else "correlation %d at %r" % (report.worst_value,
                                                                 report.witness)
    report = (verify_fan(obj, strict) if isinstance(obj, FanDesign) else
              verify_h_design(obj) if isinstance(obj, HDesign) else verify_rosqs(obj))
    return None if report.ok else report.detail


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("name", VERDICT_CASES)
def test_verdict_matches_the_verifier_of_each_kind(name, strict):
    build, fails, fails_strict = VERDICT_CASES[name]
    obj = build()
    detail = verdict(obj, strict)
    assert (detail is not None) == (fails_strict if strict else fails)
    assert detail == _report_detail(obj, strict)


def test_strict_verdict_names_the_first_short_orbit():
    # the first base block has a full orbit, the second a short one
    p = make_packing(2, 4, 4, 3, [[[0, 0], [0, 1], [0, 2], [1, 0]],
                                  [[1, 0], [1, 1], [1, 2], [1, 3]]])
    assert verdict(p) is None
    assert verdict(p, strict=True) == "block %r has a short orbit" % (p.base_blocks[1],)


def test_verdict_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="cannot verify 'tuple'"):
        verdict(())


def test_double_coverage_reads_the_same_everywhere(tmp_path, capsys, monkeypatch):
    """the command line, a construction and the catalog phrase one
    failure with verdict's own detail"""
    detail = verdict(_double_covered())
    assert detail.startswith("covered twice: ")

    path = tmp_path / "double.json"
    save_design(_double_covered(), str(path))
    assert main(["verify", str(path), "--check", "packing"]) == 1
    assert capsys.readouterr().out == "FAIL: %s fails packing: %s\n" % (path, detail)

    master = catalog_get("fg-(2,3)reg-6^5").payload
    with pytest.raises(ValueError) as info:
        filling_2(master, _double_covered())
    assert str(info.value) == "filling_2 filler: " + detail

    entries = copy.deepcopy(catalog._raw())
    entries["small-(2,3)"]["source"]["blocks"] = DOUBLE_BLOCKS
    entries["small-(2,3)"]["expected_base_count"] = 2
    monkeypatch.setattr(catalog, "_raw", lambda: entries)
    catalog_get.cache_clear()
    try:
        with pytest.raises(ValueError) as info:
            catalog_get("small-(2,3)")
        assert str(info.value) == "catalog small-(2,3): " + detail
    finally:
        catalog_get.cache_clear()


@pytest.mark.parametrize("u, v", [(0, 2), (-2, 2), (2, 0)])
def test_code_grid_dimensions_must_be_positive(u, v):
    with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
        Code(u=u, v=v, k=2, lam=1, codewords=())
    doc = {"schema_version": SCHEMA_VERSION, "kind": "code",
           "parameters": {"u": u, "v": v, "k": 2, "lambda": 1}, "codewords": []}
    with pytest.raises(ValueError, match="^grid dimensions must be positive$"):
        design_from_dict(doc)


@pytest.mark.parametrize("source, name, value, message", [
    (1, "base_blocks", {}, "malformed 'base_blocks': expected a list, got dict"),
    (2, "codewords", {}, "malformed 'codewords': expected a list, got dict"),
    (6, "layers", {}, "malformed 'layers': expected a list, got dict"),
    (0, "base_blocks", "x", "malformed 'base_blocks': expected a list, got str"),
    (3, "base_blocks", None, "malformed 'base_blocks': expected a list, got NoneType"),
    (1, "base_blocks", ..., "missing 'base_blocks'"),
    (2, "codewords", ..., "missing 'codewords'"),
    (4, "base_blocks", ..., "missing 'base_blocks'"),
], ids=["packing object", "code object", "layers object", "rosqs string", "hdesign null",
        "packing missing", "code missing", "fan missing"])
def test_list_fields_must_be_lists(source, name, value, message):
    """an object where a list belongs would decode as an empty design,
    and a missing field would surface as a bare KeyError"""
    doc = copy.deepcopy(MUTATION_SOURCES[source])
    if value is ...:
        del doc[name]
    else:
        doc[name] = value
    with pytest.raises(ValueError) as info:
        design_from_dict(doc)
    assert str(info.value) == message


def test_missing_layers_mean_none():
    doc = copy.deepcopy(MUTATION_SOURCES[4])
    assert doc.pop("layers") == []
    assert design_from_dict(doc) == catalog_get("fg-4^2-s2c").payload


@pytest.mark.parametrize("name, value, message", [
    ("g_list", 4, "parameter 'g_list' must be a list of integers, got 4"),
    ("g_list", [4, 4.0], "parameter 'g_list' must be a list of integers, got [4, 4.0]"),
    ("g_list", [4, True], "parameter 'g_list' must be a list of integers, got [4, True]"),
    ("shape", "toroidal", "unknown fan shape 'toroidal'"),
    ("shape", ..., "unknown fan shape None"),
], ids=["g_list int", "g_list float", "g_list bool", "unknown shape", "no shape"])
def test_fan_shape_and_fibres_are_checked(name, value, message):
    doc = copy.deepcopy(MUTATION_SOURCES[4])
    if value is ...:
        del doc["parameters"][name]
    else:
        doc["parameters"][name] = value
    with pytest.raises(ValueError) as info:
        design_from_dict(doc)
    assert str(info.value) == message


# the parameters each kind requires, by MUTATION_SOURCES index
REQUIRED_PARAMETERS = {0: ("n",), 1: ("u", "v", "k", "t"), 2: ("u", "v", "k", "lambda"),
                       3: ("n", "l", "h", "t"), 4: ("s", "h", "g_list"), 5: ("s", "h", "u", "v")}


@pytest.mark.parametrize("source, name", [(source, name)
                                          for source, names in REQUIRED_PARAMETERS.items()
                                          for name in names])
def test_missing_parameter_is_named(source, name):
    """a missing parameter surfaced as a bare KeyError whose text was
    only the name"""
    doc = copy.deepcopy(MUTATION_SOURCES[source])
    del doc["parameters"][name]
    with pytest.raises(ValueError) as info:
        design_from_dict(doc)
    assert str(info.value) == "missing parameter %r" % name


def _generic_load(text: str):
    """What load_design makes of text through json and design_from_dict
    alone, the reader's one path for every other file."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    return design_from_dict(doc)


def _outcome(load, arg):
    """(object, repr) of load(arg), or (exception type, text)."""
    try:
        obj = load(arg)
    except Exception as exc:  # the comparison is of whatever either path raises
        return type(exc), str(exc)
    return obj, repr(obj)


def _load_text(directory, text: str):
    path = directory / "line.json"
    path.write_text(text)
    return load_design(str(path))


def _broken(code: Code, seed: int = 0) -> Code:
    """code with one codeword rewritten to share three cells with
    another, in an orbit of its own so code_to_packing still takes it"""
    rng = random.Random(seed)
    blocks = [matrix_to_block(m) for m in code.codewords]
    reps = [canonicalize(b, code.v) for b in blocks]
    cells = [Point(i, j) for i in range(code.u) for j in range(code.v)]
    while True:
        a, b = rng.sample(range(len(blocks)), 2)
        new = as_block(rng.sample(blocks[b], 3)
                       + [rng.choice([p for p in cells if p not in blocks[b]])])
        if canonicalize(new, code.v) not in reps[:a] + reps[a + 1:]:
            break
    mats = list(code.codewords)
    mats[a] = block_to_matrix(new, code.u, code.v)
    return Code(u=code.u, v=code.v, k=code.k, lam=code.lam, codewords=tuple(mats))


@functools.cache
def _folded(pipeline: str, v1: int) -> Code:
    return fold(packing_to_code(run_pipeline(pipeline)[0]), v1)[0]


CODE_FILES = {
    "14x1": lambda: run_pipeline("14x1")[0],
    "8x4 by 2": lambda: _folded("8x4", 2),
    "8x4 by 4": lambda: _folded("8x4", 4),
    "12x2 by 2": lambda: _folded("12x2", 2),
    "no codewords": lambda: Code(u=3, v=2, k=4, lam=2, codewords=()),
}


@pytest.mark.parametrize("name, broken", [(name, False) for name in CODE_FILES] + [
    (name, True) for name in CODE_FILES if name != "no codewords"])
def test_code_line_reads_as_the_generic_path(name, broken, tmp_path):
    """the writer's own code line is decoded from its text into the object
    json and design_from_dict give, with the same reports, and it saves
    back byte for byte"""
    code = CODE_FILES[name]()
    if broken:
        code = _broken(code)
    path = tmp_path / "code.json"
    save_design(code, str(path))
    text = path.read_text()
    assert files._code_line(text) is not None
    fast, generic = load_design(str(path)), _generic_load(text)
    assert fast == generic == code
    assert repr(fast) == repr(generic) and hash(fast) == hash(generic)
    assert verify_ooc(fast) == verify_ooc(generic)
    assert verify_ooc(fast).ok is not broken
    assert verify_packing(code_to_packing(fast)) == verify_packing(code_to_packing(generic))
    save_design(fast, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _dumped(obj) -> str:
    """obj's line as json writes design_to_dict(obj)."""
    return json.dumps(design_to_dict(obj), sort_keys=True, separators=(",", ":"))


@st.composite
def codes(draw):
    """a Code on a u x v grid, v = 1 and v >= 10 included, of 0-8
    codewords of k distinct cells each"""
    u, v = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    k = draw(st.integers(2, max(2, u * v)))
    lam = draw(st.integers(1, k - 1))
    words = draw(st.lists(st.lists(st.integers(0, u * v - 1), min_size=k, max_size=k,
                                   unique=True), max_size=8)) if k <= u * v else []
    return Code(u=u, v=v, k=k, lam=lam, codewords=tuple(CodewordMatrix(u=u, v=v, bits=tuple(
        tuple(int(i * v + j in w) for j in range(v)) for i in range(u))) for w in words))


@settings(max_examples=300, deadline=None)
@given(codes())
def test_code_writer_is_json_of_the_dict(code):
    """a code's line, written from its cells, is json's text of its dict
    and reads back from its text as an equal code"""
    text = design_json(code)
    assert text == _dumped(code)
    assert files._code_line(text) == code


@pytest.mark.parametrize("name", CODE_FILES)
def test_code_files_are_written_as_json_of_the_dict(name):
    code = CODE_FILES[name]()
    assert design_json(code) == _dumped(code)


SMALL_PACKING = catalog_get("small-(3,3)").payload
SMALL_LINE = design_json(packing_to_code(SMALL_PACKING)) + "\n"


@pytest.fixture(scope="module")
def line_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_code_line_reads_as_the_generic_path(line_dir, data):
    """one character replaced, inserted or deleted anywhere in the
    canonical line: the reader gives the generic path's object, or
    raises its exception type with its text"""
    text = SMALL_LINE
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from('012[],."t '))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    text = text[:at] + {"replace": char, "insert": char + text[at], "delete": ""}[edit] \
        + text[at + 1:]
    assert _outcome(lambda t: _load_text(line_dir, t), text) == _outcome(_generic_load, text)


def _line(codewords: str, rest: dict) -> str:
    return '{"codewords":%s,%s\n' % (codewords, json.dumps(rest, separators=(",", ":"))[1:])


SMALL_DOC = json.loads(SMALL_LINE)
SMALL_SPAN = json.dumps(SMALL_DOC["codewords"], separators=(",", ":"))
SMALL_REST = {key: SMALL_DOC[key] for key in ("kind", "parameters", "schema_version")}

# texts that begin like the writer's code line but are not one
LOOKALIKES = {
    "huge grid": _line("[[[1]]]", {**SMALL_REST, "parameters": {
        "k": 1, "lambda": 1, "u": 10 ** 9, "v": 10 ** 9}}),
    "duplicate codewords": _line(SMALL_SPAN, {**SMALL_REST, "codewords": []}),
    "trailing data": SMALL_LINE.rstrip() + "{}\n",
    "packing rest": _line(SMALL_SPAN, {"kind": "packing", **design_to_dict(SMALL_PACKING)}),
    "bool k": _line(SMALL_SPAN, {**SMALL_REST, "parameters": {
        **SMALL_DOC["parameters"], "k": True}}),
    "wrong v": _line(SMALL_SPAN, {**SMALL_REST, "parameters": {
        **SMALL_DOC["parameters"], "v": 1}}),
}


@pytest.mark.parametrize("name", LOOKALIKES)
def test_code_line_lookalikes_read_as_the_generic_path(name, tmp_path):
    """the reader builds nothing from a span it cannot trust, and a file
    claiming a 10**9 x 10**9 grid is refused at once"""
    text = LOOKALIKES[name]
    start = time.perf_counter()
    outcome = _outcome(lambda t: _load_text(tmp_path, t), text)
    assert time.perf_counter() - start < 1.0
    assert outcome == _outcome(_generic_load, text)


def test_code_line_lookalikes_are_what_they_seem():
    assert _outcome(_generic_load, LOOKALIKES["huge grid"]) == (
        ValueError, "expected 1000000000 rows, got 1")
    assert _generic_load(LOOKALIKES["duplicate codewords"]).size == 0
    assert _outcome(_generic_load, LOOKALIKES["trailing data"])[0] is json.JSONDecodeError
    assert _generic_load(LOOKALIKES["packing rest"]) == SMALL_PACKING


def test_code_line_hands_json_only_the_short_rest(tmp_path, monkeypatch):
    """the 32 x 1 fold's 160 KB of bit lists never go through json"""
    path = tmp_path / "c32.json"
    save_design(_folded("8x4", 4), str(path))
    lengths = []
    loads = json.loads

    def counted(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert load_design(str(path)) == _folded("8x4", 4)
    assert lengths and max(lengths) < 200
