from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import ooc2d.search as search
from ooc2d.cli import main
from ooc2d.files import block_count, load_design
from ooc2d.packing import verify_packing
from ooc2d.pipelines import run_pipeline


def test_bound_human(capsys):
    assert main(["bound", "12", "2", "4", "2"]) == 0
    out = capsys.readouterr().out
    assert "jstar=248" in out
    assert "CASE_A" in out


def test_bound_json(capsys):
    assert main(["bound", "2", "7", "4", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["jstar"] == 13
    assert doc["perfect"] == "CLASS3"


def test_verify_catalog_pass(capsys):
    assert main(["verify", "catalog:small-(7,2)", "--check", "packing",
                 "--strict"]) == 0
    assert main(["verify", "catalog:rosqs8", "--check", "rosqs"]) == 0


def test_verify_duplicate_coverage_fails(tmp_path, capsys):
    doc = {"schema_version": 1, "kind": "packing",
           "parameters": {"u": 2, "v": 3, "k": 4, "t": 3},
           "base_blocks": [[[0, 0], [0, 1], [1, 0], [1, 1]],
                           [[0, 0], [0, 1], [1, 0], [1, 2]]]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--check", "packing"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_json(tmp_path, capsys):
    """--json prints one object with the target, the check, ok and the
    failure detail, which is null on a pass"""
    assert main(["verify", "catalog:rosqs8", "--check", "rosqs", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "target": "catalog:rosqs8", "check": "rosqs", "ok": True, "detail": None}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "packing",
                                "parameters": {"u": 2, "v": 3, "k": 4, "t": 3},
                                "base_blocks": [[[0, 0], [0, 1], [1, 0], [1, 1]],
                                                [[0, 0], [0, 1], [1, 0], [1, 2]]]}))
    assert main(["verify", str(path), "--check", "packing", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["target"], doc["check"], doc["ok"]) == (str(path), "packing", False)
    assert doc["detail"].startswith("covered twice: ")


def test_verify_unknown_catalog_id(capsys):
    assert main(["verify", "catalog:nope", "--check", "packing"]) == 2


def test_verify_kind_mismatch(capsys):
    assert main(["verify", "catalog:rosqs8", "--check", "fan"]) == 2


def test_verify_refuses_an_h_design_with_t_below_one(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "hdesign",
                                "parameters": {"n": 4, "l": 1, "h": 1, "t": -1},
                                "base_blocks": []}))
    assert main(["verify", str(path), "--check", "hdesign"]) == 2
    assert capsys.readouterr().err.endswith("need t >= 1, got t=-1\n")


def test_construct_hartman_roundtrip(tmp_path, capsys):
    out = tmp_path / "h13.json"
    assert main(["construct", "hartman", "catalog:rosqs8",
                 "--out", str(out)]) == 0
    p = load_design(str(out))
    assert p.num_base_blocks == 13
    assert verify_packing(p).valid
    assert main(["verify", str(out), "--check", "perfect"]) == 0


def test_verify_perfect_names_the_leave(capsys):
    assert main(["verify", "catalog:small-(2,3)", "--check", "perfect"]) == 1
    assert capsys.readouterr().out.endswith("leave is nonempty (8 t-subsets)\n")


def test_construct_pipeline_json(capsys):
    assert main(["construct", "pipeline", "2x12", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["count"] == 41
    assert doc["result"]["parameters"]["v"] == 12


def test_construct_filling_recipe(tmp_path, capsys):
    assert main(["construct", "filling1", "catalog:fg-6^2-s3c",
                 "2=catalog:small-(2,3)"]) == 0
    assert "17 blocks" in capsys.readouterr().out


def test_construct_unknown_recipe(capsys):
    assert main(["construct", "alchemy", "catalog:rosqs8"]) == 2


def test_construct_wrong_kind(capsys):
    assert main(["construct", "hartman", "catalog:small-(2,3)"]) == 2


def test_search_json(capsys):
    assert main(["search", "2", "4", "4", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max"] == 3
    assert doc["proved"]


def test_search_witness_file(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["search", "3", "3", "4", "3", "--out", str(out)]) == 0
    p = load_design(str(out))
    assert p.num_base_blocks == 6
    assert verify_packing(p).valid


def test_convert_roundtrip(tmp_path, capsys):
    m = tmp_path / "m.json"
    b = tmp_path / "b.json"
    assert main(["convert", "catalog:small-(3,2)", "--to", "matrix",
                 "--out", str(m)]) == 0
    assert main(["convert", str(m), "--to", "blocks", "--out", str(b)]) == 0
    from ooc2d.catalog import catalog_get

    assert load_design(str(b)) == catalog_get("small-(3,2)").payload


DOUBLE = ('{"schema_version": 1, "kind": "packing", "parameters": {"u": 2, "v": 3, "k": 4, '
          '"t": 3}, "base_blocks": [[[0, 0], [0, 1], [1, 0], [1, 1]], '
          '[[0, 0], [0, 1], [1, 0], [1, 2]]]}')


@pytest.mark.parametrize("to, detail", [
    ("matrix", "correlation 3 at ((0, 1), 0)"), ("blocks", "covered twice"),
])
def test_convert_refuses_an_object_that_fails_its_check(tmp_path, capsys, to, detail):
    """a double-covered packing converts to nothing, in either form"""
    src, out = tmp_path / "double.json", tmp_path / "out.json"
    src.write_text(DOUBLE)
    assert main(["convert", str(src), "--to", to, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: ") and detail in err
    assert not out.exists()
    assert main(["convert", str(src), "--to", to]) == 1
    assert capsys.readouterr().out == ""


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "rosqs8" in out
    assert "small-(7,2)" in out


def test_catalog_emit(tmp_path, capsys):
    out = tmp_path / "r8.json"
    assert main(["catalog", "emit", "rosqs8", "--out", str(out)]) == 0
    d = load_design(str(out))
    assert d.n == 8


def test_catalog_emit_stdout_matches_out(tmp_path, capsys):
    out = tmp_path / "r8.json"
    assert main(["catalog", "emit", "rosqs8", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["catalog", "emit", "rosqs8"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_weighting_chain_via_files(tmp_path, capsys):
    """builds the 68-block 8x2 packing entirely through the cli"""
    semi = tmp_path / "semi.json"
    h44 = tmp_path / "h44.json"
    master = tmp_path / "master.json"
    fan68 = tmp_path / "fan68.json"
    triv = tmp_path / "triv.json"
    final = tmp_path / "final.json"
    assert main(["construct", "remap", "hsemicyclic", "catalog:h-4-2-4-3",
                 "--out", str(semi)]) == 0
    assert main(["construct", "weighting3", "catalog:h-4-2-4-3",
                 "4=%s" % semi, "--out", str(h44)]) == 0
    assert main(["construct", "pairfan", "4", "--out", str(master)]) == 0
    assert main(["construct", "weighting1", str(master),
                 "fan:2=catalog:fg-4^2-s2c", "h:4=%s" % h44,
                 "--out", str(fan68)]) == 0
    assert main(["search", "2", "2", "4", "3", "--out", str(triv)]) == 0
    assert main(["construct", "filling1", str(fan68), "2=%s" % triv,
                 "--out", str(final)]) == 0
    capsys.readouterr()
    assert main(["verify", str(final), "--check", "ooc"]) == 0
    assert "ok:" in capsys.readouterr().out
    p = load_design(str(final))
    assert (p.u, p.v, p.num_base_blocks) == (8, 2, 68)


def test_verify_fan_strict_reports_short_orbit(capsys):
    """the semicyclic fixture covers correctly but has a short orbit"""
    fixture = os.path.join(os.path.dirname(__file__), "data", "semicyclic-6x2.json")
    assert main(["verify", fixture, "--check", "fan"]) == 0
    capsys.readouterr()
    assert main(["verify", fixture, "--check", "fan", "--strict"]) == 1
    assert "stabilizer of order 2" in capsys.readouterr().out


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ooc2d.cli", "bound",
                           "8", "2", "4", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "jstar=68" in proc.stdout


def test_search_json_proof_keys(capsys):
    assert main(["search", "2", "4", "4", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["proof"], doc["bound"]) == ("bound", 3)
    assert main(["search", "2", "3", "4", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["proof"], doc["bound"]) == ("bound", 0)


def test_search_refuses_bad_witness(tmp_path, monkeypatch, capsys):
    def overlapping(orbits, cap, iterations, rng):
        first = orbits[0]
        return [first, next(o for o in orbits[1:] if o[1] & first[1])]

    monkeypatch.setattr(search, "_ruin_recreate", overlapping)
    out = tmp_path / "w.json"
    assert main(["search", "2", "3", "4", "3", "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().err
    assert not out.exists()


def test_search_bad_parameters_exit_before_any_work(monkeypatch, capsys):
    """bad parameters exit 2 before orbits are built; a witness that
    fails its check exits 1 (test_search_refuses_bad_witness)"""
    def refuse(*args, **kwargs):
        raise AssertionError("searched with bad parameters")

    monkeypatch.setattr(search, "_build_orbits", refuse)
    assert main(["search", "0", "3", "4", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["hartman", "catalog:fg-4^2-s2c"],
    ["filling1", "catalog:rosqs8", "2=catalog:small-(2,3)"],
    ["filling1", "catalog:fg-6^2-s3c", "2=catalog:h-4-2-4-3"],
    ["filling2", "catalog:small-(2,3)", "catalog:small-(2,3)"],
    ["filling2", "catalog:fg-(2,2)reg-4^2", "catalog:fg-4^2-s2c"],
    ["weighting1", "catalog:h-4-2-4-3", "fan:2=catalog:fg-4^2-s2c"],
    ["weighting1", "catalog:fg-4^2-s2c", "fan:2=catalog:rosqs8"],
    ["weighting2", "catalog:small-(2,3)", "fan:2=catalog:fg-4^2-s2c"],
    ["weighting2", "catalog:fg-(2,2)reg-4^2", "h:4=catalog:fg-4^2-s2c"],
    ["weighting3", "catalog:fg-4^2-s2c", "4=catalog:h-4-2-4-3"],
    ["weighting3", "catalog:h-4-2-4-3", "4=catalog:rosqs8"],
    ["remap", "semicyclic", "catalog:h-4-2-4-3"],
    ["remap", "hsemicyclic", "catalog:fg-4^2-s2c"],
    ["remap", "h1cyclic:2", "catalog:rosqs8"],
    ["remap", "pairs", "catalog:small-(2,3)"],
    ["remap", "perfect1fg", "catalog:fg-(2,2)reg-4^2"],
    ["fold", "catalog:rosqs8", "2"],
])
def test_construct_rejects_each_wrong_kind(argv, capsys):
    """every recipe checks the kind of each source it loads and names it"""
    assert main(["construct"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_python_m_ooc2d_runs():
    proc = subprocess.run([sys.executable, "-m", "ooc2d", "bound", "8", "2", "4", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "jstar=68" in proc.stdout


CODE_DOC = {"schema_version": 1, "kind": "code",
            "parameters": {"u": 2, "v": 3, "k": 4, "lambda": 2},
            "codewords": [[[1, 1, 0], [1, 1, 0]]]}


@pytest.mark.parametrize("doc", [
    dict(CODE_DOC, codewords=[None]),
    dict(CODE_DOC, codewords=[[[1, 1, 0], None]]),
    dict(CODE_DOC, codewords=[[[1, None, 0], [1, 1, 0]]]),
    dict(CODE_DOC, parameters=None),
    {"schema_version": 1, "kind": "rosqs", "parameters": None, "base_blocks": []},
], ids=["null codeword", "null row", "null entry", "null code parameters",
        "null rosqs parameters"])
def test_verify_malformed_file_is_usage_error(tmp_path, doc, capsys):
    """a field of the wrong type is a parse error (exit 2), not a traceback"""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--check", "ooc"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse ")


def test_verify_deeply_nested_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["verify", str(path), "--check", "ooc"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "1"])
def test_pairfan_below_two_is_usage_error(n, capsys):
    assert main(["construct", "pairfan", n]) == 2
    assert capsys.readouterr().err.startswith("error: pairfan needs N >= 2")


@pytest.mark.parametrize("argv,message", [
    (["construct", "pairfan", "\u00b2"], "error: construct pairfan N"),
    (["construct", "fold", "catalog:small-(2,3)", "\u00b3"], "error: construct fold SOURCE V1"),
    (["construct", "remap", "h1cyclic:\u00b2", "catalog:fg-(2,2)reg-4^2"],
     "error: remap h1cyclic:<h1> SOURCE"),
    (["construct", "fold", "catalog:small-(2,3)", "0"], "error: fold needs V1 >= 1, got 0"),
    (["construct", "remap", "h1cyclic:0", "catalog:fg-(2,2)reg-4^2"],
     "error: remap h1cyclic needs h1 >= 1, got 0"),
    (["construct", "filling1", "catalog:fg-6^2-s3c", "\u00b2=catalog:small-(2,3)"],
     "error: filler wants SIZE=SOURCE"),
    (["bound", "0", "3", "4", "2"], "error: grid dimensions must be positive"),
    (["search", "0", "3", "4", "3"], "error: grid dimensions must be positive"),
    (["search", "2", "3", "4", "9"], "error: need 1 <= t <= k"),
    (["search", "1", "3", "4", "3"], "error: grid has fewer than k points"),
    (["search", "2", "3", "4", "3", "--budget", "0"], "error: node budget must be positive"),
    (["construct", "hartman"], "error: construct hartman SOURCE"),
    (["construct", "filling1", "catalog:fg-4^2-s2c"],
     "error: construct filling1 MASTER SIZE=SOURCE..."),
    (["construct", "filling2", "catalog:fg-(2,2)reg-4^2"],
     "error: construct filling2 MASTER FILLER"),
    (["construct", "weighting1", "catalog:fg-4^2-s2c"],
     "error: construct weighting1 MASTER fan:SIZE=SOURCE... h:SIZE=SOURCE..."),
    (["construct", "weighting2", "catalog:fg-(2,2)reg-4^2", "2=catalog:fan-plain-4^2"],
     "error: weighting wants fan:SIZE=SOURCE or h:SIZE=SOURCE, got '2=catalog:fan-plain-4^2'"),
    (["construct", "weighting3", "catalog:h-4-2-4-3"],
     "error: construct weighting3 MASTER SIZE=SOURCE..."),
    (["construct", "remap", "pairs"], "error: construct remap MODE SOURCE"),
    (["construct", "remap", "twist", "catalog:fg-(2,2)reg-4^2"],
     "error: unknown remap mode 'twist'"),
    (["construct", "pipeline"], "error: construct pipeline NAME"),
    (["construct", "pipeline", "9x9"], "error: no pipeline '9x9', have: "),
    (["construct", "hartman", "no-such-dir/missing.json"],
     "error: cannot read no-such-dir/missing.json: "),
    (["catalog", "emit"], "error: catalog emit needs an id"),
], ids=["pairfan superscript", "fold superscript", "h1cyclic superscript", "fold by zero",
        "h1cyclic zero",
        "size superscript", "bound zero rows", "search zero rows", "search t above k",
        "search too few points", "search zero budget",
        "hartman usage", "filling1 usage", "filling2 usage", "weighting1 usage",
        "weighting ingredient token", "weighting3 usage", "remap usage", "unknown remap mode",
        "pipeline usage", "unknown pipeline", "unreadable file", "emit without id"])
def test_malformed_argument_is_usage_error(argv, message, capsys):
    """a superscript digit is not a number, a zero grid, a zero divisor, a
    recipe with too few tokens, an unknown name and an unreadable file are
    bad usage: exit 2 with the usage text, never a failed verification"""
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["construct", "fold", "catalog:small-(2,3)", "2"], "FAIL: v1 must divide v"),
    (["construct", "remap", "h1cyclic:3", "catalog:fg-(2,2)reg-4^2"], "FAIL: h1 must divide h"),
])
def test_non_dividing_divisor_fails_construction(argv, message, capsys):
    """a positive divisor that does not divide the grid is well-formed
    usage whose construction fails: exit 1, not 2"""
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("u", [0, -2])
def test_code_without_rows_is_usage_error(tmp_path, u, capsys):
    """a code file on a grid without rows passed --check ooc and folded
    to a 0-row code; now every command refuses to parse it"""
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(dict(CODE_DOC, parameters=dict(CODE_DOC["parameters"], u=u),
                                    codewords=[])))
    out = tmp_path / "folded.json"
    for argv in (["verify", str(path), "--check", "ooc"],
                 ["verify", str(path), "--check", "packing"],
                 ["construct", "fold", str(path), "1", "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot parse %s: grid dimensions must be positive" % path)
    assert not out.exists()


@pytest.mark.parametrize("doc, check, message", [
    ({"schema_version": 1, "kind": "packing", "parameters": {"u": 2, "v": 3, "k": 4, "t": 3},
      "base_blocks": {}}, "packing", "malformed 'base_blocks': expected a list, got dict"),
    (dict(CODE_DOC, codewords={}), "ooc", "malformed 'codewords': expected a list, got dict"),
    ({"schema_version": 1, "kind": "packing", "parameters": {"u": 2, "v": 3, "k": 4, "t": 3}},
     "packing", "missing 'base_blocks'"),
], ids=["object blocks", "object codewords", "missing blocks"])
def test_verify_object_for_list_is_usage_error(tmp_path, doc, check, message, capsys):
    """an object where a list belongs decoded as an empty design that
    passed its check; now it is a parse error naming the field"""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--check", check]) == 2
    assert capsys.readouterr().err == "error: cannot parse %s: %s\n" % (path, message)


# the recipe tokens of every single-step pipeline, as a user types them
PIPELINE_RECIPES = {
    "2x4": ["filling2", "catalog:fg-(2,2)reg-4^2", "trivial:2x2"],
    "2x7": ["hartman", "catalog:rosqs8"],
    "2x8": ["filling2", "catalog:fg-(2,4)reg-8^2", "pipeline:2x4"],
    "2x12": ["filling2", "catalog:fg-(2,6)reg-12^2", "catalog:small-(2,6)"],
    "2x15": ["filling2", "catalog:fg-(2,3)reg-6^5", "catalog:small-(2,3)"],
    "3x10": ["filling2", "catalog:fg-(3,2)reg-6^5", "catalog:small-(3,2)"],
    "4x2": ["filling1", "catalog:fg-4^2-s2c", "2=trivial:2x2"],
    "4x3": ["filling1", "catalog:fg-6^2-s3c", "2=catalog:small-(2,3)"],
    "12x2": ["filling1", "catalog:fg-12^2-s2c", "6=catalog:small-(6,2)"],
    "14x1": ["fold", "pipeline:2x7", "7"],
    "h44-plain": ["weighting3", "catalog:h-4-2-4-3", "4=catalog:h-4-2-4-3"],
}


@pytest.mark.parametrize("name", sorted(PIPELINE_RECIPES))
def test_recipe_tokens_rebuild_the_pipeline(name, capsys):
    """typing a single-step pipeline's recipe gives its result and trace"""
    assert main(["construct"] + PIPELINE_RECIPES[name] + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    obj, trace = run_pipeline(name)
    assert doc["result"]["count"] == block_count(obj)
    assert doc["inputs"] == list(trace.inputs)
    assert doc["steps"] == [list(step) for step in trace.steps]
    assert main(["construct", "pipeline", name, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_trace_inputs_name_their_sources(tmp_path, capsys):
    """catalog:ID reads as "catalog ID", a file by its path"""
    assert main(["construct", "filling1", "catalog:fg-6^2-s3c", "2=catalog:small-(2,3)"]) == 0
    assert capsys.readouterr().out.startswith(
        "inputs: catalog fg-6^2-s3c; catalog small-(2,3)\n")
    path = tmp_path / "r8.json"
    assert main(["catalog", "emit", "rosqs8", "--out", str(path)]) == 0
    assert main(["construct", "hartman", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == [str(path)]


@pytest.mark.parametrize("argv, message", [
    (["filling1", "catalog:fg-6^2-s3c", "2=catalog:small-(2,3)", "2=catalog:small-(2,3)"],
     "error: filler size 2 given twice"),
    (["weighting1", "catalog:fg-4^2-s2c", "fan:2=catalog:fg-4^2-s2c",
      "fan:2=catalog:fg-4^2-s2c"], "error: fan ingredient size 2 given twice"),
    (["weighting2", "catalog:fg-(2,2)reg-4^2", "h:4=catalog:h-4-2-4-3",
      "h:4=catalog:h-4-2-4-3"], "error: h ingredient size 4 given twice"),
    (["weighting3", "catalog:h-4-2-4-3", "4=catalog:h-4-2-4-3", "04=catalog:h-4-2-4-3"],
     "error: ingredient size 4 given twice"),
], ids=["filler", "fan ingredient", "h ingredient", "weighting3 ingredient"])
def test_repeated_size_is_usage_error(argv, message, capsys):
    """the last ingredient of a size used to win silently"""
    assert main(["construct"] + argv) == 2
    assert capsys.readouterr().err.startswith(message + "\n")


@pytest.mark.parametrize("token", ["trivial:0x2", "trivial:2", "trivial:axb",
                                   "trivial:2x", "pipeline:9x9"])
def test_bad_named_source_is_usage_error(token, capsys):
    """a zero grid reached CyclicPacking and failed as a construction"""
    for argv in (["construct", "filling2", "catalog:fg-(2,2)reg-4^2", token],
                 ["verify", token, "--check", "packing"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(token) in err


def test_missing_parameter_is_usage_error(tmp_path, capsys):
    doc = {"schema_version": 1, "kind": "packing", "parameters": {"v": 3, "k": 4, "t": 3},
           "base_blocks": []}
    path = tmp_path / "nou.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--check", "packing"]) == 2
    assert capsys.readouterr().err == "error: cannot parse %s: missing parameter 'u'\n" % path


@pytest.mark.parametrize("argv", [
    ["construct", "pipeline", "2x4"], ["search", "2", "3", "4", "3"], ["catalog", "emit", "rosqs8"],
], ids=["construct", "search", "catalog"])
def test_out_into_a_missing_directory_is_an_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()

