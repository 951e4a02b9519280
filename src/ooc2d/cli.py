"""Command line front end.

Subcommands: bound, verify, construct, search, convert, catalog.
Design sources are either file paths or catalog:<id> references.
Exit codes: 0 success, 1 a verification or construction failed,
2 bad usage (unknown name, unreadable file, malformed parameters).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_report
from .catalog import catalog_get, catalog_ids
from .constructs import (
    ConstructionTrace,
    add_cross_pairs_layer,
    as_semicyclic,
    complete_pair_fan,
    filling_1,
    filling_2,
    fold,
    hartman,
    perfect_to_regular_1fg,
    regular_to_h1cyclic,
    semicyclic_to_vcyclic,
    weighting_1,
    weighting_2,
    weighting_3,
)
from .core import Code, CyclicPacking
from .correlation import code_to_packing, packing_to_code
from .designs import FanDesign, HDesign, RoSQSDesign
from .files import block_count, design_to_dict, load_design, save_design, verdict
from .packing import is_perfect, verify_packing
from .pipelines import run_pipeline
from .search import check_parameters, max_packing


class UsageError(Exception):
    pass


def _load_source(source: str, kind=None):
    """The design a source names; with kind, it must be of that class."""
    if source.startswith("catalog:"):
        try:
            obj = catalog_get(source[len("catalog:"):]).payload
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
    else:
        try:
            obj = load_design(source)
        except OSError as exc:
            raise UsageError("cannot read %s: %s" % (source, exc))
        except (ValueError, KeyError) as exc:
            raise UsageError("cannot parse %s: %s" % (source, exc))
    if kind is not None and not isinstance(obj, kind):
        raise UsageError("%s holds a %s, expected a %s"
                         % (source, type(obj).__name__, kind.__name__))
    return obj


def _emit(obj, out, as_json: bool) -> None:
    if out:
        save_design(obj, out)
    elif as_json:
        print(json.dumps(design_to_dict(obj), indent=1, sort_keys=True))


def _as_kind(obj, kind, message: str):
    """obj as an instance of kind, a code and a packing converting into
    each other; anything else is a UsageError(message)."""
    if kind is Code and isinstance(obj, CyclicPacking):
        obj = packing_to_code(obj)
    elif kind is CyclicPacking and isinstance(obj, Code):
        obj = code_to_packing(obj)
    if not isinstance(obj, kind):
        raise UsageError(message)
    return obj


def _object_summary(obj) -> dict:
    doc = design_to_dict(obj)
    return {"kind": doc["kind"], "parameters": doc["parameters"], "count": block_count(obj)}


def cmd_bound(args) -> int:
    try:
        report = bound_report(args.u, args.v, args.k, args.lam)
    except ValueError as exc:  # bad parameters: nothing was verified
        raise UsageError(str(exc)) from None
    if args.json:
        print(json.dumps(report.__dict__, sort_keys=True))
        return 0
    print("johnson=%d j1=%d/%d lifting_equal=%s"
          % (report.johnson, report.j1_num, report.j1_den, report.lifting_equal))
    if report.jstar is not None:
        print("jstar=%d case=%s perfect_class=%s"
              % (report.jstar, report.jstar_case, report.perfect))
    return 0


# the kind each check needs, and how a refusal names it
_CHECK_KINDS = {"ooc": (Code, "a code or packing"),
                "packing": (CyclicPacking, "a packing or code"),
                "perfect": (CyclicPacking, "a packing or code"),
                "fan": (FanDesign, "a fan design"), "hdesign": (HDesign, "an H design"),
                "rosqs": (RoSQSDesign, "a rotational system")}


def _run_check(obj, check: str, strict: bool):
    """None when obj passes, else the failure detail; a kind mismatch
    raises UsageError."""
    kind, needs = _CHECK_KINDS[check]
    obj = _as_kind(obj, kind, "check %s needs %s" % (check, needs))
    detail = verdict(obj, strict or check == "perfect")
    if detail is None and check == "perfect" and not is_perfect(obj):
        detail = "leave is nonempty (%d t-subsets)" % verify_packing(obj).leave_size
    return detail


def cmd_verify(args) -> int:
    detail = _run_check(_load_source(args.target), args.check, args.strict)
    if args.json:
        print(json.dumps({"target": args.target, "check": args.check,
                          "ok": detail is None, "detail": detail}, sort_keys=True))
    elif detail is None:
        print("ok: %s passes %s" % (args.target, args.check))
    else:
        print("FAIL: %s fails %s: %s" % (args.target, args.check, detail))
    return 0 if detail is None else 1


def _parse_sized(token: str, label: str, kind):
    size, eq, src = token.partition("=")
    if not eq or not size.isdecimal():
        raise UsageError("%s wants SIZE=SOURCE, got %r" % (label, token))
    return int(size), _load_source(src, kind)


def _parse_weighting_args(rest):
    fans = {}
    hs = {}
    for token in rest:
        if token.startswith("fan:"):
            size, obj = _parse_sized(token[4:], "fan ingredient", FanDesign)
            fans[size] = obj
        elif token.startswith("h:"):
            size, obj = _parse_sized(token[2:], "h ingredient", HDesign)
            hs[size] = obj
        else:
            raise UsageError("weighting wants fan:SIZE=SOURCE or h:SIZE=SOURCE, got %r"
                             % token)
    return fans, hs


def _dispatch_recipe(recipe: str, rest: list):
    if recipe == "hartman":
        if len(rest) != 1:
            raise UsageError("construct hartman SOURCE")
        return hartman(_load_source(rest[0], RoSQSDesign), input_label=rest[0])
    if recipe == "filling1":
        if len(rest) < 2:
            raise UsageError("construct filling1 MASTER SIZE=SOURCE...")
        fillers = dict(_parse_sized(tok, "filler", CyclicPacking) for tok in rest[1:])
        return filling_1(_load_source(rest[0], FanDesign), fillers)
    if recipe == "filling2":
        if len(rest) != 2:
            raise UsageError("construct filling2 MASTER FILLER")
        return filling_2(_load_source(rest[0], FanDesign), _load_source(rest[1], CyclicPacking))
    if recipe in ("weighting1", "weighting2"):
        if len(rest) < 2:
            raise UsageError("construct %s MASTER fan:SIZE=SOURCE... h:SIZE=SOURCE..."
                             % recipe)
        fans, hs = _parse_weighting_args(rest[1:])
        op = weighting_1 if recipe == "weighting1" else weighting_2
        return op(_load_source(rest[0], FanDesign), fans, hs)
    if recipe == "weighting3":
        if len(rest) < 2:
            raise UsageError("construct weighting3 MASTER SIZE=SOURCE...")
        ingredients = dict(_parse_sized(tok, "ingredient", HDesign) for tok in rest[1:])
        return weighting_3(_load_source(rest[0], HDesign), ingredients)
    if recipe == "fold":
        if len(rest) != 2 or not rest[1].isdecimal():
            raise UsageError("construct fold SOURCE V1")
        code = _as_kind(_load_source(rest[0]), Code, "fold needs a code or packing")
        return fold(code, int(rest[1]), input_label=rest[0])
    if recipe == "remap":
        if len(rest) != 2:
            raise UsageError("construct remap MODE SOURCE")
        mode, source = rest
        if mode == "semicyclic":
            return semicyclic_to_vcyclic(_load_source(source, FanDesign))
        if mode == "hsemicyclic":
            return as_semicyclic(_load_source(source, HDesign))
        if mode.startswith("h1cyclic:"):
            h1 = mode[len("h1cyclic:"):]
            if not h1.isdecimal():
                raise UsageError("remap h1cyclic:<h1> SOURCE")
            return regular_to_h1cyclic(_load_source(source, FanDesign), int(h1))
        if mode == "pairs":
            return add_cross_pairs_layer(_load_source(source, FanDesign))
        if mode == "perfect1fg":
            return perfect_to_regular_1fg(_load_source(source, CyclicPacking))
        raise UsageError("unknown remap mode %r" % mode)
    if recipe == "pairfan":
        if len(rest) != 1 or not rest[0].isdecimal():
            raise UsageError("construct pairfan N")
        if int(rest[0]) < 2:
            raise UsageError("pairfan needs N >= 2, got %s" % rest[0])
        fan = complete_pair_fan(int(rest[0]))
        return fan, ConstructionTrace(inputs=(),
                                      steps=(("pair and quadruple blocks", block_count(fan)),))
    if recipe == "pipeline":
        if len(rest) != 1:
            raise UsageError("construct pipeline NAME")
        try:
            return run_pipeline(rest[0])
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
    raise UsageError("unknown recipe %r" % recipe)


def cmd_construct(args) -> int:
    obj, trace = _dispatch_recipe(args.recipe, args.args)
    summary = _object_summary(obj)
    if args.json:
        print(json.dumps({"result": summary,
                          "inputs": list(trace.inputs),
                          "steps": [[label, delta] for label, delta in trace.steps]},
                         sort_keys=True))
    else:
        print("inputs: %s" % "; ".join(trace.inputs))
        for label, delta in trace.steps:
            print("  %-28s %+d" % (label, delta))
        print("result: %s %s, %d blocks"
              % (summary["kind"],
                 " ".join("%s=%s" % kv for kv in sorted(summary["parameters"].items())),
                 summary["count"]))
    _emit(obj, args.out, False)
    return 0


def cmd_search(args) -> int:
    try:
        check_parameters(args.u, args.v, args.k, args.t, args.budget)
    except ValueError as exc:  # bad parameters: nothing was searched
        raise UsageError(str(exc)) from None
    result = max_packing(args.u, args.v, args.k, args.t, node_budget=args.budget)
    if args.json:
        print(json.dumps({"max": result.max_blocks,
                          "proved": result.proved_optimal,
                          "nodes": result.nodes_explored,
                          "budget_exhausted": result.budget_exhausted,
                          "proof": result.proof,
                          "bound": result.upper_bound},
                         sort_keys=True))
    else:
        tag = "proved" if result.proved_optimal else "not proved (budget exhausted)"
        print("max=%d %s nodes=%d" % (result.max_blocks, tag, result.nodes_explored))
    _emit(result.witness, args.out, False)
    return 0


def cmd_convert(args) -> int:
    obj = _load_source(args.src)
    if args.to == "matrix":
        obj = _as_kind(obj, Code, "convert --to matrix needs a packing or code")
    else:
        obj = _as_kind(obj, CyclicPacking, "convert --to blocks needs a code or packing")
    _emit(obj, args.out, True)
    return 0


def cmd_catalog(args) -> int:
    if args.what == "list":
        for entry_id in catalog_ids():
            entry = catalog_get(entry_id)
            print("%-22s %-8s %d base blocks"
                  % (entry_id, entry.kind, entry.expected_base_count))
        return 0
    if not args.id:
        raise UsageError("catalog emit needs an id")
    _emit(_load_source("catalog:" + args.id), args.out, True)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ooc2d")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="counting bounds for one grid")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("verify", help="run one verifier against a design")
    p.add_argument("target")
    p.add_argument("--check", required=True,
                   choices=["ooc", "packing", "perfect", "fan", "hdesign", "rosqs"])
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="run a construction recipe")
    p.add_argument("recipe")
    p.add_argument("args", nargs="*")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="maximum packing search")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--budget", type=int, default=100_000_000)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("convert", help="switch between matrix and block form")
    p.add_argument("src")
    p.add_argument("--to", required=True, choices=["matrix", "blocks"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("catalog", help="list shipped designs or emit one")
    p.add_argument("what", choices=["list", "emit"])
    p.add_argument("id", nargs="?")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("FAIL: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
