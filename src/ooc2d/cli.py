"""Command line front end.

Subcommands: bound, verify, construct, search, convert, catalog.
Recipes and design sources (file paths, catalog:<id>, pipeline:<name>,
trivial:<u>x<v>) are resolved by pipelines.construct and
pipelines.load_source; this module keeps argument parsing, output and
the verify checks.
Exit codes: 0 success, 1 a verification or construction failed,
2 bad usage (unknown name, unreadable file, malformed parameters).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_report
from .catalog import catalog_get, catalog_ids
from .core import Code, CyclicPacking
from .designs import FanDesign, HDesign, RoSQSDesign
from .files import block_count, design_header, design_json, require, save_design, verdict
from .packing import is_perfect, verify_packing
from .pipelines import UsageError, as_kind, construct, load_source
from .search import check_parameters, max_packing


def _emit(obj, out, as_json: bool) -> None:
    if out:
        save_design(obj, out)
    elif as_json:
        print(design_json(obj))


def _object_summary(obj) -> dict:
    kind, params = design_header(obj)
    return {"kind": kind, "parameters": params, "count": block_count(obj)}


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
    obj = as_kind(obj, kind, "check %s needs %s" % (check, needs))
    detail = verdict(obj, strict or check == "perfect")
    if detail is None and check == "perfect" and not is_perfect(obj):
        detail = "leave is nonempty (%d t-subsets)" % verify_packing(obj).leave_size
    return detail


def cmd_verify(args) -> int:
    detail = _run_check(load_source(args.target), args.check, args.strict)
    if args.json:
        print(json.dumps({"target": args.target, "check": args.check,
                          "ok": detail is None, "detail": detail}, sort_keys=True))
    elif detail is None:
        print("ok: %s passes %s" % (args.target, args.check))
    else:
        print("FAIL: %s fails %s: %s" % (args.target, args.check, detail))
    return 0 if detail is None else 1


def cmd_construct(args) -> int:
    obj, trace = construct(args.recipe, args.args)
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
    obj = load_source(args.src)
    if args.to == "matrix":
        obj = as_kind(obj, Code, "convert --to matrix needs a packing or code")
    else:
        obj = as_kind(obj, CyclicPacking, "convert --to blocks needs a code or packing")
    # a refusal is printed by main as FAIL with exit 1, and nothing is written
    require(obj, "%s as %s fails its check" % (args.src, args.to), strict=False)
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
    _emit(load_source("catalog:" + args.id), args.out, True)
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
                   choices=list(_CHECK_KINDS))
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
