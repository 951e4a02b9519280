"""Construction recipes, and the named pipelines built from them.

A recipe is what `ooc2d construct RECIPE ARGS...` takes, and
construct(recipe, args) is the one resolver: it loads the design
sources the tokens name, runs the construction and returns (object,
trace).  A source is a file path, `catalog:ID`, `pipeline:NAME` (the
object a pipeline builds) or `trivial:UxV` (the empty packing on a
u x v grid).  Every trace input is labelled by its source, with the
colon of a named source written as a space (`catalog ID`); the remap
modes and pairfan keep their own fixed labels.  Bad tokens raise
UsageError.

Each pipeline builds the optimum-size object for one grid out of
catalog ingredients, and is named after the grid it lands on.  A
single-step pipeline is a recipe row of _PIPELINES, the tokens a user
would type; only the multi-step chains (8x2, 8x4, h44-2cyc) keep code.
The result is the finished object together with the trace of the last
construction step.
"""

from __future__ import annotations

from functools import lru_cache

from .catalog import catalog_get
from .constructs import (
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
    trivial_packing,
    weighting_1,
    weighting_2,
    weighting_3,
)
from .core import Code, CyclicPacking
from .correlation import code_to_packing, packing_to_code
from .designs import FanDesign, HDesign, RoSQSDesign
from .files import load_design


class UsageError(Exception):
    pass


def _catalog(entry_id: str):
    try:
        return catalog_get(entry_id).payload
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))


def _pipeline(name: str):
    if name not in _PIPELINES:
        raise UsageError("%r names no pipeline, have: %s"
                         % ("pipeline:" + name, ", ".join(pipeline_names())))
    return run_pipeline(name)[0]


def _trivial(size: str):
    u, x, v = size.partition("x")
    if not (x and u.isdecimal() and v.isdecimal() and int(u) > 0 and int(v) > 0):
        raise UsageError("trivial:UxV wants two positive sizes, got %r" % ("trivial:" + size))
    return trivial_packing(int(u), int(v))


# the named source kinds: prefix before the colon -> loader of what follows it
_SOURCES = {"catalog": _catalog, "pipeline": _pipeline, "trivial": _trivial}


def load_source(source: str, kind=None):
    """The design a source names; with kind, it must be of that class."""
    prefix, colon, rest = source.partition(":")
    if colon and prefix in _SOURCES:
        obj = _SOURCES[prefix](rest)
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


def _label(source: str) -> str:
    """The trace label of a source: a named source with its colon as a
    space, a file by its path."""
    prefix, colon, rest = source.partition(":")
    return "%s %s" % (prefix, rest) if colon and prefix in _SOURCES else source


def as_kind(obj, kind, message: str):
    """obj as an instance of kind, a code and a packing converting into
    each other; anything else is a UsageError(message)."""
    if kind is Code and isinstance(obj, CyclicPacking):
        obj = packing_to_code(obj)
    elif kind is CyclicPacking and isinstance(obj, Code):
        obj = code_to_packing(obj)
    if not isinstance(obj, kind):
        raise UsageError(message)
    return obj


def _parse_sized(tokens, what: str, kind) -> tuple:
    """({size: object}, labels in size order) from SIZE=SOURCE tokens; a
    size given twice is refused."""
    objects, labels = {}, {}
    for token in tokens:
        size, eq, src = token.partition("=")
        if not eq or not size.isdecimal():
            raise UsageError("%s wants SIZE=SOURCE, got %r" % (what, token))
        if int(size) in objects:
            raise UsageError("%s size %d given twice" % (what, int(size)))
        objects[int(size)], labels[int(size)] = load_source(src, kind), _label(src)
    return objects, [labels[size] for size in sorted(labels)]


def _parse_weighting_args(rest):
    for token in rest:
        if not token.startswith(("fan:", "h:")):
            raise UsageError("weighting wants fan:SIZE=SOURCE or h:SIZE=SOURCE, got %r"
                             % token)
    return (_parse_sized([tok[4:] for tok in rest if tok.startswith("fan:")],
                         "fan ingredient", FanDesign),
            _parse_sized([tok[2:] for tok in rest if tok.startswith("h:")],
                         "h ingredient", HDesign))


def construct(recipe: str, args) -> tuple:
    """Run one recipe on its argument tokens; returns (object, trace)."""
    if recipe == "hartman":
        if len(args) != 1:
            raise UsageError("construct hartman SOURCE")
        return hartman(load_source(args[0], RoSQSDesign), input_label=_label(args[0]))
    if recipe == "filling1":
        if len(args) < 2:
            raise UsageError("construct filling1 MASTER SIZE=SOURCE...")
        fillers, labels = _parse_sized(args[1:], "filler", CyclicPacking)
        return filling_1(load_source(args[0], FanDesign), fillers,
                         input_labels=[_label(args[0])] + labels)
    if recipe == "filling2":
        if len(args) != 2:
            raise UsageError("construct filling2 MASTER FILLER")
        return filling_2(load_source(args[0], FanDesign), load_source(args[1], CyclicPacking),
                         input_labels=[_label(args[0]), _label(args[1])])
    if recipe in ("weighting1", "weighting2"):
        if len(args) < 2:
            raise UsageError("construct %s MASTER fan:SIZE=SOURCE... h:SIZE=SOURCE..."
                             % recipe)
        (fans, fan_labels), (hs, h_labels) = _parse_weighting_args(args[1:])
        op = weighting_1 if recipe == "weighting1" else weighting_2
        return op(load_source(args[0], FanDesign), fans, hs,
                  input_labels=[_label(args[0])] + fan_labels + h_labels)
    if recipe == "weighting3":
        if len(args) < 2:
            raise UsageError("construct weighting3 MASTER SIZE=SOURCE...")
        ingredients, labels = _parse_sized(args[1:], "ingredient", HDesign)
        return weighting_3(load_source(args[0], HDesign), ingredients,
                           input_labels=[_label(args[0])] + labels)
    if recipe == "fold":
        if len(args) != 2 or not args[1].isdecimal():
            raise UsageError("construct fold SOURCE V1")
        if int(args[1]) < 1:
            raise UsageError("fold needs V1 >= 1, got %s" % args[1])
        code = as_kind(load_source(args[0]), Code, "fold needs a code or packing")
        return fold(code, int(args[1]), input_label=_label(args[0]))
    if recipe == "remap":
        if len(args) != 2:
            raise UsageError("construct remap MODE SOURCE")
        mode, source = args
        if mode == "semicyclic":
            return semicyclic_to_vcyclic(load_source(source, FanDesign))
        if mode == "hsemicyclic":
            return as_semicyclic(load_source(source, HDesign))
        if mode.startswith("h1cyclic:"):
            h1 = mode[len("h1cyclic:"):]
            if not h1.isdecimal():
                raise UsageError("remap h1cyclic:<h1> SOURCE")
            if int(h1) < 1:
                raise UsageError("remap h1cyclic needs h1 >= 1, got %s" % h1)
            return regular_to_h1cyclic(load_source(source, FanDesign), int(h1))
        if mode == "pairs":
            return add_cross_pairs_layer(load_source(source, FanDesign))
        if mode == "perfect1fg":
            return perfect_to_regular_1fg(load_source(source, CyclicPacking))
        raise UsageError("unknown remap mode %r" % mode)
    if recipe == "pairfan":
        if len(args) != 1 or not args[0].isdecimal():
            raise UsageError("construct pairfan N")
        if int(args[0]) < 2:
            raise UsageError("pairfan needs N >= 2, got %s" % args[0])
        return complete_pair_fan(int(args[0]))
    if recipe == "pipeline":
        if len(args) != 1:
            raise UsageError("construct pipeline NAME")
        try:
            return run_pipeline(args[0])
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
    raise UsageError("unknown recipe %r" % recipe)


def _h44_2cyc():
    """2-cyclic H(4,4,4,3) with 32 base blocks, via the semicyclic view of the seed."""
    seed = load_source("catalog:h-4-2-4-3")
    semi, _ = as_semicyclic(seed)
    return weighting_3(seed, {4: semi},
                       input_labels=["catalog h-4-2-4-3", "semicyclic h-4-2-4-3"])


def _grid_8x2():
    """68 codewords on 8x2.

    Blow up the complete quadruple system on 4 points by weight 4:
    pairs carry the 4^2 group divisible fan, quadruples carry the
    2-cyclic H(4,4,4,3).  The groups of the resulting 4^4 fan are
    2x2 fibres, filled trivially.
    """
    terminal_h, _ = run_pipeline("h44-2cyc")
    fan, _ = weighting_1(complete_pair_fan(4)[0], {2: load_source("catalog:fg-4^2-s2c")},
                         {4: terminal_h})
    return filling_1(fan, {2: load_source("trivial:2x2")},
                     input_labels=["weighted 4^4 fan", "trivial 2x2"])


def _grid_8x4():
    """308 codewords on 8x4.

    Rebuild the regular 4^2 fan with its cross pairs as an explicit
    layer, blow it up by weight 4 (pairs carry the plain 4^2 fan,
    quadruples carry the plain H(4,4,4,3)), then fill the two 16-point
    column classes with the 8x2 optimum.
    """
    layered, _ = add_cross_pairs_layer(load_source("catalog:fg-(2,2)reg-4^2"))
    terminal_h, _ = run_pipeline("h44-plain")
    fan, _ = weighting_2(layered, {2: load_source("catalog:fan-plain-4^2")}, {4: terminal_h})
    filler, _ = run_pipeline("8x2")
    return filling_2(fan, filler, input_labels=["weighted 16^2 fan", "pipeline 8x2"])


# pipeline name -> the recipe tokens of a single step, or the chain that builds it
_PIPELINES = {
    # 3 codewords on 2x4: fill the column classes of the regular 4^2 fan
    "2x4": ("filling2", "catalog:fg-(2,2)reg-4^2", "trivial:2x2"),
    # 13 codewords on 2x7 from the rotational quadruple system on 8 points
    "2x7": ("hartman", "catalog:rosqs8"),
    # 17 codewords on 2x8: regular 8^2 fan filled with the 2x4 optimum
    "2x8": ("filling2", "catalog:fg-(2,4)reg-8^2", "pipeline:2x4"),
    # 41 codewords on 2x12: regular 12^2 fan filled with the 2x6 optimum
    "2x12": ("filling2", "catalog:fg-(2,6)reg-12^2", "catalog:small-(2,6)"),
    # 67 codewords on 2x15: regular 6^5 fan filled with the 2x3 optimum
    "2x15": ("filling2", "catalog:fg-(2,3)reg-6^5", "catalog:small-(2,3)"),
    # 100 codewords on 3x10: regular 6^5 fan filled with the 3x2 optimum
    "3x10": ("filling2", "catalog:fg-(3,2)reg-6^5", "catalog:small-(3,2)"),
    # 6 codewords on 4x2: fill both fibres of the 4^2 group divisible fan
    "4x2": ("filling1", "catalog:fg-4^2-s2c", "2=trivial:2x2"),
    # 17 codewords on 4x3: fill both fibres of the 6^2 group divisible fan
    "4x3": ("filling1", "catalog:fg-6^2-s3c", "2=catalog:small-(2,3)"),
    "8x2": _grid_8x2,
    "8x4": _grid_8x4,
    # 248 codewords on 12x2: fill both fibres of the 12^2 group divisible fan
    "12x2": ("filling1", "catalog:fg-12^2-s2c", "6=catalog:small-(6,2)"),
    # 91 codewords on 14x1 by folding the 2x7 optimum to a single column
    "14x1": ("fold", "pipeline:2x7", "7"),
    # transversal design H(4,4,4,3) with trivial group action, 64 base blocks
    "h44-plain": ("weighting3", "catalog:h-4-2-4-3", "4=catalog:h-4-2-4-3"),
    "h44-2cyc": _h44_2cyc,
}


def pipeline_names() -> list:
    return sorted(_PIPELINES)


@lru_cache(maxsize=None)
def run_pipeline(name: str):
    """Run a named pipeline; returns (object, trace of the final step)."""
    try:
        build = _PIPELINES[name]
    except KeyError:
        raise KeyError("no pipeline %r, have: %s" % (name, ", ".join(pipeline_names())))
    if callable(build):
        return build()
    return construct(build[0], build[1:])
