"""Span tracing of the ooc2d layers, done from outside the library.

A Tracer replaces each public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span
and, for a few functions, a count taken from the call's arguments or
result.  Modules import each other's functions by name (constructs does
`from .designs import verify_fan`), so every ooc2d module namespace
that holds a wrapped function gets the wrapper, and calls made inside
constructions are traced too.

Once the library has its own stats channel, the traced run should read
that channel instead of installing these wrappers.
"""

from __future__ import annotations

import inspect
import os
import sys
from math import comb
from time import perf_counter

LAYERS = ("search", "packing", "correlation", "designs", "catalog",
          "constructs", "pipelines", "core", "files")

# Per-block helpers that one pass calls thousands of times.  A wrapper
# on them would cost more than the work they do and swamp the trace.
LEAF_HELPERS = frozenset({
    "core.as_block", "core.canonicalize", "core.check_block_range",
    "core.orbit", "core.shift", "core.stabilizer_order",
    "correlation.block_to_matrix", "correlation.correlation",
    "correlation.matrix_to_block",
    "designs.block_stabilizer", "designs.block_stabilizer_h",
    "designs.fan_shift", "designs.h_shift", "designs.rosqs_shift",
    "constructs.fan_shift_regular",
})

VERIFIERS = frozenset({
    "packing.verify_packing", "packing.is_perfect", "correlation.verify_ooc",
    "designs.verify_fan", "designs.verify_h_cyclic", "designs.verify_regular",
    "designs.verify_h_design", "designs.verify_rosqs",
})


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _search_info(fn, args, kwargs, result, before):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"grid": (bound["u"], bound["v"]), "nodes": result.nodes_explored,
            "proved": result.proved_optimal, "max_blocks": result.max_blocks}


def _packing_info(fn, args, kwargs, result, before):
    p = _arg(fn, args, kwargs, "p")
    return sum(result.orbit_lengths) * comb(p.k, p.t)


def _ooc_info(fn, args, kwargs, result, before):
    code = _arg(fn, args, kwargs, "code")
    n = code.size
    return n * (n + 1) // 2 * code.v


def _file_size(fn, args, kwargs, result, before):
    return os.path.getsize(_arg(fn, args, kwargs, "path"))


def _catalog_misses(fn, args, kwargs):
    return fn.cache_info().misses


def _catalog_info(fn, args, kwargs, result, before):
    return fn.cache_info().misses - before


def _construct_info(fn, args, kwargs, result, before):
    """Sum of the construction trace's step counts, for calls that
    return (output, trace)."""
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "steps"):
        return sum(count for _, count in result[1].steps)
    return None


# name -> (before hook or None, after hook); the after hook's value is
# stored as the span's info.
_OBSERVERS = {
    "search.max_packing": (None, _search_info),
    "packing.verify_packing": (None, _packing_info),
    "correlation.verify_ooc": (None, _ooc_info),
    "files.save_design": (None, _file_size),
    "files.load_design": (None, _file_size),
    "catalog.catalog_get": (_catalog_misses, _catalog_info),
}


def public_functions(modules: dict) -> dict:
    """{"layer.name": function} for the public functions each layer
    module defines itself, minus the leaf helpers."""
    found = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            full = "%s.%s" % (layer, name)
            if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or full in LEAF_HELPERS):
                continue
            found[full] = obj
    return found


class Tracer:
    """Records spans as [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before_hook, after_hook = _OBSERVERS.get(name, (None, None))
        if after_hook is None and name.startswith("constructs."):
            after_hook = _construct_info

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            before = before_hook(fn, args, kwargs) if before_hook else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after_hook:
                span[4] = after_hook(fn, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public layer function in every loaded ooc2d
        module namespace that holds it."""
        originals = {id(fn): (name, fn) for name, fn in public_functions(modules).items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ooc2d" or modname.startswith("ooc2d.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open: %r" % [self.spans[i][0] for i in self._stack])
        out = list(self.spans)
        self.spans.clear()
        return out


def _outer(spans: list, names) -> list:
    """Spans whose name is in names and that have no ancestor in names,
    so nested or recursive calls are not counted twice."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def _inside(spans: list, span, prefix: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def _total(spans: list) -> float:
    return sum((s[2] - s[1] for s in spans), 0.0)


def _pass_totals(spans: list, pass_s: float, enumerate_s: dict, caps: dict) -> dict:
    """Raw totals for one traced pass."""
    out: dict = {"trace.pass_s": pass_s}
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    for layer in LAYERS:
        out[layer + ".self_s"] = 0.0
    for s, c in zip(spans, child):
        out[s[0].split(".")[0] + ".self_s"] += s[2] - s[1] - c
    out["bench.self_s"] = pass_s - _total([s for s in spans if s[3] < 0])

    def timed(key, names, calls=False):
        outer = _outer(spans, frozenset(names))
        out[key + "_s"] = _total(outer)
        if calls:
            out[key + ".calls"] = sum(1 for s in spans if s[0] in names)
        return outer

    def info_sum(name):
        return sum(s[4] for s in spans if s[0] == name)

    searches = timed("search.max_packing", {"search.max_packing"})
    out.update({"search.enumerate_s": 0.0, "search.heuristic_s": 0.0, "search.nodes": 0,
                "search.tree_s": 0.0, "search.proved_by_bound": 0,
                "search.proved_by_exhaustion": 0})
    for s in searches:
        info = s[4]
        enum = enumerate_s[info["grid"]]
        out["search.enumerate_s"] += enum
        if info["nodes"] == 0:
            out["search.heuristic_s"] += s[2] - s[1] - enum
        else:
            out["search.nodes"] += info["nodes"]
            out["search.tree_s"] += s[2] - s[1] - enum
        if info["proved"]:
            by_bound = info["max_blocks"] >= caps[info["grid"]]
            out["search.proved_by_bound" if by_bound else "search.proved_by_exhaustion"] += 1

    timed("packing.verify_packing", {"packing.verify_packing"}, calls=True)
    out["packing.triples"] = info_sum("packing.verify_packing")
    timed("correlation.verify_ooc", {"correlation.verify_ooc"})
    out["correlation.pairs"] = info_sum("correlation.verify_ooc")
    timed("correlation.convert", {"correlation.packing_to_code", "correlation.code_to_packing"})
    timed("designs.verify_fan", {"designs.verify_fan"}, calls=True)
    timed("designs.verify_action", {"designs.verify_h_cyclic", "designs.verify_regular"},
          calls=True)
    timed("designs.verify_h_design", {"designs.verify_h_design"}, calls=True)
    timed("designs.verify_rosqs", {"designs.verify_rosqs"}, calls=True)
    timed("catalog.get", {"catalog.catalog_get"})
    out["catalog.entries_loaded"] = info_sum("catalog.catalog_get")

    construction_names = frozenset(s[0] for s in spans if s[0].startswith("constructs."))
    out["constructs.calls"] = sum(1 for s in spans if s[0] in construction_names)
    out["constructs.blocks_out"] = sum(s[4] for s in spans
                                       if s[0] in construction_names and s[4] is not None)
    out["constructs.span_s"] = _total(_outer(spans, construction_names))
    out["constructs.verify_s"] = _total([s for s in _outer(spans, VERIFIERS)
                                         if _inside(spans, s, "constructs.")])

    timed("pipelines.run", {"pipelines.run_pipeline"})
    timed("core.make_packing", {"core.make_packing"}, calls=True)
    timed("files.load", {"files.load_design"})
    timed("files.save", {"files.save_design"})
    out["files.bytes_read"] = info_sum("files.load_design")
    out["files.bytes_written"] = info_sum("files.save_design")
    return out


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(span_passes: list, pass_times: list, enumerate_s: dict,
                  caps: dict) -> dict:
    """Per-pass means of the per-layer metrics, plus the rates built
    from them.  span_passes holds one span list per traced pass and
    pass_times the traced wall time of each; enumerate_s is the probe
    time per grid and caps the counting bound per grid."""
    totals: dict = {}
    for spans, pass_s in zip(span_passes, pass_times):
        for key, value in _pass_totals(spans, pass_s, enumerate_s, caps).items():
            totals[key] = totals.get(key, 0) + value
    n = len(span_passes)
    per = {key: (value // n if isinstance(value, int) and value % n == 0 else value / n)
           for key, value in totals.items()}
    per["search.nodes_per_s"] = _rate(per["search.nodes"], per.pop("search.tree_s"))
    per["packing.triples_per_s"] = _rate(per.pop("packing.triples"),
                                         per["packing.verify_packing_s"])
    per["correlation.pairs_per_s"] = _rate(per.pop("correlation.pairs"),
                                           per["correlation.verify_ooc_s"])
    span_s = per.pop("constructs.span_s")
    per["constructs.verify_share"] = _rate(per.pop("constructs.verify_s"), span_s)
    return per
