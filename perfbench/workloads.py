"""The four benchmark workloads.

Each workload turns a seed into inputs (set-up) and then offers a list
of named operations.  An operation's `run` makes the library calls a
user's command would make and is timed; its `check` compares the
outputs with pinned values and returns (failure messages, digest text),
untimed.  Library functions are looked up through their modules at
call time, so a Tracer installed after import sees every call.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple

import ooc2d.bounds as bounds
import ooc2d.catalog as catalog
import ooc2d.constructs as constructs
import ooc2d.core as core
import ooc2d.correlation as correlation
import ooc2d.designs as designs
import ooc2d.files as files
import ooc2d.packing as packing
import ooc2d.pipelines as pipelines
import ooc2d.search as search

MODULES = {"search": search, "packing": packing, "correlation": correlation,
           "designs": designs, "catalog": catalog, "constructs": constructs,
           "pipelines": pipelines, "core": core, "files": files}

# The memo caches a fresh ooc2d process starts without.  Held here, not
# looked up later, because a Tracer replaces the module attributes.
_CACHE_CLEARERS = (pipelines.run_pipeline.cache_clear, catalog.catalog_get.cache_clear,
                   catalog._raw.cache_clear)

# Criterion 6 of the acceptance suite: grid -> proved optimum.
SEARCH_OPTIMA = {(2, 3): 1, (3, 2): 1, (2, 4): 3, (4, 2): 6, (3, 3): 6, (2, 6): 8,
                 (3, 4): 12, (6, 2): 25, (4, 3): 17, (2, 2): 0, (6, 1): 3, (12, 1): 51}
# Grids the branch and bound solves alone, with the published optimum.
PROVE_OPTIMA = {(9, 1): 18, (4, 3): 17, (2, 7): 13, (5, 2): 15}
# Base block count of every pipeline's output.
PIPELINE_SIZES = {"2x7": 13, "14x1": 91, "4x2": 6, "4x3": 17, "2x4": 3, "2x8": 17,
                  "2x12": 41, "2x15": 67, "3x10": 100, "12x2": 248, "8x2": 68,
                  "8x4": 308, "h44-plain": 64, "h44-2cyc": 32}
# Large codes for the verify workload: (name, pipeline, fold factor, codewords).
VERIFY_CODES = (("16x2", "8x4", 2, 616), ("32x1", "8x4", 4, 1232),
                ("24x1", "12x2", 2, 496))


# Bound at import, before any Tracer wraps it: output digests are not
# part of the traced work.
_design_to_dict = files.design_to_dict


def _canonical_json(obj) -> str:
    return json.dumps(_design_to_dict(obj), sort_keys=True, separators=(",", ":"))


Op = namedtuple("Op", "name run check")


def _size(obj) -> int:
    if isinstance(obj, core.CyclicPacking):
        return obj.num_base_blocks
    if isinstance(obj, core.Code):
        return obj.size
    return len(obj.base_blocks)


class SearchWorkload:
    """max_packing on a fixed set of grids; every result must reach the
    pinned optimum, be proved, and have a valid strictly cyclic witness."""

    def __init__(self, optima: dict, heuristic: bool):
        self.optima = optima
        self.heuristic = heuristic

    def setup(self, seed: int, workdir: str) -> None:
        self.grids = list(self.optima)
        self.caps = {grid: bounds.jstar(*grid)[0] for grid in self.grids}

    def probe(self, grid) -> None:
        """Orbit enumeration alone: no heuristic, one tree node."""
        search.max_packing(grid[0], grid[1], 4, 3, heuristic_iterations=0, node_budget=1)

    def ops(self) -> list:
        return [Op("%dx%d" % grid, self._runner(grid), self._checker(grid))
                for grid in self.grids]

    def _runner(self, grid):
        kwargs = {} if self.heuristic else {"heuristic_iterations": 0}

        def run():
            result = search.max_packing(grid[0], grid[1], 4, 3, **kwargs)
            return result, packing.verify_packing(result.witness)
        return run

    def _checker(self, grid):
        def check(out):
            result, report = out
            bad = []
            if result.max_blocks != self.optima[grid]:
                bad.append("max_blocks %d, expected %d" % (result.max_blocks, self.optima[grid]))
            if not result.proved_optimal:
                bad.append("not proved optimal")
            if result.witness.num_base_blocks != result.max_blocks:
                bad.append("witness has %d blocks" % result.witness.num_base_blocks)
            if not (report.valid and report.strictly_cyclic):
                bad.append("witness fails verify_packing: %r" % (report,))
            # node counts are left out: a pruning change may move them
            digest = "%d %r %r %s %r" % (result.max_blocks, result.proved_optimal,
                                        result.budget_exhausted,
                                        _canonical_json(result.witness), report)
            return bad, digest
        return check


class ConstructWorkload:
    """Every pipeline built cold, saved, loaded back and verified."""

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.names = pipelines.pipeline_names()
        missing = set(PIPELINE_SIZES) ^ set(self.names)
        if missing:
            raise ValueError("pipelines without a pinned size: %s" % sorted(missing))

    def ops(self) -> list:
        return [Op(name, self._runner(name), self._checker(name)) for name in self.names]

    def _runner(self, name):
        path = os.path.join(self.workdir, "pipeline-%s.json" % name)

        def run():
            # each command starts cold, as a fresh ooc2d process would;
            # shuffling the order then changes no operation's work
            for clear in _CACHE_CLEARERS:
                clear()
            built, trace = pipelines.run_pipeline(name)
            files.save_design(built, path)
            loaded = files.load_design(path)
            if isinstance(loaded, core.CyclicPacking):
                report = packing.verify_packing(loaded)
            elif isinstance(loaded, core.Code):
                report = correlation.verify_ooc(loaded)
            else:
                report = designs.verify_h_design(loaded)
            return built, trace, loaded, report
        return run

    def _checker(self, name):
        def check(out):
            built, trace, loaded, report = out
            bad = []
            if _size(built) != PIPELINE_SIZES[name]:
                bad.append("size %d, expected %d" % (_size(built), PIPELINE_SIZES[name]))
            if loaded != built:
                bad.append("object read back differs from the one written")
            ok = (report.valid and report.strictly_cyclic) if hasattr(report, "valid") \
                else report.ok
            if not ok:
                bad.append("verifier rejects it: %r" % (report,))
            digest = "%s %r %r %r" % (_canonical_json(built), trace.inputs, trace.steps, report)
            return bad, digest
        return check


def fold_code(code, v1: int):
    """The fold of constructs.fold without its two verify_ooc passes:
    each codeword yields v1 translated copies on the (u * v1) x (v / v1)
    grid, (i, x) -> (i + u * (x mod v1), x div v1).  The workload's
    passes are what verify the result."""
    u2, v2 = code.u * v1, code.v // v1
    mats = []
    for m in code.codewords:
        block = correlation.matrix_to_block(m)
        for d in range(v1):
            moved = sorted(core.Point(q.row + code.u * (q.col % v1), q.col // v1)
                           for q in core.shift(block, d, code.v))
            mats.append(correlation.block_to_matrix(tuple(moved), u2, v2))
    return core.Code(u=u2, v=v2, k=code.k, lam=code.lam, codewords=tuple(mats))


def break_code(code, rng: random.Random):
    """Rewrite one codeword to share three cells with another, keeping
    it in an orbit of its own so code_to_packing still accepts it."""
    blocks = [correlation.matrix_to_block(m) for m in code.codewords]
    cells = [core.Point(i, j) for i in range(code.u) for j in range(code.v)]
    while True:
        a, b = rng.sample(range(len(blocks)), 2)
        shared = rng.sample(blocks[b], 3)
        extra = rng.choice([p for p in cells if p not in blocks[b]])
        new = core.as_block(shared + [extra])
        rep = core.canonicalize(new, code.v)
        if all(core.canonicalize(blk, code.v) != rep
               for i, blk in enumerate(blocks) if i != a):
            break
    mats = list(code.codewords)
    mats[a] = correlation.block_to_matrix(new, code.u, code.v)
    return core.Code(u=code.u, v=code.v, k=code.k, lam=code.lam, codewords=tuple(mats))


class VerifyWorkload:
    """Large codes read from file and checked by both verifiers; the
    broken copies must fail both."""

    def setup(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.files = []  # (name, path, intact, codewords)
        for name, pipeline, v1, size in VERIFY_CODES:
            base, _ = pipelines.run_pipeline(pipeline)
            code = fold_code(correlation.packing_to_code(base), v1)
            if code.size != size:
                raise ValueError("%s fold has %d codewords, expected %d"
                                 % (name, code.size, size))
            for intact, obj in ((True, code), (False, break_code(code, rng))):
                path = os.path.join(workdir, "code-%s-%s.json"
                                    % (name, "intact" if intact else "broken"))
                files.save_design(obj, path)
                self.files.append((name, path, intact, size))

    def ops(self) -> list:
        return [Op("%s-%s" % (name, "intact" if intact else "broken"),
                   self._runner(path), self._checker(intact, size))
                for name, path, intact, size in self.files]

    @staticmethod
    def _runner(path):
        def run():
            code = files.load_design(path)
            ooc = correlation.verify_ooc(code)
            report = packing.verify_packing(correlation.code_to_packing(code))
            return code, ooc, report
        return run

    @staticmethod
    def _checker(intact: bool, size: int):
        def check(out):
            code, ooc, report = out
            bad = []
            if code.size != size:
                bad.append("%d codewords, expected %d" % (code.size, size))
            if intact and not (ooc.ok and report.valid and report.strictly_cyclic):
                bad.append("intact code rejected: %r %r" % (ooc, report))
            if not intact and (ooc.ok or report.valid):
                bad.append("broken code accepted: %r %r" % (ooc, report))
            return bad, "%r %r" % (ooc, report)
        return check


def make(name: str):
    if name == "search":
        return SearchWorkload(SEARCH_OPTIMA, heuristic=True)
    if name == "prove":
        return SearchWorkload(PROVE_OPTIMA, heuristic=False)
    if name == "construct":
        return ConstructWorkload()
    if name == "verify":
        return VerifyWorkload()
    raise ValueError("unknown workload %r" % (name,))

