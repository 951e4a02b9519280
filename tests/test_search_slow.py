from __future__ import annotations

from test_search import _digest

from ooc2d.packing import verify_packing
from ooc2d.search import max_packing

SWEEP = [(2, 3, 1), (3, 2, 1), (2, 4, 3), (4, 2, 6), (3, 3, 6),
         (2, 6, 8), (3, 4, 12), (4, 3, 17), (6, 2, 25), (2, 2, 0), (6, 1, 3), (10, 1, 30)]
# (nodes, proof, witness digest) of the two biggest trees
PINS = {(6, 2): (134_925, "bound", "9f5a8f1be2297dc4"),
        (10, 1): (25_903, "bound", "c7d3b09e4fcc424b")}


def test_exhaustive_sweep_without_heuristic():
    """the tree search alone, with no heuristic incumbent, still
    proves every settled value; 6x2 takes most of the time, about
    0.5 s and 135k nodes on a 2-core machine, then 10x1, about 0.1 s
    and 26k nodes, where the optimum meets jstar.  Both trees and
    witnesses are pinned.  The whole sweep takes under 1 s; 3x4 (8,402
    nodes) is pinned in test_search.py."""
    for u, v, best in SWEEP:
        result = max_packing(u, v, 4, 3, heuristic_iterations=0,
                             node_budget=50_000_000)
        assert result.max_blocks == best, (u, v)
        assert result.proved_optimal, (u, v)
        assert not result.budget_exhausted, (u, v)
        report = verify_packing(result.witness)
        assert report.valid and report.strictly_cyclic, (u, v)
        if (u, v) in PINS:
            pin = (result.nodes_explored, result.proof, _digest(result))
            assert pin == PINS[u, v], (u, v)
