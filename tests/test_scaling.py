"""Scaling regressions: SCC and layer decomposition stay linear.

Both inputs have one component or layer per vertex pair or vertex, the
worst case for a split that rescans every edge once per part.  At the two
sizes, 4x apart, linear work gives a time ratio near 4 and a per-part edge
scan one near 16; the bound of 7 leaves room for timer noise.
"""
from __future__ import annotations

import time

from agony.exact import min_agony
from agony.graph import WeightedDigraph
from agony.heuristic import scc_layer_heuristic

MAX_RATIO = 7.0


def _two_cycle_chain(c: int) -> WeightedDigraph:
    """c 2-cycles, each linked to the next by one forward edge."""
    edges = []
    for i in range(c):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b, 1), (b, a, 1)]
        if i:
            edges.append((a - 1, a, 1))
    return WeightedDigraph(2 * c, edges)


def _dag_chain(n: int) -> WeightedDigraph:
    return WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])


def _best_time(fn, g, runs: int = 3) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.process_time()
        fn(g)
        best = min(best, time.process_time() - t0)
    return best


def _ratio(fn, make, small: int) -> float:
    return _best_time(fn, make(4 * small)) / _best_time(fn, make(small))


def test_exact_on_two_cycle_chain_scales_linearly():
    g = _two_cycle_chain(3)
    assert min_agony(g).agony == 6  # agony 2 per 2-cycle, chain edges forward
    ratio = _ratio(min_agony, _two_cycle_chain, 500)
    assert ratio <= MAX_RATIO, f"4x components took {ratio:.1f}x the time"


def test_scc_heuristic_on_dag_chain_scales_linearly():
    assert scc_layer_heuristic(_dag_chain(4)) == [0, 1, 2, 3]
    ratio = _ratio(scc_layer_heuristic, _dag_chain, 2000)
    assert ratio <= MAX_RATIO, f"4x layers took {ratio:.1f}x the time"
