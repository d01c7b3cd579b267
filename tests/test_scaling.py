"""Scaling regressions: SCC and layer decomposition stay linear, and the
SCC heuristic's budget DP stays linear in the tier budget k.

The decomposition inputs have one component or layer per vertex pair or
vertex, the worst case for a split that rescans every edge once per part.
At the two sizes, 4x apart, linear work gives a time ratio near 4 and a
per-part edge scan one near 16; the bound of 7 leaves room for timer noise.
The budget case holds the graph and grows k 4x: one totally-monotone search
per budget gives a ratio near 4, while a spend loop that tries every split
of every budget grows as k^2, toward 16.  Each size keeps its best of
several runs, and the small and large runs alternate, so a stall of the
host slows one run of each size at most.  Each run is timed with the
cyclic garbage collector off, as ``timeit`` does, so a collection that
happens to fall into one run does not count; a failure reports every
run's time.

The exact solver's guard counts work instead of timing it: a primal-dual
phase runs one Dijkstra per distinct shortest-path cost, and on power-law
graphs with unit weights a whole solve sees a handful of costs at every
size, while a solver that re-prices once per few augmentations re-prices
a number of times that grows with n.
"""
from __future__ import annotations

import gc
import itertools
import random
import time

from agony.exact import min_agony
from agony.graph import WeightedDigraph
from agony.heuristic import scc_layer_heuristic

MAX_RATIO = 7.0
MAX_BUDGET_RATIO = 6.0
MAX_DIJKSTRAS = 12


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


def _chung_lu(n: int, seed: int) -> WeightedDigraph:
    """5n distinct unit edges whose ends are drawn with weight (i+1)^(-1/1.1).

    Degree exponent 2.1, as in web graphs: the hubs both send and receive,
    so the graph has one giant strongly connected component.
    """
    rng = random.Random(seed)
    cum = list(itertools.accumulate((i + 1) ** (-1 / 1.1) for i in range(n)))
    edges = set()
    while len(edges) < 5 * n:
        u, v = rng.choices(range(n), cum_weights=cum, k=2)
        if u != v:
            edges.add((u, v))
    return WeightedDigraph(n, [(u, v, 1) for u, v in sorted(edges)])


def _time(fn) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        fn()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def _ms(times: list[float]) -> str:
    return ", ".join(f"{t * 1e3:.1f}" for t in times) + " ms"


def _best_ratio(small, large, runs: int) -> tuple[float, str]:
    """Best time of ``large()`` over best time of ``small()``, runs alternating.

    Also returns every run's time, for the failure message.
    """
    small_times, large_times = [], []
    for _ in range(runs):
        small_times.append(_time(small))
        large_times.append(_time(large))
    runs_text = f"small runs {_ms(small_times)}; large runs {_ms(large_times)}"
    return min(large_times) / min(small_times), runs_text


def _ratio(fn, make, small: int, runs: int = 5) -> tuple[float, str]:
    g_small, g_large = make(small), make(4 * small)
    return _best_ratio(lambda: fn(g_small), lambda: fn(g_large), runs)


def test_exact_on_two_cycle_chain_scales_linearly():
    g = _two_cycle_chain(3)
    assert min_agony(g).agony == 6  # agony 2 per 2-cycle, chain edges forward
    ratio, runs = _ratio(min_agony, _two_cycle_chain, 500)
    assert ratio <= MAX_RATIO, f"4x components took {ratio:.1f}x the time ({runs})"


def test_scc_heuristic_on_dag_chain_scales_linearly():
    assert scc_layer_heuristic(_dag_chain(4)) == [0, 1, 2, 3]
    ratio, runs = _ratio(scc_layer_heuristic, _dag_chain, 2000)
    assert ratio <= MAX_RATIO, f"4x layers took {ratio:.1f}x the time ({runs})"


def test_scc_heuristic_budget_scales_linearly_in_k():
    g = _two_cycle_chain(300)  # 300 layers of two leaves each
    assert len(set(scc_layer_heuristic(g, 200))) <= 200
    ratio, runs = _best_ratio(
        lambda: scc_layer_heuristic(g, 50), lambda: scc_layer_heuristic(g, 200), runs=3
    )
    assert ratio <= MAX_BUDGET_RATIO, f"4x budget took {ratio:.1f}x the time ({runs})"


def test_exact_dijkstras_per_solve_stay_flat_on_power_law_graphs():
    counts = {}
    for n in (500, 1000, 2000):
        stats = min_agony(_chung_lu(n, seed=n)).stats
        counts[n] = (stats.repairs, stats.augmentations)
    text = ", ".join(f"n={n}: {r} Dijkstras for {a} augmentations" for n, (r, a) in counts.items())
    assert all(r <= MAX_DIJKSTRAS for r, _ in counts.values()), text
