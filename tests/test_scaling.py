"""Scaling regressions: SCC and layer decomposition stay linear, and the
SCC heuristic's budget DP stays linear in the tier budget k.

The decomposition inputs have one component or layer per vertex pair or
vertex, the worst case for a split that rescans every edge once per part;
the canonical ranking, which lowers one component at a time, runs on the
same chain of components.
At the two sizes, 4x apart, linear work gives a time ratio near 4 and a
per-part edge scan one near 16; the bound of 7 leaves room for timer noise.
The budget case holds the graph and grows k 4x: one totally-monotone search
per budget gives a ratio near 4, while a spend loop that tries every split
of every budget grows as k^2, toward 16.  The plain heuristic on a DAG
chain with one tier per vertex has a budget that prunes nothing, so it
costs what the split tree costs, while a pruning DP that runs anyway
grows with leaves times budget, toward 16.  Each size keeps its best of
several runs, and the small and large runs alternate, so a stall of the
host slows one run of each size at most.  Each run is timed with the
cyclic garbage collector off, as ``timeit`` does, so a collection that
happens to fall into one run does not count; a failure reports every
run's time.

The exact solver's guard counts work instead of timing it: a primal-dual
phase runs one Dijkstra per distinct shortest-path cost, and on power-law
graphs with unit weights a whole solve sees a handful of costs at every
size, while a solver that re-prices once per few augmentations re-prices
a number of times that grows with n.  A second guard counts the
Dijkstra's heap pushes: one Dijkstra sees a handful of distinct
distances, so a heap of distances takes a few pushes per run, while a
heap entry per relaxed arc gives more than one push per settled vertex.
A third guard counts augmenting paths and settled vertices per vertex on
the largest SCC of the benchmark's seeded power-law graph
(``perfbench/gen.py``, only read) at 2,000 and 8,000 vertices: capacity
scaling on the shifted graph measured 0.97 augmentations and 4.0 settles
per vertex at both sizes (1,421 and 5,896 on 1,472 vertices; 5,257 and
21,808 on 5,450), where the solver with a gadget vertex per edge took 6.2
and 36 (9,095 and 52,845 at 2,000 vertices).

The memory guards count bytes with ``tracemalloc`` and use no timer: an
allocation count does not move with host load, so one run at one size
suffices and a bound can sit close to the measured value.  On the chain
of 2,000 2-cycles, ``min_agony`` keeps one solved state per cycle, and a
state that also kept the solver's per-vertex adjacency lists retained
about 1,050 bytes per input edge against about 650 without them; the
SCC heuristic's layer DP peaked at about 2,680 bytes per input edge with
a tuple per (layer, budget) choice and at about 1,830 with an int.

Three more memory guards take the peak per input edge of the
benchmark's ``gen.power_law(1, n, 5n)`` at n = 2,000 and 20,000 (10,000
and 100,000 edges).  ``normalize`` of the unnormalized graph peaked at
158 and 180 bytes while it merged through a dict keyed by (u, v) and
wrote a new triple per edge, and at 45 and 44 once it sorts int keys and
shares a clean edge list.  ``build_split_tree`` peaked at 159 and 155
bytes with two dicts per vertex and at 61 and 65 on flat edge arrays, and
peaks at 60 and 56 since the root leaf is filed after the builder's
set-up lists are freed.
``heuristic_rank(g, 50, "best")`` peaked at 216 and 211 bytes before and
at 131 and 128 after.  The bounds sit about a fifth above the latter.

Two guards take the heuristic's peak once more.  While every layer of the
SCC variant had its own subgraph, a new local-id triple per intra-layer
edge, and its own builder, ``heuristic_rank(g, 50, "best")`` peaked at
131 and 128 bytes per edge and ``heuristic_rank(g, 50, "scc")`` at 129
and 127; with one builder over the graph's own edges, whose layers are
its roots, they peak at 60 and 59 and at 58 and 57.  Those bounds too sit
about a fifth above.

A last guard parses the same graphs' edge-list files, one ``v<u> v<v> w``
line per edge, as the command line does.  Parsing reads one line at a
time, so its peak is what it keeps, the edges and the labels: 95 and 93
bytes per edge.  A parser that reads the whole file first peaks at 163-164
at both sizes.  The bound sits about a fifth above.
"""
from __future__ import annotations

import gc
import importlib.util
import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from agony import circulation
from agony.canonical import canonical_ranking
from agony.circulation import build_convex_instance, solve_fast, uncapacitate
from agony.exact import min_agony
from agony.graph import (
    WeightedDigraph,
    normalize,
    parse_edge_list,
    split_by_part,
    strongly_connected_components,
)
from agony.heuristic import heuristic_rank, scc_layer_heuristic
from agony.penalties import LINEAR
from agony.splittree import build_split_tree

MAX_RATIO = 7.0
MAX_BUDGET_RATIO = 6.0
MAX_DIJKSTRAS = 12
MAX_PUSHES_PER_SETTLE = 0.05
MAX_AUGMENTATIONS_PER_VERTEX = 1.25
MAX_SETTLES_PER_VERTEX = 6.0
MAX_RETAINED_BYTES_PER_EDGE = 850
MAX_HEURISTIC_PEAK_BYTES_PER_EDGE = 2250
MAX_NORMALIZE_PEAK_BYTES_PER_EDGE = 55
MAX_BUILD_PEAK_BYTES_PER_EDGE = 80
MAX_BEST_HEURISTIC_PEAK_BYTES_PER_EDGE = 72
MAX_SCC_HEURISTIC_PEAK_BYTES_PER_EDGE = 70
MAX_PARSE_PEAK_BYTES_PER_EDGE = 115


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


def _power_law(n: int) -> WeightedDigraph:
    """The benchmark's ``gen.power_law(1, n, 5n)``, not yet normalized."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return WeightedDigraph(*gen.power_law(1, n, 5 * n))


def _largest_power_law_scc(n: int) -> WeightedDigraph:
    """Largest SCC of the benchmark's ``gen.power_law(1, n, 5n)``."""
    g = normalize(_power_law(n))
    return split_by_part(g, [max(strongly_connected_components(g), key=len)])[0]


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


def test_canonical_on_two_cycle_chain_scales_linearly():
    g = _two_cycle_chain(3)
    assert canonical_ranking(min_agony(g)) == [0, 0, 1, 0, 1, 0]  # each cycle leans back
    ratio, runs = _ratio(lambda g: canonical_ranking(min_agony(g)), _two_cycle_chain, 500)
    assert ratio <= MAX_RATIO, f"4x components took {ratio:.1f}x the time ({runs})"


def test_scc_heuristic_on_dag_chain_scales_linearly():
    assert scc_layer_heuristic(_dag_chain(4)) == [0, 1, 2, 3]
    ratio, runs = _ratio(scc_layer_heuristic, _dag_chain, 2000)
    assert ratio <= MAX_RATIO, f"4x layers took {ratio:.1f}x the time ({runs})"


def test_plain_heuristic_with_budget_per_vertex_scales_linearly():
    assert heuristic_rank(_dag_chain(4), 4, "plain") == ([0, 1, 2, 3], 0)
    ratio, runs = _ratio(lambda g: heuristic_rank(g, g.n, "plain"), _dag_chain, 1000)
    assert ratio <= MAX_RATIO, f"4x vertices took {ratio:.1f}x the time ({runs})"


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


def test_exact_augmentations_and_settles_per_vertex_stay_flat():
    counts = {}
    for n in (2000, 8000):
        g = _largest_power_law_scc(n)
        stats = solve_fast(uncapacitate(build_convex_instance(g, g.n, LINEAR))).stats
        counts[n] = (g.n, stats.augmentations, stats.settles)
    text = ", ".join(
        f"n={n}: {a} augmentations and {s} settles on {v} vertices"
        for n, (v, a, s) in counts.items()
    )
    for v, a, s in counts.values():
        assert a / v <= MAX_AUGMENTATIONS_PER_VERTEX, text
        assert s / v <= MAX_SETTLES_PER_VERTEX, text


def test_exact_dijkstra_heap_pushes_per_settle_stay_small(monkeypatch):
    pushes = 0
    push = circulation.heappush

    def counting_push(heap, item):
        nonlocal pushes
        pushes += 1
        push(heap, item)

    monkeypatch.setattr(circulation, "heappush", counting_push)
    ratios = {}
    for n in (500, 1000, 2000):
        before = pushes
        stats = min_agony(_chung_lu(n, seed=n)).stats
        ratios[n] = (pushes - before) / stats.settles
    text = ", ".join(f"n={n}: {r:.3f} heap pushes per settle" for n, r in ratios.items())
    assert all(r <= MAX_PUSHES_PER_SETTLE for r in ratios.values()), text


def _traced_bytes(fn) -> tuple[int, int]:
    """Bytes that ``fn()``'s result keeps, and the peak above the start while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()  # held until its bytes are read
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - start, peak - start


def test_exact_result_retains_no_solver_adjacency():
    g = _two_cycle_chain(2000)  # 2,000 solved states, one per 2-cycle
    retained, _ = _traced_bytes(lambda: min_agony(g))
    per_edge = retained / g.m
    assert per_edge <= MAX_RETAINED_BYTES_PER_EDGE, f"{per_edge:.0f} bytes retained per edge"


def test_scc_heuristic_budget_dp_peak_stays_small():
    g = _two_cycle_chain(2000)
    _, peak = _traced_bytes(lambda: heuristic_rank(g, 50, "scc"))
    per_edge = peak / g.m
    assert per_edge <= MAX_HEURISTIC_PEAK_BYTES_PER_EDGE, f"{per_edge:.0f} peak bytes per edge"


@pytest.fixture(scope="module")
def power_law_graphs() -> dict[int, WeightedDigraph]:
    """The unnormalized ``_power_law(n)`` at n = 2,000 and 20,000."""
    return {n: _power_law(n) for n in (2000, 20000)}


def _peak_per_edge(fn, graphs) -> tuple[float, str]:
    """The largest peak per edge of ``fn(g)`` over the graphs, and all of them as text."""
    peaks = {n: _traced_bytes(lambda: fn(g))[1] / g.m for n, g in graphs.items()}
    text = ", ".join(f"n={n}: {p:.0f} peak bytes per edge" for n, p in peaks.items())
    return max(peaks.values()), text


def test_normalize_peak_per_edge_stays_small(power_law_graphs):
    peak, text = _peak_per_edge(normalize, power_law_graphs)
    assert peak <= MAX_NORMALIZE_PEAK_BYTES_PER_EDGE, text


def test_split_tree_build_peak_per_edge_stays_small(power_law_graphs):
    graphs = {n: normalize(g) for n, g in power_law_graphs.items()}
    peak, text = _peak_per_edge(build_split_tree, graphs)
    assert peak <= MAX_BUILD_PEAK_BYTES_PER_EDGE, text


def test_best_heuristic_peak_per_edge_stays_small(power_law_graphs):
    graphs = {n: normalize(g) for n, g in power_law_graphs.items()}
    peak, text = _peak_per_edge(lambda g: heuristic_rank(g, 50, "best"), graphs)
    assert peak <= MAX_BEST_HEURISTIC_PEAK_BYTES_PER_EDGE, text


def test_scc_heuristic_peak_per_edge_stays_small(power_law_graphs):
    graphs = {n: normalize(g) for n, g in power_law_graphs.items()}
    peak, text = _peak_per_edge(lambda g: heuristic_rank(g, 50, "scc"), graphs)
    assert peak <= MAX_SCC_HEURISTIC_PEAK_BYTES_PER_EDGE, text


def test_parse_peak_per_edge_stays_small(power_law_graphs, tmp_path):
    paths = {}
    for n, g in power_law_graphs.items():
        paths[g] = tmp_path / f"{n}.txt"
        paths[g].write_text("".join(f"v{u} v{v} {w}\n" for u, v, w in g.edges), encoding="utf-8")

    def parse(g):
        with open(paths[g], encoding="utf-8") as fh:
            return parse_edge_list(fh)

    peak, text = _peak_per_edge(parse, power_law_graphs)
    assert peak <= MAX_PARSE_PEAK_BYTES_PER_EDGE, text
