"""Shared fixtures: random graph generators and independent oracles.

Every oracle here is deliberately naive (enumeration, reachability closure,
longest path) so the fast implementations are checked against something
that cannot share their bugs.
"""
from __future__ import annotations

import itertools
import random
from io import StringIO
from typing import NamedTuple

import numpy as np
import pytest

from agony import exact
from agony.circulation import (
    build_convex_instance,
    circulation_value,
    extract_ranking,
    solve_fast,
    uncapacitate,
)
from agony.graph import WeightedDigraph, normalize, parse_edge_list, score_ranking
from agony.penalties import LINEAR
from agony.splittree import SplitTree, _preorder

from baseline import solve_reference


def random_graph(rng: random.Random, n: int, p: float, wmax: int = 1) -> WeightedDigraph:
    edges = [
        (u, v, rng.randint(1, wmax))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return WeightedDigraph(n, edges)


def random_dag(rng: random.Random, n: int, p: float, wmax: int = 1) -> WeightedDigraph:
    edges = [
        (u, v, rng.randint(1, wmax))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedDigraph(n, edges)


def graph_from_text(text: str) -> WeightedDigraph:
    g, _ = parse_edge_list(StringIO(text))
    return normalize(g)


def _clamped_k(g: WeightedDigraph, k, penalty) -> int:
    """k, defaulting to the rank window cap and clamped to it."""
    step = max(1, -min(b for _, b in penalty.terms))
    cap = max(g.n - 1, 0) * step + 1
    return cap if k is None else min(k, cap)


def global_result(g: WeightedDigraph, k=None, penalty=LINEAR):
    """``ExactResult`` of one global instance solved by ``solve_fast``.

    ``min_agony`` solves one instance per SCC at the rank window cap; this
    solves the whole graph as one component at any k.  k defaults to the
    cap and is clamped to it; k = 1 and the empty graph need no solve and
    go to ``min_agony``.
    """
    k = _clamped_k(g, k, penalty)
    if k == 1:
        return exact.min_agony(g, 1, penalty)
    state = solve_fast(uncapacitate(build_convex_instance(g, k, penalty)))
    ranks = extract_ranking(state)
    objective = circulation_value(state)
    agony = penalty.unscale(objective)
    assert score_ranking(g, ranks, penalty) == agony
    comp = exact.ComponentSolve(list(range(g.n)), ranks, state)
    return exact.ExactResult(g, ranks, agony, objective, k, penalty, False, [comp], state.stats)


class ReferenceResult(NamedTuple):
    agony: object  # int or Fraction
    objective: int  # circulation value, scaled by the penalty's slope LCM
    ranks: list


def reference_result(g: WeightedDigraph, k=None, penalty=LINEAR) -> ReferenceResult:
    """One global instance solved by the tests' reference solver
    (``baseline.solve_reference``), which shares no code with the package's;
    k defaults to the rank window cap and is clamped to it.  Its ranks must
    score the circulation value."""
    k = _clamped_k(g, k, penalty)
    ref = solve_reference(g, k, penalty.integer_terms())
    agony = penalty.unscale(ref.value)
    assert score_ranking(g, ref.ranks, penalty) == agony
    assert all(0 <= r <= k - 1 for r in ref.ranks)
    return ReferenceResult(agony, ref.value, ref.ranks)


def brute_min_linear(g: WeightedDigraph, k: int) -> int:
    """Exhaustive linear-agony minimum over all k^n assignments (vectorized)."""
    n = g.n
    if n == 0:
        return 0
    count = k**n
    base = (np.arange(count, dtype=np.int64)[:, None] // (k ** np.arange(n, dtype=np.int64))) % k
    base = base.astype(np.int32)
    total = np.zeros(count, dtype=np.int64)
    for u, v, w in g.edges:
        d = base[:, u] - base[:, v] + 1
        np.clip(d, 0, None, out=d)
        total += w * d.astype(np.int64)
    return int(total.min())


def internal_nodes(tree: SplitTree) -> list:
    """The split nodes of a split tree, parents first, left to right."""
    return [node for node in _preorder(tree.root) if not node.is_leaf]


def split_score(tree: SplitTree, edges) -> int:
    """Score of a split tree: the weight of the ``edges`` inside its root
    plus the sum of its (negative) split gains."""
    inside = {v for leaf in tree.leaves() for v in leaf.vertices}
    gains = sum(node.gain for node in internal_nodes(tree))
    return sum(w for u, v, w in edges if u in inside and v in inside) + gains


def brute_optima(g: WeightedDigraph, k: int, penalty=LINEAR):
    """Exhaustive (best score, list of optimal assignments); small n only."""
    best = None
    optima: list[tuple[int, ...]] = []
    for r in itertools.product(range(k), repeat=g.n):
        s = score_ranking(g, r, penalty)
        if best is None or s < best:
            best, optima = s, [r]
        elif s == best:
            optima.append(r)
    return best, optima


def reachability_sccs(g: WeightedDigraph) -> list[frozenset]:
    """SCC membership by pairwise mutual reachability (transitive closure)."""
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for u, v, _ in g.edges:
        reach[u][v] = True
    for mid in range(n):
        for a in range(n):
            if reach[a][mid]:
                row_a, row_m = reach[a], reach[mid]
                for b in range(n):
                    if row_m[b]:
                        row_a[b] = True
    comps = []
    assigned = [False] * n
    for v in range(n):
        if assigned[v]:
            continue
        comp = frozenset(w for w in range(n) if reach[v][w] and reach[w][v])
        for w in comp:
            assigned[w] = True
        comps.append(comp)
    return comps


def longest_path_layer_count(g: WeightedDigraph) -> int:
    """1 + longest path length in the condensation DAG (DP oracle)."""
    comps = reachability_sccs(g)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    succ = [set() for _ in comps]
    for u, v, _ in g.edges:
        if comp_of[u] != comp_of[v]:
            succ[comp_of[u]].add(comp_of[v])
    depth = {}

    def dfs(c):
        if c in depth:
            return depth[c]
        depth[c] = 0
        best = 0
        for d in succ[c]:
            best = max(best, 1 + dfs(d))
        depth[c] = best
        return best

    if not comps:
        return 0
    return 1 + max(dfs(c) for c in range(len(comps)))


@pytest.fixture
def rng():
    return random.Random(0xA60)
