"""Exact optima checked against the rank LP, solved by HiGHS.

The oracle shares no code with the solver.  It writes the rank linear
program straight from the edge list:

    minimize    sum_e sum_i a_i * w(e) * t_{e,i}
    subject to  t_{e,i} >= r(u) - r(v) - b_i   for every edge e = (u, v)
                t >= 0,  0 <= r <= k - 1

for the hinge penalty sum_i a_i * max(0, d - b_i).  Its constraint matrix
is a network matrix, so a basic optimum is integral: the oracle rounds
the ranks, rescores them exactly, and compares that value with
``min_agony``.  Sizes run well past brute force, and weights up to 10^6
make the solver's contraction path fire.
"""
import random

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("scipy")
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from agony.exact import min_agony
from agony.graph import WeightedDigraph
from agony.penalties import PenaltySpec

HINGES = {"linear": ((1, -1),), "convex": ((1, -1), (2, 1))}
BIG = 10**6


def _random_graph(seed, n, wmax, degree=3):
    """degree * n distinct edges without self-loops, weights in [1, wmax]."""
    rng = random.Random(seed)
    edges = {}
    while len(edges) < degree * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, wmax)
    return [(u, v, w) for (u, v), w in edges.items()]


def _score(edges, ranks, hinges):
    total = 0
    for u, v, w in edges:
        d = ranks[u] - ranks[v]
        total += sum(a * w * (d - b) for a, b in hinges if d > b)
    return total


def _rank_lp(n, edges, hinges, k):
    """Optimal value of the rank LP, made exact by rescoring its ranks."""
    h = len(hinges)
    rows, cols, vals, rhs = [], [], [], []
    cost = np.zeros(n + len(edges) * h)
    for e, (u, v, w) in enumerate(edges):
        for i, (a, b) in enumerate(hinges):
            row = e * h + i
            # r(u) - r(v) - t_{e,i} <= b_i
            rows += [row, row, row]
            cols += [u, v, n + row]
            vals += [1.0, -1.0, -1.0]
            rhs.append(b)
            cost[n + row] = a * w
    m = len(rhs)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(m, n + m)).tocsr()
    bounds = [(0, k - 1)] * n + [(0, None)] * m
    res = linprog(cost, A_ub=a_ub, b_ub=rhs, bounds=bounds, method="highs-ds")
    assert res.status == 0, res.message
    value = _score(edges, [round(x) for x in res.x[:n]], hinges)
    assert abs(value - res.fun) <= 1e-6 * max(1.0, res.fun), "rank LP optimum not integral"
    return value


# (n, k, penalty, max weight, solver); the baseline rebuilds its tree for
# every augmentation, so it runs at n <= 60 when weights are large
CASES = [
    (300, 2, "linear", 10, "fast"),
    (300, 5, "linear", 10, "fast"),
    (300, 300, "linear", 10, "fast"),
    (100, 2, "linear", BIG, "fast"),
    (100, 5, "linear", BIG, "fast"),
    (100, 100, "linear", BIG, "fast"),
    (200, 5, "linear", BIG, "fast"),
    (150, 5, "convex", BIG, "fast"),
    (150, 150, "convex", BIG, "fast"),
    (60, 2, "linear", BIG, "baseline"),
    (60, 5, "linear", BIG, "baseline"),
    (60, 60, "linear", BIG, "baseline"),
    (50, 5, "convex", BIG, "baseline"),
    (50, 50, "convex", 10, "baseline"),
]


@pytest.mark.parametrize("n, k, name, wmax, solver", CASES)
def test_min_agony_matches_rank_lp(n, k, name, wmax, solver):
    hinges = HINGES[name]
    edges = _random_graph(n * 1000 + k * 10 + wmax % 7, n, wmax)
    penalty = PenaltySpec.convex_sum(hinges)
    res = min_agony(WeightedDigraph(n, edges), k, penalty, solver=solver)
    assert res.agony == _rank_lp(n, edges, hinges, k)
    assert all(0 <= r <= k - 1 for r in res.ranks)
    assert _score(edges, res.ranks, hinges) == res.agony
    if wmax == BIG:
        # large weights push arc flows past the contraction threshold
        assert res.stats.contractions > 0
