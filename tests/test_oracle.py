"""Exact optima checked against the rank LP, solved by HiGHS.

The oracle shares no code with the solver.  It writes the rank linear
program straight from the edge list:

    minimize    sum_e sum_i a_i * w(e) * t_{e,i}
    subject to  t_{e,i} >= r(u) - r(v) - b_i   for every edge e = (u, v)
                t >= 0,  0 <= r <= k - 1

for the hinge penalty sum_i a_i * max(0, d - b_i).  Its constraint matrix
is a network matrix, so a basic optimum is integral: the oracle rounds
the ranks, rescores them exactly, and compares that value with
``min_agony``, or with the tests' reference solver
(``baseline.solve_reference``) on one global instance.  Sizes run well
past brute force, and weights up to 10^6 give capacities near 10^6 and
2 * 10^6, which the solver's one primal-dual phase crosses in at most k
Dijkstra rounds.

Canonical rankings get a second LP stage: the same program plus the row
sum_e sum_i a_i * w(e) * t_{e,i} <= OPT, minimizing sum_v r(v) instead.
That row leaves only the optimal face of an integral polyhedron, so a
basic optimum is again integral.  Every optimal ranking lies pointwise
above the least one, so the least one is the unique minimizer of
sum_v r(v) over that face, and it must equal ``canonical_ranking``.
"""
import random

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("scipy")
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, vstack

from agony.canonical import canonical_ranking
from agony.exact import min_agony
from agony.graph import WeightedDigraph
from agony.penalties import PenaltySpec

from conftest import assert_big_solves, global_result, reference_result

HINGES = {"linear": ((1, -1),), "convex": ((1, -1), (2, 1))}
# a breakpoint below -1: an upward edge is free only across 3 or more ranks
STEEP = ((1, -3), (2, 0))
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


def _rank_program(n, edges, hinges, k):
    """Rows r(u) - r(v) - t_{e,i} <= b_i, the cost a_i * w(e) of each t, bounds."""
    h = len(hinges)
    rows, cols, vals, rhs = [], [], [], []
    cost = np.zeros(n + len(edges) * h)
    for e, (u, v, w) in enumerate(edges):
        for i, (a, b) in enumerate(hinges):
            row = e * h + i
            rows += [row, row, row]
            cols += [u, v, n + row]
            vals += [1.0, -1.0, -1.0]
            rhs.append(b)
            cost[n + row] = a * w
    m = len(rhs)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(m, n + m)).tocsr()
    return a_ub, rhs, cost, [(0, k - 1)] * n + [(0, None)] * m


def _solve_lp(c, a_ub, b_ub, bounds):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ds")
    assert res.status == 0, res.message
    return res


def _rank_lp(n, edges, hinges, k):
    """Optimal value of the rank LP, made exact by rescoring its ranks."""
    a_ub, rhs, cost, bounds = _rank_program(n, edges, hinges, k)
    res = _solve_lp(cost, a_ub, rhs, bounds)
    value = _score(edges, [round(x) for x in res.x[:n]], hinges)
    assert abs(value - res.fun) <= 1e-6 * max(1.0, res.fun), "rank LP optimum not integral"
    return value


def _least_optimal_ranks(n, edges, hinges, k, opt):
    """Ranks minimizing sum_v r(v) among rankings of cost <= opt, unrounded."""
    a_ub, rhs, cost, bounds = _rank_program(n, edges, hinges, k)
    a_ub = vstack([a_ub, cost.reshape(1, -1)]).tocsr()
    c = np.concatenate([np.ones(n), np.zeros(len(cost) - n)])
    res = _solve_lp(c, a_ub, rhs + [opt], bounds)
    return res.x[:n]


# (n, k, penalty, max weight, solver); "fast" is the default ``min_agony``
# call, "baseline" solves the global instance with the tests' reference
# ``baseline.solve_reference``, which runs a Bellman-Ford for every
# cancelled cycle, so it runs at n <= 60
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
    g = WeightedDigraph(n, edges)
    if solver == "fast":
        res = min_agony(g, k, penalty)
        if wmax == BIG:
            assert_big_solves(c.state for c in res.components if c.state is not None)
    else:
        res = reference_result(g, k, penalty)
    assert res.agony == _rank_lp(n, edges, hinges, k)
    assert all(0 <= r <= k - 1 for r in res.ranks)
    assert _score(edges, res.ranks, hinges) == res.agony


# (n, k, penalty, max weight)
CANONICAL_CASES = [
    (300, 3, "linear", 1),
    (300, 5, "convex", 1),
    (300, 300, "linear", 1),
    (150, 150, "convex", 1),
    (60, 3, "linear", 1),
    (300, 5, "linear", 10),
    (300, 300, "convex", 10),
    (150, 3, "convex", 10),
    (150, 150, "linear", 10),
    (100, 5, "linear", 10),
    (60, 60, "linear", 10),
    (100, 3, "linear", BIG),
    (100, 5, "linear", BIG),
    (100, 100, "linear", BIG),
    (150, 5, "linear", BIG),
    (150, 150, "linear", BIG),
    (60, 3, "convex", BIG),
    (60, 5, "convex", BIG),
    (60, 60, "convex", BIG),
    (100, 5, "convex", BIG),
    (100, 100, "convex", BIG),
]


@pytest.mark.parametrize("n, k, name, wmax", CANONICAL_CASES)
def test_canonical_ranking_matches_least_lp_optimum(n, k, name, wmax):
    hinges = HINGES[name]
    edges = _random_graph(n * 1000 + k * 10 + wmax % 7 + 1, n, wmax)
    res = min_agony(WeightedDigraph(n, edges), k, PenaltySpec.convex_sum(hinges))
    canon = canonical_ranking(res)
    lp = _least_optimal_ranks(n, edges, hinges, k, res.agony)
    assert canon == [round(x) for x in lp]
    assert max(abs(x - r) for x, r in zip(lp, canon)) <= 1e-6
    if wmax == BIG:
        assert_big_solves(c.state for c in res.components if c.state is not None)


def _sparse_graph(seed):
    """2 to 10 vertices, at most 2n distinct edges, weights in [1, 5]."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    edges = {}
    for _ in range(rng.randint(1, min(2 * n, n * (n - 1)))):
        u, v = rng.sample(range(n), 2)
        edges[(u, v)] = rng.randint(1, 5)
    return n, [(u, v, w) for (u, v), w in edges.items()]


@pytest.mark.parametrize("seed", range(40))
def test_steep_penalty_needs_a_wider_rank_window(seed):
    # sparse graphs have small SCCs linked by upward edges, which must sit
    # 3 ranks apart to cost nothing; dense ones hide a too-narrow window
    n, edges = _sparse_graph(seed)
    g, penalty, k = WeightedDigraph(n, edges), PenaltySpec.convex_sum(STEEP), 3 * n
    opt = _rank_lp(n, edges, STEEP, k)
    stacked = min_agony(g, penalty=penalty)
    assert stacked.agony == _score(edges, stacked.ranks, STEEP) == opt
    least = [round(x) for x in _least_optimal_ranks(n, edges, STEEP, k, opt)]
    assert canonical_ranking(stacked) == least
    full = global_result(g, k, penalty)
    assert full.agony == _score(edges, full.ranks, STEEP) == opt
    assert canonical_ranking(full) == least
