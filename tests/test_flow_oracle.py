"""Circulation flows checked against networkx's network simplex.

The rank-LP oracle (``test_oracle.py``) checks optimal agony values and
rankings; this one checks the flow itself, on the uncapacitated instance
that ``uncapacitate`` builds and both solvers consume.  networkx solves
the same instance from its arc lists and biases alone (demand = -bias,
weight = cost, no capacities), sharing no code with the solver, and the
solver's flow must reach that optimal cost while being feasible: every arc
flow non-negative and every vertex conserving flow with its bias.
Weights up to 10^6 make the solver's contraction path fire.
"""
import random

import pytest

nx = pytest.importorskip("networkx")

from agony.circulation import build_convex_instance, solve_baseline, solve_fast, uncapacitate
from agony.penalties import PenaltySpec

from conftest import random_graph

HINGES = {"linear": ((1, -1),), "convex": ((1, -1), (2, 1))}
BIG = 10**6
SOLVERS = {"fast": solve_fast, "baseline": solve_baseline}


def _simplex_cost(inst) -> int:
    net = nx.MultiDiGraph()
    for v, b in enumerate(inst.bias):
        net.add_node(v, demand=-b)
    for a in range(inst.m):
        net.add_edge(inst.asrc[a], inst.adst[a], weight=inst.acost[a])
    cost, _ = nx.network_simplex(net)
    return cost


def _feasible(inst, flow) -> bool:
    """Non-negative arc flows, and bias + inflow - outflow = 0 everywhere."""
    if len(flow) != inst.m or any(f < 0 for f in flow):
        return False
    net = list(inst.bias)
    for a, f in enumerate(flow):
        net[inst.asrc[a]] -= f
        net[inst.adst[a]] += f
    return not any(net)


# (n, edge probability, k, penalty, max weight, solver); the baseline
# rebuilds its tree for every augmentation, so it runs at n <= 60
CASES = [
    (200, 0.015, 5, "linear", 10, "fast"),
    (200, 0.015, 200, "linear", 10, "fast"),
    (100, 0.03, 3, "linear", BIG, "fast"),
    (150, 0.02, 150, "linear", BIG, "fast"),
    (100, 0.03, 5, "convex", BIG, "fast"),
    (60, 0.05, 5, "linear", BIG, "baseline"),
    (50, 0.06, 50, "convex", BIG, "baseline"),
    (50, 0.06, 4, "convex", 10, "baseline"),
]


@pytest.mark.parametrize("n, p, k, name, wmax, solver", CASES)
def test_solver_flow_is_feasible_and_simplex_optimal(n, p, k, name, wmax, solver):
    g = random_graph(random.Random(n * 1000 + k), n, p, wmax)
    inst = uncapacitate(build_convex_instance(g, k, PenaltySpec.convex_sum(HINGES[name])))
    state = SOLVERS[solver](inst)
    assert _feasible(inst, state.flow)
    cost = sum(c * f for c, f in zip(inst.acost, state.flow))
    assert cost == state.objective() == _simplex_cost(inst)
    if wmax == BIG:
        # large weights push arc flows past the contraction threshold
        assert state.stats.contractions > 0

    # negative control: one more unit on any arc breaks conservation
    a = random.Random(k).randrange(inst.m)
    bumped = list(state.flow)
    bumped[a] += 1
    assert not _feasible(inst, bumped)
