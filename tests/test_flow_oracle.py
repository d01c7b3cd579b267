"""Circulation flows checked against networkx's network simplex.

The rank-LP oracle (``test_oracle.py``) checks optimal agony values and
rankings; this one checks the flow itself, on the capacitated instance
that ``uncapacitate`` builds, as solved by ``solve_fast`` and by the
tests' reference solver (``baseline.solve_reference``, which writes the
same arcs out in the same order itself).  networkx solves the same
instance from its arc lists alone (every demand 0, weight = cost,
capacity = the arc's capacity, none on an uncapacitated arc), sharing no
code with the solver, and the solver's flow must reach that optimal cost
while being feasible: every arc flow between 0 and its capacity and every
vertex conserving flow.  Weights up to 10^6 make the solver run 20 or
more capacity-scaling phases.
"""
import random

import pytest

nx = pytest.importorskip("networkx")

from agony.circulation import build_convex_instance, solve_fast, uncapacitate
from agony.penalties import PenaltySpec

from baseline import solve_reference
from conftest import random_graph

HINGES = {"linear": ((1, -1),), "convex": ((1, -1), (2, 1))}
BIG = 10**6
BIG_PHASES = 20  # measured: 20 phases under the linear penalty, 21 under the convex one


def _arcs(inst):
    """(tail, head, cost, capacity) of every arc, read off its forward residual arc 2a."""
    head = inst.head
    return [(head[2 * a + 1], head[2 * a], inst.cost[2 * a], inst.cap[a]) for a in range(inst.m)]


def _simplex_cost(inst) -> int:
    net = nx.MultiDiGraph()
    net.add_nodes_from(range(inst.n), demand=0)
    for x, w, c, cap in _arcs(inst):
        if cap is None:
            net.add_edge(x, w, weight=c)
        else:
            net.add_edge(x, w, weight=c, capacity=cap)
    cost, _ = nx.network_simplex(net)
    return cost


def _feasible(inst, flow) -> bool:
    """0 <= flow <= capacity on every arc, and inflow = outflow everywhere."""
    if len(flow) != inst.m:
        return False
    arcs = _arcs(inst)
    if any(f < 0 or (cap is not None and f > cap) for f, (_, _, _, cap) in zip(flow, arcs)):
        return False
    net = [0] * inst.n
    for f, (x, w, _, _) in zip(flow, arcs):
        net[x] -= f
        net[w] += f
    return not any(net)


# (n, edge probability, k, penalty, max weight, solver); the reference
# runs a Bellman-Ford for every cycle it cancels, so it runs at n <= 60
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
    if solver == "fast":
        state = solve_fast(inst)
        flow = state.flow
        if wmax == BIG:
            assert state.stats.outer_phases >= BIG_PHASES
    else:
        flow = solve_reference(g, k, inst.sg.terms).flow
    assert _feasible(inst, flow)
    cost = sum(c * f for (_, _, c, _), f in zip(_arcs(inst), flow))
    assert cost == _simplex_cost(inst)
    if solver == "fast":
        assert cost == state.objective()

    # negative control: one more unit on any arc breaks conservation
    a = random.Random(k).randrange(inst.m)
    bumped = list(flow)
    bumped[a] += 1
    assert not _feasible(inst, bumped)
