"""The tests' reference solver: cycle cancelling (Klein 1967).

``solve_reference`` finds an optimal capacitated circulation of the
shifted graph from the graph, k and the integer hinge terms alone, and
shares no code with ``agony.circulation``.  It writes the arcs out itself,
in the order that ``ShiftedGraph`` documents: per edge (v, w, weight) and
term (a, b) the arc (v, w) with cost b and capacity a * weight, per
vertex v the fans (alpha, v) and (v, omega) with cost 0, and last
(omega, alpha) with cost k - 1; the fans and that arc have no capacity.
It starts from the zero circulation and, while Bellman-Ford finds a cycle
of negative cost in the residual graph, pushes the cycle's smallest
residual capacity around it.  Once none is left, Bellman-Ford distances d
from all vertices at once are feasible duals, and the ranks
d(alpha) - d(v) lie in [0, k - 1] and score the circulation's value.
Each cancellation runs a Bellman-Ford over every residual arc, so the
tests run it on graphs of at most 60 vertices.
"""
from __future__ import annotations

from typing import NamedTuple


class Reference(NamedTuple):
    value: int  # max sum of shift * flow: the minimal shifted score
    ranks: list[int]
    flow: list[int]  # per arc, in the order above


def solve_reference(g, k: int, terms) -> Reference:
    """Optimal circulation, its value and a ranking that scores it."""
    n = g.n
    alpha, omega = n, n + 1
    arcs = [(v, w, b, a * weight) for v, w, weight in g.edges for a, b in terms]
    for v in range(n):
        arcs += [(alpha, v, 0, None), (v, omega, 0, None)]
    arcs.append((omega, alpha, k - 1, None))
    flow = [0] * len(arcs)
    while True:
        cycle, dist = _bellman_ford(n + 2, arcs, flow)
        if cycle is None:
            break
        # a negative cycle holds an arc of negative cost, so a capacity or a reverse
        push = min(
            flow[a] if step < 0 else arcs[a][3] - flow[a]
            for a, step in cycle if step < 0 or arcs[a][3] is not None
        )
        for a, step in cycle:
            flow[a] += step * push
    value = -sum(c * f for (_, _, c, _), f in zip(arcs, flow))
    return Reference(value, [dist[alpha] - dist[v] for v in range(n)], flow)


def _bellman_ford(n: int, arcs, flow):
    """(cycle, None) for a negative residual cycle as (arc, +1 forward or -1
    reverse) pairs, or (None, distances) from all vertices at distance 0."""
    residual = []  # (tail, head, cost, arc, step)
    for a, ((x, w, c, cap), f) in enumerate(zip(arcs, flow)):
        if cap is None or f < cap:
            residual.append((x, w, c, a, 1))
        if f > 0:
            residual.append((w, x, -c, a, -1))
    dist = [0] * n
    parent: list = [None] * n  # the residual arc each vertex was last lowered by
    for _ in range(n):
        lowered = None
        for x, w, c, a, step in residual:
            if dist[x] + c < dist[w]:
                dist[w] = dist[x] + c
                parent[w] = (x, a, step)
                lowered = w
        if lowered is None:
            return None, dist
        # a cycle of parent arcs has negative cost; look above the last vertex lowered
        seen = set()
        v = lowered
        while v is not None and v not in seen:
            seen.add(v)
            v = parent[v][0] if parent[v] else None
        if v is not None:
            cycle = []
            x = v
            while True:
                tail, a, step = parent[x]
                cycle.append((a, step))
                x = tail
                if x == v:
                    return cycle, None
    raise AssertionError("Bellman-Ford kept lowering distances without a parent cycle")
