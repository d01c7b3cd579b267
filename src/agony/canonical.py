"""Canonical optimal rankings: pointwise-minimal with the fewest tiers.

Among all optimal rankings there is a unique one that is pointwise <= every
other.  The components of a ``min_agony`` result are lowered one at a time,
in topological order, by the residual distances of each solved state
(``circulation.residual_distances``), which leave the state untouched.
"""
from __future__ import annotations

from typing import Sequence

from .circulation import SolverError, residual_distances
from .exact import ExactResult


def canonical_ranking(result: ExactResult) -> list[int]:
    """Pointwise-minimal optimal ranking of any ``min_agony`` result.

    A ranking is optimal when every component keeps feasible duals on its
    residual graph and every edge between components is free.  An edge
    (v, w) into a later component is free once r*(w) >= r*(v) - b, for the
    smallest hinge breakpoint b; low(w) is the largest such bound, or 0.
    A component without a solve takes low; a solved one runs the Dijkstra
    from all its vertices v at once, at distance r(v) - low(v), and takes
    r*(v) = r(v) - d(v), d the Dijkstra distance.  The smallest rank is 0.
    """
    g, ranks, comps = result.g, result.ranks, result.components
    b_min = min(b for _, b in result.penalty.terms)
    part = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp.vertices:
            part[v] = i
    into: list[list[tuple[int, int]]] = [[] for _ in comps]
    for v, w, _ in g.edges:
        if part[v] != part[w]:
            into[part[w]].append((v, w))
    out = [0] * g.n  # low(v) until v's component is lowered, then r*(v)
    for comp, edges in zip(comps, into):
        for v, w in edges:
            out[w] = max(out[w], out[v] - b_min)
        if comp.state is not None:
            starts = [(ranks[v] - out[v], i) for i, v in enumerate(comp.vertices)]
            dist = residual_distances(comp.state, starts)
            for i, v in enumerate(comp.vertices):
                out[v] = ranks[v] - dist[i]
    if out and (min(out) != 0 or max(out) > result.k - 1):
        raise SolverError(f"canonical ranks span {min(out)}..{max(out)}, not 0..<={result.k - 1}")
    return out


def distinct_rank_count(ranks: Sequence[int]) -> int:
    """Number of distinct tiers used by a ranking."""
    return len(set(ranks))
