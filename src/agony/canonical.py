"""Canonical optimal rankings: pointwise-minimal with the fewest tiers.

Among all optimal rankings there is a unique one that is pointwise <= every
other.  The components of a ``min_agony`` result are lowered one at a time,
in topological order, by the solver's own Dijkstra
(``circulation._build_tree``), run on copies of the solved flow and duals.
"""
from __future__ import annotations

from typing import Sequence

from .circulation import SolverError, SolverState, _build_tree, _Core
from .exact import ExactResult


def _shifted_duals(state: SolverState, starts) -> list[int]:
    """Duals minus the residual distances from ``starts``; ``state`` is untouched.

    ``starts`` holds (initial distance, vertex) pairs.  Duals that are not
    optimal, or a vertex that no start reaches, raise ``SolverError``.
    """
    core = _Core(state.inst)
    core.flow = list(state.flow)
    core.pot = list(state.potentials)
    _build_tree(core, starts)
    return core.pot


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
            pot, shifted = comp.state.potentials, _shifted_duals(comp.state, starts)
            for i, v in enumerate(comp.vertices):
                out[v] = ranks[v] - pot[i] + shifted[i]
    if out and (min(out) != 0 or max(out) > result.k - 1):
        raise SolverError(f"canonical ranks span {min(out)}..{max(out)}, not 0..<={result.k - 1}")
    return out


def distinct_rank_count(ranks: Sequence[int]) -> int:
    """Number of distinct tiers used by a ranking."""
    return len(set(ranks))
