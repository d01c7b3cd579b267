"""Canonical optimal rankings: pointwise-minimal with the fewest tiers.

Among all optimal rankings there is a unique one that is pointwise <= every
other; it is obtained by subtracting, from any optimal ranking, the shortest
reduced-cost distances from the alpha sentinel in the residual graph of the
solved circulation.  Those distances come from the solver's own Dijkstra
(``circulation._build_tree``), run on copies of the solved flow and duals.
"""
from __future__ import annotations

from typing import Sequence

from .circulation import ShiftedGraph, SolverError, SolverState, _build_tree, _Core


def _shifted_duals(state: SolverState, sg: ShiftedGraph) -> list[int]:
    """Duals minus the residual distances from alpha; ``state`` is untouched.

    The Dijkstra checks every residual arc: a negative reduced cost or a
    flow-carrying arc that is not tight raises ``SolverError``, and so does
    a vertex that alpha cannot reach.
    """
    core = _Core(state.inst)
    core.flow = list(state.flow)
    core.pot = list(state.potentials)
    _build_tree(core, {sg.alpha})
    return core.pot


def canonical_ranking(state: SolverState, sg: ShiftedGraph, ranks: Sequence[int]) -> list[int]:
    """Pointwise-minimal optimal ranking derived from a solved state.

    r*(v) = r(v) - d(v) with d the residual shortest distance from alpha.
    The result is optimal, canonical, and its smallest rank is 0.
    """
    pot, shifted = state.potentials, _shifted_duals(state, sg)
    out = [ranks[v] - (pot[v] - shifted[v]) for v in range(sg.n_original)]
    if out:
        if min(out) != 0:
            raise SolverError("canonical ranking does not start at rank 0")
        if max(out) > sg.k - 1:
            raise SolverError("canonical ranking escaped the rank window")
    return out


def distinct_rank_count(ranks: Sequence[int]) -> int:
    """Number of distinct tiers used by a ranking."""
    return len(set(ranks))
