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
from .exact import ExactResult


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


def canonical_ranking(result: ExactResult) -> list[int]:
    """Pointwise-minimal optimal ranking of a ``min_agony`` result.

    r*(v) = r(v) - d(v) with d the residual shortest distance from alpha.
    The result is optimal, canonical, and its smallest rank is 0.  It needs
    one solved instance, so a result stacked from several components
    (``use_scc`` at the rank window cap) raises ``ValueError``.
    """
    if not result.ranks or result.k == 1:  # no circulation ran
        return list(result.ranks)
    if len(result.components) != 1:
        raise ValueError("canonical ranking needs one global solve (min_agony use_scc=False)")
    (comp,) = result.components
    state, sg = comp.state, comp.sg
    pot, shifted = state.potentials, _shifted_duals(state, sg)
    out = list(result.ranks)
    for i, v in enumerate(comp.vertices):
        out[v] -= pot[i] - shifted[i]
    if min(out) != 0:
        raise SolverError("canonical ranking does not start at rank 0")
    if max(out) > sg.k - 1:
        raise SolverError("canonical ranking escaped the rank window")
    return out


def distinct_rank_count(ranks: Sequence[int]) -> int:
    """Number of distinct tiers used by a ranking."""
    return len(set(ranks))
