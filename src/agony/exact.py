"""Exact agony minimization: orchestration, SCC fast path, certificates."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .circulation import (
    ShiftedGraph,
    SolveStats,
    SolverError,
    SolverState,
    build_convex_instance,
    circulation_value,
    extract_ranking,
    shifted_score,
    solve_baseline,
    solve_fast,
    uncapacitate,
)
from .graph import (
    WeightedDigraph,
    score_ranking,
    split_by_part,
    strongly_connected_components,
)
from .penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError

Score = Union[int, Fraction]


@dataclass
class ComponentSolve:
    """One part of the graph: a solved instance, or a single tier (no solve)."""

    vertices: list[int]
    local_ranks: list[int]
    sg: Optional[ShiftedGraph] = None
    state: Optional[SolverState] = None


@dataclass
class ExactResult:
    ranks: list[int]
    agony: Score
    objective: int  # circulation value, scaled by the penalty's slope LCM
    k: int
    penalty: PenaltySpec
    used_scc: bool
    components: list[ComponentSolve] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)


def _solve_component(g, k, penalty, solver):
    sg = build_convex_instance(g, k, penalty)
    inst = uncapacitate(sg)
    solve = solve_fast if solver == "fast" else solve_baseline
    state = solve(inst)
    _rebase_duals(state, sg)
    ranks = extract_ranking(state, sg)
    return sg, state, ranks


def _rebase_duals(state: SolverState, sg: ShiftedGraph):
    """Raise pi(alpha) so the smallest extracted rank is 0.

    A positive smallest rank means every alpha fan arc has positive reduced
    cost, so by slackness no fan arc carries flow, and conservation at the
    sentinels then forces the whole sentinel system flowless; raising
    pi(alpha) therefore keeps dual feasibility and slackness intact.
    """
    if sg.n_original == 0:
        return
    pots = state.potentials
    base = pots[sg.alpha]
    low = min(pots[v] - base for v in range(sg.n_original))
    if low > 0:
        pots[sg.alpha] = base + low


def _normalize_score(value, scale: int) -> Score:
    if scale == 1:
        return value
    frac = Fraction(value, scale)
    return int(frac) if frac.denominator == 1 else frac


def min_agony(
    g: WeightedDigraph,
    k: Optional[int] = None,
    penalty: PenaltySpec = LINEAR,
    *,
    use_scc: bool = True,
    solver: str = "fast",
) -> ExactResult:
    """Optimal ranking of g within ranks [0, k-1] under a convex penalty.

    With step = max(1, -b) for the smallest hinge breakpoint b, an upward
    edge across a rank gap of step costs nothing, so some optimum fits in
    the rank window cap = (n-1)*step + 1 (n ranks for linear agony).  k
    defaults to the cap and is clamped to it.  At the cap, ``use_scc``
    decomposes the graph into strongly connected components: a component
    C is solved within (|C|-1)*step + 1 ranks, and the components are
    stacked step ranks apart in topological order.  Below the cap, or
    without ``use_scc``, one global instance is solved; k = 1 needs none.
    """
    if solver not in ("fast", "baseline"):
        raise ValueError(f"unknown solver {solver!r}")
    if not penalty.solvable:
        raise UnsupportedPenaltyError(
            f"penalty kind {penalty.kind!r} cannot be minimized, only scored"
        )
    if not g.is_normalized():
        raise ValueError("graph must be normalized first (see agony.graph.normalize)")
    n = g.n
    step = max(1, -min(b for _, b in penalty.terms))
    cap = max(n - 1, 0) * step + 1
    if k is None:
        k = cap
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, cap)  # a wider window never lowers the optimum
    use_scc = use_scc and k == cap

    t0 = time.perf_counter()
    stats = SolveStats()
    components: list[ComponentSolve] = []
    ranks = [0] * n
    scaled_total = 0

    if use_scc:
        parts = strongly_connected_components(g)
        subs = split_by_part(g, [part for part in parts if len(part) > 1])
        subs.reverse()  # pop() hands out each subgraph in order, then drops it
    else:
        parts = [list(range(n))] if n else []
        subs = [g]
    offset = 0
    for part in parts:
        width = min(k, (len(part) - 1) * step + 1)
        if width == 1:  # a single tier: the only assignment is all-zero
            local = [0] * len(part)
            components.append(ComponentSolve(part, local))
        else:
            sg, state, local = _solve_component(subs.pop(), width, penalty, solver)
            scaled_total += circulation_value(state, sg)
            _merge_stats(stats, state.stats)
            components.append(ComponentSolve(part, local, sg, state))
        for v, r in zip(part, local):
            ranks[v] = r + offset
        offset += len(part) * step

    recomputed = score_ranking(g, ranks, penalty)
    agony = recomputed if k == 1 else _normalize_score(scaled_total, penalty.scale)
    if recomputed != agony:
        raise SolverError(
            f"strong duality broken: circulation says {agony}, ranking scores {recomputed}"
        )
    stats.wall_ms = (time.perf_counter() - t0) * 1e3
    return ExactResult(ranks, agony, scaled_total, k, penalty, use_scc, components, stats)


def _merge_stats(into: SolveStats, part: SolveStats):
    into.outer_phases += part.outer_phases
    into.augmentations += part.augmentations
    into.contractions += part.contractions
    into.repairs += part.repairs
    into.settles += part.settles


def verify_certificate(g: WeightedDigraph, result: ExactResult, penalty: PenaltySpec) -> bool:
    """Check the optimality certificate of a min_agony result.

    True iff (a) rescoring the ranking reproduces the reported agony,
    (b) the circulation objective agrees with it, and (c) every retained
    solver state satisfies conservation, dual feasibility, slackness and
    the sentinel dual spread bound.  False signals a solver bug.
    """
    if score_ranking(g, result.ranks, penalty) != result.agony:
        return False
    if result.k > 1:
        total = sum(
            circulation_value(c.state, c.sg) for c in result.components if c.state is not None
        )
        if _normalize_score(total, penalty.scale) != result.agony:
            return False
    for comp in result.components:
        state, sg = comp.state, comp.sg
        if state is None:
            continue
        if not state.check_optimality():
            return False
        pots = state.potentials
        if pots[sg.omega] - pots[sg.alpha] > sg.k - 1:
            return False
        full = [pots[v] - pots[sg.alpha] for v in range(sg.n_total)]
        if shifted_score(sg, full) != circulation_value(state, sg):
            return False
        if full[: sg.n_original] != comp.local_ranks:
            return False
    return True
