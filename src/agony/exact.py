"""Exact agony minimization: orchestration, SCC fast path, certificates."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .circulation import (
    SolveStats,
    SolverError,
    SolverState,
    build_convex_instance,
    circulation_value,
    extract_ranking,
    solve_fast,
    uncapacitate,
)
from .graph import (
    WeightedDigraph,
    score_ranking,
    split_by_part,
    strongly_connected_components,
)
from .penalties import LINEAR, PenaltySpec

Score = Union[int, Fraction]


@dataclass
class ComponentSolve:
    """One part of the graph: a solved instance, or a single tier (no solve)."""

    vertices: list[int]
    local_ranks: list[int]
    state: Optional[SolverState] = None


@dataclass
class ExactResult:
    g: WeightedDigraph
    ranks: list[int]
    agony: Score
    objective: int  # circulation value, scaled by the penalty's slope LCM
    k: int
    penalty: PenaltySpec
    used_scc: bool  # k is at the rank window cap: one solve per SCC
    components: list[ComponentSolve] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)


def min_agony(
    g: WeightedDigraph, k: Optional[int] = None, penalty: PenaltySpec = LINEAR
) -> ExactResult:
    """Optimal ranking of g within ranks [0, k-1] under a convex penalty.

    With step = max(1, -b) for the smallest hinge breakpoint b, an upward
    edge across a rank gap of step costs nothing, so some optimum fits in
    the rank window cap = (n-1)*step + 1 (n ranks for linear agony).  k
    defaults to the cap and is clamped to it.  At the cap the graph is
    decomposed into strongly connected components: a component C is
    solved within (|C|-1)*step + 1 ranks, and the components are stacked
    step ranks apart in topological order.  Below the cap one global
    instance is solved; k = 1 needs none.  A penalty that can only be
    scored raises ``UnsupportedPenaltyError``.
    """
    terms = penalty.integer_terms()  # checks the penalty before the graph
    if not g.is_normalized():
        raise ValueError("graph must be normalized first (see agony.graph.normalize)")
    n = g.n
    step = max(1, -min(b for _, b in terms))
    cap = max(n - 1, 0) * step + 1
    if k is None:
        k = cap
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, cap)  # a wider window never lowers the optimum
    use_scc = k == cap

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
            # the stages are module attributes looked up per call, so a
            # traced run sees wrapped ones
            state = solve_fast(uncapacitate(build_convex_instance(subs.pop(), width, penalty)))
            local = extract_ranking(state)
            scaled_total += circulation_value(state)
            _merge_stats(stats, state.stats)
            components.append(ComponentSolve(part, local, state))
        for v, r in zip(part, local):
            ranks[v] = r + offset
        offset += len(part) * step

    recomputed = score_ranking(g, ranks, penalty)
    agony = recomputed if k == 1 else penalty.unscale(scaled_total)
    if recomputed != agony:
        raise SolverError(
            f"strong duality broken: circulation says {agony}, ranking scores {recomputed}"
        )
    return ExactResult(g, ranks, agony, scaled_total, k, penalty, use_scc, components, stats)


def _merge_stats(into: SolveStats, part: SolveStats):
    into.outer_phases += part.outer_phases
    into.augmentations += part.augmentations
    into.repairs += part.repairs
    into.settles += part.settles


def verify_certificate(result: ExactResult) -> bool:
    """Check the optimality certificate of a min_agony result.

    True iff, under the result's own graph and penalty, (a) rescoring the
    ranking reproduces the reported agony, (b) the circulation objective
    agrees with it, and (c) every retained solver state certifies its
    component's ranks (``SolverState.certifies``: conservation, dual
    feasibility, slackness, the sentinel dual spread bound and strong
    duality).  False signals a solver bug.
    """
    if score_ranking(result.g, result.ranks, result.penalty) != result.agony:
        return False
    solved = [c for c in result.components if c.state is not None]
    if result.k > 1:
        total = sum(circulation_value(c.state) for c in solved)
        if result.penalty.unscale(total) != result.agony:
            return False
    return all(c.state.certifies(c.local_ranks) for c in solved)
