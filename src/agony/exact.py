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
    """One solved strongly connected component (or a singleton bypass)."""

    vertices: list[int]
    offset: int
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


def _solve_component(g, k, penalty, solver, contract_factor, check_invariants):
    sg = build_convex_instance(g, k, penalty)
    inst = uncapacitate(sg)
    solve = solve_fast if solver == "fast" else solve_baseline
    state = solve(inst, contract_factor=contract_factor, check_invariants=check_invariants)
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
    use_scc: Optional[bool] = None,
    solver: str = "fast",
    contract_factor: int = 3,
    check_invariants: bool = False,
) -> ExactResult:
    """Optimal ranking of g within ranks [0, k-1] under a convex penalty.

    With k unset (or k >= n) the cardinality constraint is inactive and the
    graph decomposes into strongly connected components, each solved
    independently and stacked in topological order.  ``use_scc`` may only be
    enabled in that unconstrained case.
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
    if k is None:
        k = max(n, 1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, max(n, 1))  # more ranks than vertices never help
    unconstrained = k >= n
    if use_scc is None:
        use_scc = unconstrained
    elif use_scc and not unconstrained:
        raise ValueError("SCC decomposition requires the unconstrained case k = n")

    t0 = time.perf_counter()
    stats = SolveStats()
    components: list[ComponentSolve] = []
    ranks = [0] * n
    scaled_total = 0

    if n == 0:
        pass
    elif k == 1:
        # single tier: the only assignment is all-zero
        components.append(ComponentSolve(list(range(n)), 0, [0] * n))
    elif use_scc:
        comps = strongly_connected_components(g)
        subs = split_by_part(g, [comp for comp in comps if len(comp) > 1])
        subs.reverse()  # pop() hands out each subgraph in order, then drops it
        offset = 0
        for comp in comps:
            if len(comp) == 1:
                components.append(ComponentSolve(comp, offset, [0]))
                ranks[comp[0]] = offset
                offset += 1
                continue
            sub = subs.pop()
            sg, state, local = _solve_component(
                sub, len(comp), penalty, solver, contract_factor, check_invariants
            )
            for v, r in zip(comp, local):
                ranks[v] = r + offset
            scaled_total += circulation_value(state, sg)
            _merge_stats(stats, state.stats)
            components.append(ComponentSolve(comp, offset, local, sg, state))
            offset += len(comp)
    else:
        sg, state, local = _solve_component(
            g, k, penalty, solver, contract_factor, check_invariants
        )
        ranks = local
        scaled_total = circulation_value(state, sg)
        _merge_stats(stats, state.stats)
        components.append(ComponentSolve(list(range(n)), 0, local, sg, state))

    agony = _normalize_score(scaled_total, penalty.scale)
    if k == 1 and n:
        agony = score_ranking(g, ranks, penalty)
    recomputed = score_ranking(g, ranks, penalty)
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
