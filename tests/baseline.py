"""The tests' reference solver: plain single-source successive shortest paths.

``solve_baseline`` runs the delta-scaling loop of ``solve_fast`` on the
same solver core (contractions, invariant checks, unrolling) and the same
Dijkstra, but not its primal-dual rounds or its max flow.  Each
augmentation pairs the highest excess with the most negative one, lowest
vertex index on ties, while both clear the 3/4-delta gate; a
single-source Dijkstra from the excess vertex prices the duals, then a
breadth-first search over the residual arcs of reduced cost 0 finds a
path to the deficit vertex, and one delta is pushed along it.  So it
checks the phases of ``solve_fast`` with a textbook algorithm.
"""
from __future__ import annotations

from collections import deque

from agony.circulation import (
    _ALPHA_DEN,
    _ALPHA_NUM,
    CirculationInstance,
    SolverError,
    SolverState,
    _Core,
    _has_excess,
    _initial_delta,
)


def solve_baseline(inst: CirculationInstance, *, check_invariants: bool = False) -> SolverState:
    """One single-source Dijkstra and one delta pushed per augmentation."""
    core = _Core(inst)
    delta = _initial_delta(core)
    unit_phases = 0  # phases at delta 1: the second must leave no excess
    while _has_excess(core):
        if unit_phases == 2:
            raise SolverError("no progress at unit granularity")
        core.stats.outer_phases += 1
        core.contract_pass(delta)
        _phase(core, delta)
        if check_invariants:
            core.check_state()
        if delta == 1:
            unit_phases += 1
        delta = max(1, delta // 2)
    return core.finalize()


def _phase(core: _Core, delta: int):
    lim = _ALPHA_NUM * delta
    while True:
        # highest excess first, ties broken by lowest vertex index
        s = r = None
        es = er = 0
        for v in core.roots:
            ev = core.excess[v]
            if ev > es or (ev == es > 0 and v < s):
                es, s = ev, v
            elif ev < er or (ev == er < 0 and v < r):
                er, r = ev, v
        if s is None or r is None:
            return
        if not (_ALPHA_DEN * es >= lim and -_ALPHA_DEN * er >= lim):
            return
        core.dijkstra([(0, s)])
        _augment(core, s, r, delta)
        core.stats.augmentations += 1


def _augment(core: _Core, s: int, r: int, delta: int):
    """Push delta from s to r along a zero-reduced-cost residual path.

    The Dijkstra from s left every shortest path from s at reduced cost 0,
    so a breadth-first search over those residual arcs reaches r.
    """
    src, dst, cost, pot, flow = core.src, core.dst, core.cost, core.pot, core.flow
    parent = {s: None}  # the arc each vertex was reached by
    queue = deque([s])
    while r not in parent:
        if not queue:
            raise SolverError("no zero-reduced-cost path to the deficit vertex")
        x = queue.popleft()
        px = pot[x]
        for a in core.out_arcs[x]:
            w = dst[a]
            if w not in parent and cost[a] + pot[w] == px:
                parent[w] = a
                queue.append(w)
        for a in core.in_arcs[x]:
            w = src[a]
            if w not in parent and flow[a] and cost[a] + px == pot[w]:
                parent[w] = a
                queue.append(w)
    v = r
    while (a := parent[v]) is not None:
        if dst[a] == v:
            flow[a] += delta
            v = src[a]
        else:
            if flow[a] < delta:
                raise SolverError("negative flow after augmentation")
            flow[a] -= delta
            v = dst[a]
    core.excess[s] -= delta
    core.excess[r] += delta
