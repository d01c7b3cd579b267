"""Min-cost circulation machinery behind exact agony minimization.

The pipeline: a weighted digraph plus a tier budget k becomes a shifted-arc
graph (``build_agony_instance`` / ``build_convex_instance``), capacitated
arcs are replaced by negative-bias gadget vertices (``uncapacitate``), and
the resulting uncapacitated instance is solved by delta-scaling successive
shortest paths.  One scaling loop (``_solve``) runs the phases for both
solvers.  ``solve_fast`` runs each phase primal-dual: a multi-source
Dijkstra (``_build_tree``) prices the duals so that every shortest path
from a source has reduced cost 0, then a Dinic max flow over the
zero-reduced-cost residual arcs (``_admissible_max_flow``) pushes
delta-units from the sources to the sinks until no such path is left, and
the two repeat until no source or no sink is left, so a phase runs one
Dijkstra per distinct shortest-path cost.  ``solve_baseline`` is the
single-source mode of the same Dijkstra: one tree and one push of delta
per augmentation.  The Dijkstra loop and the max flow's pass over the
tight arcs are the only two scans of the residual graph in the package.
The canonical ranking (``agony.canonical``) reuses the Dijkstra through
``_build_tree`` from the alpha sentinel on a copy of a solved state.  An
arc whose flow outgrows the scale is contracted (Orlin's strongly
polynomial device): its ends merge into one cluster and the arcs are
rewritten to run between cluster roots, so neither scan sees a member.
Optimal integer duals turn back into a rank assignment via
``extract_ranking``.

No floating point anywhere: distances are lexicographic (cost, hops) pairs,
which is equivalent to perturbing every arc by an epsilon smaller than 1/n,
and all comparisons against the 3/4 excess threshold are cross-multiplied.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional

from .graph import WeightedDigraph
from .penalties import PenaltySpec, UnsupportedPenaltyError

# excess threshold alpha = 3/4: a vertex is a source when 4*e(v) >= 3*delta
_ALPHA_NUM = 3
_ALPHA_DEN = 4
# an arc is contracted once its flow reaches _CONTRACT_FACTOR * n * delta
_CONTRACT_FACTOR = 3


class SolverError(RuntimeError):
    """Internal invariant violation; indicates a solver bug, never silent."""


@dataclass(frozen=True)
class ShiftedArc:
    src: int
    dst: int
    weight: Optional[int]  # None means uncapacitated
    shift: int


@dataclass(frozen=True)
class ShiftedGraph:
    """Shifted-penalty graph: minimize sum w(e) * max(r(u) - r(v) + s(e), 0).

    Contains the original vertices 0..n_original-1 plus the two sentinels
    ``alpha`` and ``omega`` whose fan arcs pin every rank into [0, k-1].
    """

    n_original: int
    alpha: int
    omega: int
    k: int
    arcs: tuple[ShiftedArc, ...]

    @property
    def n_total(self) -> int:
        return self.n_original + 2

    @property
    def score_offset(self) -> int:
        """sum of s(e)*w(e) over finite arcs with positive shift.

        The optimal shifted score equals this offset minus the minimal cost
        of the uncapacitated circulation.
        """
        return sum(a.shift * a.weight for a in self.arcs if a.weight is not None and a.shift > 0)


def build_convex_instance(g: WeightedDigraph, k: int, penalty: PenaltySpec) -> ShiftedGraph:
    """Encode constrained minimization of a convex hinge-sum penalty.

    Every input edge e becomes one capacitated arc per hinge term, with
    shift -b_i and weight a_i * w(e) (slopes pre-scaled to integers); the
    sentinel fans and the (omega, alpha) arc with shift 1-k enforce the
    cardinality constraint.
    """
    if not penalty.solvable:
        raise UnsupportedPenaltyError(
            f"penalty kind {penalty.kind!r} cannot be minimized, only scored"
        )
    if k < 2:
        raise ValueError(f"cardinality constraint k must be >= 2, got {k}")
    terms = penalty.integer_terms()
    n = g.n
    alpha, omega = n, n + 1
    arcs: list[ShiftedArc] = []
    for u, v, w in g.edges:
        for a_int, b in terms:
            arcs.append(ShiftedArc(u, v, a_int * w, -b))
    for v in range(n):
        arcs.append(ShiftedArc(alpha, v, None, 0))
        arcs.append(ShiftedArc(v, omega, None, 0))
    arcs.append(ShiftedArc(omega, alpha, None, 1 - k))
    return ShiftedGraph(n, alpha, omega, k, tuple(arcs))


def build_agony_instance(g: WeightedDigraph, k: int) -> ShiftedGraph:
    """Encode plain agony: one arc per edge with shift 1 and the sentinels."""
    return build_convex_instance(g, k, PenaltySpec.linear())


class CirculationInstance:
    """Uncapacitated min-cost circulation with vertex biases.

    The first ``n_shifted`` vertices are the shifted graph's vertices; the
    rest encode one capacitated arc each (two incoming cost-split arcs, bias
    -capacity).
    """

    __slots__ = ("n", "asrc", "adst", "acost", "bias", "out_arcs", "in_arcs", "k")

    def __init__(self, n_shifted: int, k: Optional[int] = None):
        self.n = n_shifted
        self.asrc: list[int] = []
        self.adst: list[int] = []
        self.acost: list[int] = []
        self.bias: list[int] = [0] * n_shifted
        self.k = k
        self.out_arcs: list[list[int]] = []
        self.in_arcs: list[list[int]] = []

    @property
    def m(self) -> int:
        return len(self.asrc)

    def _add_vertex(self) -> int:
        v = self.n
        self.n += 1
        self.bias.append(0)
        return v

    def _add_arc(self, src: int, dst: int, cost: int) -> int:
        a = len(self.asrc)
        self.asrc.append(src)
        self.adst.append(dst)
        self.acost.append(cost)
        return a

    def excess(self, flow: list[int]) -> list[int]:
        """Bias plus inflow minus outflow of every vertex under ``flow``."""
        e = list(self.bias)
        asrc, adst = self.asrc, self.adst
        for a, f in enumerate(flow):
            if f:
                e[adst[a]] += f
                e[asrc[a]] -= f
        return e

    def _build_adjacency(self):
        out = [[] for _ in range(self.n)]
        inn = [[] for _ in range(self.n)]
        for a in range(self.m):
            out[self.asrc[a]].append(a)
            inn[self.adst[a]].append(a)
        self.out_arcs = out
        self.in_arcs = inn


def uncapacitate(sg: ShiftedGraph) -> CirculationInstance:
    """Replace each capacitated arc (v, w) by a gadget vertex u.

    Arcs (v, u) with cost max(-s, 0) and (w, u) with cost max(s, 0) meet at
    u with bias -c(e), while b(w) grows by c(e); uncapacitated arcs become
    plain arcs with cost -s.  Biases sum to zero and all costs are >= 0, so
    the zero flow with zero duals is dual-feasible and slack.
    """
    inst = CirculationInstance(sg.n_total, k=sg.k)
    for arc in sg.arcs:
        if arc.weight is None:
            inst._add_arc(arc.src, arc.dst, -arc.shift)
        else:
            u = inst._add_vertex()
            inst._add_arc(arc.src, u, max(-arc.shift, 0))
            inst._add_arc(arc.dst, u, max(arc.shift, 0))
            inst.bias[u] -= arc.weight
            inst.bias[arc.dst] += arc.weight
    if sum(inst.bias) != 0:
        raise SolverError("biases do not sum to zero")
    if any(c < 0 for c in inst.acost):
        raise SolverError("negative arc cost after uncapacitating")
    inst._build_adjacency()
    return inst


@dataclass
class SolveStats:
    """Counters of one solve.

    ``augmentations`` counts augmenting paths, each carrying one or more
    delta-units (one in the baseline).  ``repairs`` counts the Dijkstra
    rounds of the primal-dual phase, each of which re-prices the duals;
    the baseline counts none, and the benchmark's tracer reads the field
    under this name.  ``settles`` counts the vertices settled by every
    Dijkstra run.
    """

    outer_phases: int = 0
    augmentations: int = 0
    contractions: int = 0
    repairs: int = 0
    settles: int = 0
    wall_ms: float = 0.0


@dataclass
class SolverState:
    """Optimal flow and integer duals, with contractions fully unrolled."""

    inst: CirculationInstance
    flow: list[int]
    potentials: list[int]
    stats: SolveStats = field(default_factory=SolveStats)

    def reduced_cost(self, a: int) -> int:
        inst = self.inst
        return inst.acost[a] + self.potentials[inst.adst[a]] - self.potentials[inst.asrc[a]]

    def objective(self) -> int:
        acost = self.inst.acost
        return sum(acost[a] * f for a, f in enumerate(self.flow) if f)

    def check_optimality(self) -> bool:
        """Dual feasibility, complementary slackness and flow conservation."""
        for a in range(self.inst.m):
            rc = self.reduced_cost(a)
            if rc < 0:
                return False
            if self.flow[a] and rc != 0:
                return False
        if self.flow and min(self.flow) < 0:
            return False
        return all(x == 0 for x in self.inst.excess(self.flow))


def circulation_value(state: SolverState, sg: ShiftedGraph) -> int:
    """Value of the optimal capacitated circulation (max sum s(e) f(e))."""
    return sg.score_offset - state.objective()


def shifted_score(sg: ShiftedGraph, full_ranks: list[int]):
    """Shifted-penalty score of a ranking over all sg vertices.

    ``full_ranks`` must cover the sentinels too.  Infinite-capacity arcs
    must be satisfied exactly; a violation returns None.
    """
    total = 0
    for arc in sg.arcs:
        viol = full_ranks[arc.src] - full_ranks[arc.dst] + arc.shift
        if arc.weight is None:
            if viol > 0:
                return None
        elif viol > 0:
            total += arc.weight * viol
    return total


def extract_ranking(state: SolverState, sg: ShiftedGraph) -> list[int]:
    """Ranks r(v) = pi(v) - pi(alpha), guaranteed inside [0, k-1]."""
    base = state.potentials[sg.alpha]
    ranks = [state.potentials[v] - base for v in range(sg.n_original)]
    for v, r in enumerate(ranks):
        if not (0 <= r <= sg.k - 1):
            raise SolverError(f"rank {r} of vertex {v} outside [0, {sg.k - 1}]")
    return ranks


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

_ROOT = -1  # the arc of a source in its Dijkstra heap entry


class _Core:
    """Shared state of both solvers: flow, duals, contraction bookkeeping.

    Contracting freezes the dual difference d of the absorbed cluster to
    the kept one: absorbed members get the kept ``root`` and d added to
    ``off``, and arcs leaving or entering the absorbed cluster get the kept
    root as their end and d folded into their cost.  So ``src``, ``dst``
    and ``cost`` describe the contracted graph over cluster roots, with
    reduced cost ``cost[a] + pot[dst[a]] - pot[src[a]]``.  Arcs left on
    members would save no work here but make every residual scan map ends
    to roots and add offsets.  The lists alias the instance's until the
    first contraction copies them; ``check_state`` and ``finalize`` work
    from the instance's costs and the unrolled potentials.
    """

    def __init__(self, inst: CirculationInstance):
        n = inst.n
        self.inst = inst
        self.flow = [0] * inst.m
        self.pot = [0] * n
        self.root = list(range(n))
        self.off = [0] * n  # potential of x is pot[root[x]] + off[x]
        self.src, self.dst, self.cost = inst.asrc, inst.adst, inst.acost
        self.roots: set[int] = set(range(n))
        self.excess = list(inst.bias)
        # the per-vertex lists are shared with inst: a contraction replaces
        # the kept root's lists instead of extending them
        self.out_arcs = list(inst.out_arcs)
        self.in_arcs = list(inst.in_arcs)
        self.members: dict[int, list[int]] = {v: [v] for v in range(n)}
        # (arc, members of absorbed cluster, True if arc dst was absorbed)
        self.clog: list[tuple[int, tuple[int, ...], bool]] = []
        self.stats = SolveStats()

    def potential(self, x: int) -> int:
        return self.pot[self.root[x]] + self.off[x]

    # -- contraction -------------------------------------------------------

    def contract_pass(self, delta: int):
        thr = _CONTRACT_FACTOR * self.inst.n * delta
        if thr < 1:
            thr = 1
        flow = self.flow
        for a, f in enumerate(flow):
            if f >= thr:
                self._contract_arc(a)

    def _contract_arc(self, a: int):
        rs, rd = self.src[a], self.dst[a]
        if rs == rd:
            return
        # keep the root with the bigger adjacency to bound merge work
        size_s = len(self.out_arcs[rs]) + len(self.in_arcs[rs])
        size_d = len(self.out_arcs[rd]) + len(self.in_arcs[rd])
        if size_s >= size_d:
            keep, absorbed, dst_in_absorbed = rs, rd, True
        else:
            keep, absorbed, dst_in_absorbed = rd, rs, False
        if self.src is self.inst.asrc:  # first contraction: stop aliasing
            self.src, self.dst, self.cost = list(self.src), list(self.dst), list(self.cost)
        members = self.members.pop(absorbed)
        self.clog.append((a, tuple(members), dst_in_absorbed))
        # freeze the current dual relation between the two clusters
        d = self.pot[absorbed] - self.pot[keep]
        root, off = self.root, self.off
        for v in members:
            root[v] = keep
            off[v] += d
        src, dst, cost = self.src, self.dst, self.cost
        for b in self.out_arcs[absorbed]:
            src[b] = keep
            cost[b] -= d
        for b in self.in_arcs[absorbed]:
            dst[b] = keep
            cost[b] += d
        self.excess[keep] += self.excess[absorbed]
        self.out_arcs[keep] = self.out_arcs[keep] + self.out_arcs[absorbed]
        self.in_arcs[keep] = self.in_arcs[keep] + self.in_arcs[absorbed]
        self.out_arcs[absorbed] = []
        self.in_arcs[absorbed] = []
        self.members[keep].extend(members)
        self.roots.discard(absorbed)
        self.stats.contractions += 1

    # -- invariants ---------------------------------------------------------

    def check_state(self):
        P = self.potential
        inst = self.inst
        for a in range(inst.m):
            rc = inst.acost[a] + P(inst.adst[a]) - P(inst.asrc[a])
            if rc < 0:
                raise SolverError(f"negative reduced cost {rc} on arc {a}")
            if self.flow[a] and rc != 0:
                raise SolverError(f"slackness violated on arc {a}")
        if inst.k is not None and self.roots:
            pots = [self.pot[r] for r in self.roots]
            if max(pots) - min(pots) > inst.k:
                raise SolverError("dual spread exceeds k")

    # -- finish --------------------------------------------------------------

    def finalize(self) -> SolverState:
        inst = self.inst
        flow = self.flow
        e = inst.excess(flow)
        # re-balance contracted arcs, newest contraction first
        for a, members, dst_in_absorbed in reversed(self.clog):
            s_b = sum(e[v] for v in members)
            if s_b:
                df = -s_b if dst_in_absorbed else s_b
                flow[a] += df
                e[inst.adst[a]] += df
                e[inst.asrc[a]] -= df
                if flow[a] < 0:
                    raise SolverError("contracted arc flow went negative while unrolling")
        if any(e):
            raise SolverError("flow conservation violated after unrolling")
        potentials = [self.potential(v) for v in range(inst.n)]
        return SolverState(inst, flow, potentials, self.stats)


def _initial_delta(core: _Core) -> int:
    """Largest power of two not above min(max excess, max deficit).

    Power-of-two granularities make every halving exact, so all flows stay
    multiples of the current delta and reverse residual arcs always carry
    at least delta.
    """
    hi = max((core.excess[r] for r in core.roots), default=0)
    lo = max((-core.excess[r] for r in core.roots), default=0)
    bound = min(hi, lo)
    if bound <= 1:
        return max(bound, 1)
    return 1 << (bound.bit_length() - 1)


def _has_excess(core: _Core) -> bool:
    return any(core.excess[r] for r in core.roots)


# ---------------------------------------------------------------------------
# delta-scaling loop and its two phase bodies
# ---------------------------------------------------------------------------

def _solve(
    inst: CirculationInstance, check_invariants: bool, phase: Callable[[_Core, int], None]
) -> SolverState:
    """Delta-scaling successive shortest paths around one phase body.

    Each outer phase contracts the arcs whose flow reached the contraction
    threshold, then lets ``phase(core, delta)`` push delta-units from
    vertices with excess >= 3/4 delta to vertices with deficit >= 3/4
    delta, and halves delta until every excess is gone.
    """
    t0 = time.perf_counter()
    core = _Core(inst)
    delta = _initial_delta(core)
    guard = 0
    while _has_excess(core):
        core.stats.outer_phases += 1
        core.contract_pass(delta)
        phase(core, delta)
        if check_invariants:
            core.check_state()
        if not _has_excess(core):
            break
        if delta == 1:
            guard += 1
            if guard > 1:
                raise SolverError("no progress at unit granularity")
        delta = max(1, delta // 2)
    core.stats.wall_ms = (time.perf_counter() - t0) * 1e3
    return core.finalize()


def solve_baseline(inst: CirculationInstance, *, check_invariants: bool = False) -> SolverState:
    """Reference mode: one source per Dijkstra, one Dijkstra per augmentation.

    Each augmentation pairs the largest excess with the largest deficit,
    runs a fresh single-source Dijkstra and pushes one delta along the
    tree path, so it checks the primal-dual phase of ``solve_fast`` with a
    plain successive-shortest-path algorithm.
    """
    return _solve(inst, check_invariants, _baseline_phase)


def _baseline_phase(core: _Core, delta: int):
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
            break
        if not (_ALPHA_DEN * es >= lim and -_ALPHA_DEN * er >= lim):
            break
        _augment_tree(core, _build_tree(core, {s}), r, delta)
        core.stats.augmentations += 1


def solve_fast(inst: CirculationInstance, *, check_invariants: bool = False) -> SolverState:
    """Primal-dual phases: one admissible max flow per Dijkstra.

    Each round of a phase prices the duals with a multi-source Dijkstra
    from every vertex with excess >= 3/4 delta, so every shortest path to
    a sink has reduced cost 0, then pushes a maximum flow of delta-units
    over the zero-reduced-cost residual arcs (``_admissible_max_flow``).
    Rounds repeat until no source or no sink is left; a phase needs one
    round per distinct shortest-path cost.
    """
    return _solve(inst, check_invariants, _fast_phase)


def _fast_phase(core: _Core, delta: int):
    lim = _ALPHA_NUM * delta
    excess = core.excess
    while True:
        sources = [v for v in core.roots if _ALPHA_DEN * excess[v] >= lim]
        sinks = [v for v in core.roots if -_ALPHA_DEN * excess[v] >= lim]
        if not sources or not sinks:
            return
        _build_tree(core, sources)
        core.stats.repairs += 1
        _admissible_max_flow(core, sources, sinks, delta)


def _build_tree(core: _Core, sources) -> list:
    """Lexicographic multi-source Dijkstra; subtracts distances from duals.

    Heap entries are (dist, hops, vertex, arc, dir), with dir 1 for a
    forward arc and -1 for the reverse of one: the order is lexicographic
    in (dist, hops) with ties broken by vertex, then arc.  Settling a
    vertex records its entry and scans the residual arcs leaving it; each
    one has its reduced cost checked before an unsettled end enters the
    heap.  Only cluster roots are ever reached, and every one must be.
    Finally the distances are subtracted from the duals, so every tree
    arc, and every shortest path from a source, has reduced cost 0.
    Returns the entry that settled each vertex (None for absorbed
    members): the shortest-path forest.
    """
    src, dst, cost = core.src, core.dst, core.cost
    flow, pot = core.flow, core.pot
    out_arcs, in_arcs = core.out_arcs, core.in_arcs
    tree: list = [None] * core.inst.n
    heap = [(0, 0, s, _ROOT, 0) for s in sorted(sources)]  # sorted is a heap
    settled = 0
    while heap:
        entry = heappop(heap)
        d, h, x, _, _ = entry
        if tree[x] is not None:
            continue
        tree[x] = entry
        settled += 1
        px = pot[x]
        h += 1
        for a in out_arcs[x]:
            w = dst[a]
            if w == x:
                continue
            rc = cost[a] + pot[w] - px
            if rc < 0:
                raise SolverError(f"negative reduced cost {rc} on arc {a}")
            if tree[w] is None:
                heappush(heap, (d + rc, h, w, a, 1))
        for a in in_arcs[x]:
            if not flow[a]:
                continue
            w = src[a]
            if w == x:
                continue
            rc = pot[w] - px - cost[a]
            if rc < 0:
                raise SolverError(f"negative residual cost {rc} on reverse of arc {a}")
            if tree[w] is None:
                heappush(heap, (d + rc, h, w, a, -1))
    if settled != len(core.roots):
        raise SolverError("residual graph is not connected from the sources")
    for entry in tree:
        if entry is not None and entry[0]:
            pot[entry[2]] -= entry[0]
    core.stats.settles += settled
    return tree


def _augment_tree(core: _Core, tree: list, r: int, delta: int):
    """Push delta from r's tree root down to r."""
    flow, src, dst = core.flow, core.src, core.dst
    v = r
    while True:
        entry = tree[v]
        if entry is None:
            raise SolverError("sink is not attached to the shortest path tree")
        a = entry[3]
        if a == _ROOT:
            break
        if entry[4] == 1:
            flow[a] += delta
            v = src[a]
        else:
            f = flow[a] - delta
            if f < 0:
                raise SolverError("negative flow after augmentation")
            flow[a] = f
            v = dst[a]
    core.excess[v] -= delta
    core.excess[r] += delta


def _admissible_max_flow(core: _Core, sources: list[int], sinks: list[int], delta: int):
    """Dinic max flow in delta-units over the zero-reduced-cost residual arcs.

    A forward arc carries any number of units, the reverse of arc a
    carries flow[a] // delta.  A vertex with excess e may send
    (4e + delta) // (4 delta) units, and one with deficit e may receive as
    many: exactly the pushes that the 3/4-delta gates allow one vertex.

    One pass over the arcs collects the tight ones, in both directions.
    It is the package's second scan of the residual arcs, next to the
    Dijkstra loop of ``_build_tree``, which leaves every arc that carries
    flow tight, so the reverse of a tight arc is admissible while it has
    flow.  Each iteration labels the vertices with their residual hop
    count to the nearest sink that can still receive, by a breadth-first
    search that stops at the first level holding a source that can still
    send, then saturates that level graph by depth-first walks from those
    sources, with a current-arc pointer per vertex.  A walk steps one
    level down per arc, so it only enters vertices that reached a sink
    when the search ran; a vertex found to lead nowhere gets level -1.
    """
    flow, pot, excess = core.flow, core.pot, core.excess
    n = core.inst.n
    unit = _ALPHA_DEN * delta
    adm: list[list] = [[] for _ in range(n)]  # (arc, dir, other end)
    for a, (x, w, c) in enumerate(zip(core.src, core.dst, core.cost)):
        if c + pot[w] == pot[x] and x != w:
            adm[x].append((a, 1, w))
            adm[w].append((a, -1, x))
    while True:
        sources = [s for s in sources if _ALPHA_DEN * excess[s] + delta >= unit]
        sinks = [t for t in sinks if delta - _ALPHA_DEN * excess[t] >= unit]
        if not sources or not sinks:
            return
        level = [-1] * n
        for t in sinks:
            level[t] = 0
        frontier = sinks
        depth = 0
        starts: list[int] = []
        while frontier and not starts:
            depth += 1
            nxt = []
            for w in frontier:
                for a, adir, y in adm[w]:
                    # residual y -> w: the forward arc a, or the reverse of a = (w, y)
                    if level[y] < 0 and (adir < 0 or flow[a]):
                        level[y] = depth
                        nxt.append(y)
                        if _ALPHA_DEN * excess[y] + delta >= unit:
                            starts.append(y)
            frontier = nxt
        if not starts:
            return
        ptr = [0] * n
        for s in starts:
            path: list[tuple] = []  # adm entries from s to x
            x = s
            while True:
                lx = level[x]
                if lx == 0 and delta - _ALPHA_DEN * excess[x] >= unit:
                    units = min(
                        (_ALPHA_DEN * excess[s] + delta) // unit,
                        (delta - _ALPHA_DEN * excess[x]) // unit,
                        *(flow[a] // delta for a, adir, _ in path if adir < 0),
                    )
                    push = units * delta
                    for a, adir, _ in path:
                        flow[a] += adir * push
                    excess[s] -= push
                    excess[x] += push
                    core.stats.augmentations += 1
                    if _ALPHA_DEN * excess[s] + delta < unit:
                        break
                    path = []
                    x = s
                    continue
                if lx > 0:
                    arcs = adm[x]
                    i = ptr[x]
                    while i < len(arcs):
                        a, adir, w = arcs[i]
                        if level[w] == lx - 1 and (adir > 0 or flow[a]):
                            break
                        i += 1
                    ptr[x] = i
                    if i < len(arcs):
                        path.append(arcs[i])
                        x = w
                        continue
                level[x] = -1  # x leads to no sink that can still receive
                if not path:
                    break
                path.pop()
                x = path[-1][2] if path else s
                ptr[x] += 1
