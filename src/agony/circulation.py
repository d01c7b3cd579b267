"""Min-cost circulation machinery behind exact agony minimization.

The pipeline: a weighted digraph plus a tier budget k becomes a shifted-arc
graph (``build_agony_instance`` / ``build_convex_instance``), capacitated
arcs are replaced by negative-bias gadget vertices (``uncapacitate``), and
the resulting uncapacitated instance is solved by delta-scaling successive
shortest paths.  One scaling loop (``_solve``) runs the phases for both
solvers: ``solve_fast`` grows one multi-source shortest-path tree per phase
and repairs it dynamically after each augmentation, while ``solve_baseline``
is the single-source mode of the same tree code that rebuilds the tree for
every augmentation.  Building and repairing a tree run one region-restricted
Dijkstra loop (``_settle_region``), the only code in the package that scans
the residual arcs leaving a vertex: a build's region is the whole instance,
a repair's is the subtrees cut off by an augmentation, marked by an epoch
stamp.  The canonical ranking (``agony.canonical``) reuses it through
``_build_tree`` from the alpha sentinel on a copy of a solved state.  An
arc whose flow outgrows the scale is contracted (Orlin's strongly
polynomial device): its ends merge into one cluster and the arcs are
rewritten to run between cluster roots, so the loop never sees a member.
Optimal integer duals turn back into a rank assignment via
``extract_ranking``.

No floating point anywhere: distances are lexicographic (cost, hops) pairs,
which is equivalent to perturbing every arc by an epsilon smaller than 1/n,
and all comparisons against the 3/4 excess threshold are cross-multiplied.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
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
    outer_phases: int = 0
    augmentations: int = 0
    contractions: int = 0
    repairs: int = 0
    settles: int = 0  # vertices settled by tree builds and repairs
    # region_log2[b]: repairs whose region has b == len(region).bit_length()
    region_log2: list[int] = field(default_factory=list)
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

_UNSET = -2
_ROOT = -1


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

class _Tree:
    """Shortest-path forest over cluster roots, lexicographic (cost, hops).

    ``mark`` holds epoch stamps: a vertex stamped ``epoch`` belongs to the
    region of the current build or repair and is not settled yet, one
    stamped ``epoch + 1`` was settled by it.  A fresh tree stamps every
    vertex with epoch 0, and each repair advances the epoch by two, so no
    per-repair set or dict is needed.  ``children`` gets a set for each
    vertex when it is settled.
    """

    __slots__ = ("par_arc", "par_dir", "par_vert", "hops", "children", "mark", "epoch")

    def __init__(self, n: int):
        self.par_arc = [_UNSET] * n
        self.par_dir = [0] * n
        self.par_vert = [_UNSET] * n
        self.hops = [0] * n
        self.children: list[Optional[set]] = [None] * n
        self.mark = [0] * n
        self.epoch = 0


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
    """Reference mode: one source per tree, tree rebuilt every augmentation.

    Each augmentation pairs the largest excess with the largest deficit
    and runs a fresh single-source Dijkstra, so the result checks the tree
    repair of ``solve_fast`` against a rebuild from scratch.
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
    """Multi-source variant: one tree per phase, repaired after each push.

    Sources are all vertices with excess >= 3/4 delta; after every
    augmentation the affected subtrees (children of deleted residual arcs
    and of exhausted sources) are re-rooted by a bounded Dijkstra seeded
    from the unaffected frontier.
    """
    return _solve(inst, check_invariants, _fast_phase)


def _fast_phase(core: _Core, delta: int):
    lim = _ALPHA_NUM * delta
    sources = {v for v in core.roots if _ALPHA_DEN * core.excess[v] >= lim}
    sinks = [v for v in core.roots if -_ALPHA_DEN * core.excess[v] >= lim]
    if sources and sinks:
        tree = _build_tree(core, sources)
        sink_heap = [(core.excess[v], v) for v in sinks]
        heapify(sink_heap)
        sink_set = set(sinks)
        while sources and sink_set and sink_heap:
            ev, r = heappop(sink_heap)
            if r not in sink_set or core.excess[r] != ev:
                continue
            seeds = _augment_tree(core, tree, r, delta)
            core.stats.augmentations += 1
            sroot = seeds.pop()  # last entry is the drained root
            if _ALPHA_DEN * core.excess[sroot] < lim:
                sources.discard(sroot)
                seeds.append(sroot)
            if -_ALPHA_DEN * core.excess[r] < lim:
                sink_set.discard(r)
            else:
                heappush(sink_heap, (core.excess[r], r))
            if not sources:
                break
            if seeds:
                _repair_tree(core, tree, seeds)
                core.stats.repairs += 1


def _build_tree(core: _Core, sources: set) -> _Tree:
    """Lexicographic multi-source Dijkstra; subtracts distances from duals.

    The region is the whole instance: a fresh tree marks every vertex with
    epoch 0, and only cluster roots are ever reached.
    """
    tree = _Tree(core.inst.n)
    heap = [(0, 0, s, _ROOT, 0, _ROOT) for s in sorted(sources)]  # sorted is a heap
    if _settle_region(core, tree, heap) != len(core.roots):
        raise SolverError("residual graph is not connected from the sources")
    return tree


def _augment_tree(core: _Core, tree: _Tree, r: int, delta: int) -> list[int]:
    """Push delta from r's tree root down to r.

    Returns the repair seeds (children whose parent arc got deleted), with
    the drained root appended last so the caller can pop it off.
    """
    flow = core.flow
    seeds: list[int] = []
    v = r
    while True:
        a = tree.par_arc[v]
        if a == _ROOT:
            break
        if a == _UNSET:
            raise SolverError("sink is not attached to the shortest path tree")
        if tree.par_dir[v] == 1:
            flow[a] += delta
        else:
            f = flow[a] - delta
            if f < 0:
                raise SolverError("negative flow after augmentation")
            flow[a] = f
            if f == 0:
                seeds.append(v)  # the residual arc feeding v vanished
        v = tree.par_vert[v]
    core.excess[v] -= delta
    core.excess[r] += delta
    seeds.append(v)
    return seeds


def _repair_tree(core: _Core, tree: _Tree, seeds: list[int]):
    """Re-root the subtrees below the seeds from the unaffected frontier.

    Inserted residual arcs never need repair (they run child to parent and
    are tight); only deletions and source removals invalidate distances,
    and those can only grow.  The region (every subtree below a seed) is
    stamped with a fresh epoch, each residual arc entering it from a
    settled vertex outside seeds the heap at its reduced cost, and the
    region is re-settled by the same Dijkstra loop that builds the tree.
    """
    mark, children, par_vert = tree.mark, tree.children, tree.par_vert
    ep = tree.epoch = tree.epoch + 2
    region: list[int] = []
    stack = list(seeds)
    while stack:
        x = stack.pop()
        if mark[x] != ep:
            mark[x] = ep
            region.append(x)
            stack.extend(children[x])
    for s in seeds:
        p = par_vert[s]
        if p >= 0 and mark[p] != ep:
            children[p].discard(s)
    hist = core.stats.region_log2
    b = len(region).bit_length()
    while len(hist) <= b:
        hist.append(0)
    hist[b] += 1

    src, dst, cost = core.src, core.dst, core.cost
    flow, pot, hops = core.flow, core.pot, tree.hops
    heap = []
    for x in region:
        px = pot[x]
        for a in core.in_arcs[x]:
            u = src[a]
            if u == x or mark[u] == ep:
                continue
            rc = cost[a] + px - pot[u]
            if rc < 0:
                raise SolverError(f"negative reduced cost {rc} on arc {a}")
            heap.append((rc, hops[u] + 1, x, a, 1, u))
        for a in core.out_arcs[x]:
            if not flow[a]:
                continue
            u = dst[a]
            if u == x or mark[u] == ep:
                continue
            rc = px - pot[u] - cost[a]
            if rc < 0:
                raise SolverError(f"negative residual cost {rc} on reverse of arc {a}")
            heap.append((rc, hops[u] + 1, x, a, -1, u))
    heapify(heap)
    if _settle_region(core, tree, heap) != len(region):
        raise SolverError("affected region disconnected during tree repair")


def _settle_region(core: _Core, tree: _Tree, heap: list) -> int:
    """Settle every vertex stamped ``tree.epoch`` from the seeded heap.

    Heap entries are (dist, hops, vertex, arc, dir, parent): the order is
    lexicographic in (dist, hops) with ties broken by vertex, then arc.
    Settling stamps ``tree.epoch + 1``, records the tree edge and scans the
    residual arcs leaving the vertex; each one has its reduced cost checked
    before the region filter decides whether it enters the heap.  Finally
    the distances are subtracted from the duals.  Returns the number of
    vertices settled.
    """
    src, dst, cost = core.src, core.dst, core.cost
    flow, pot = core.flow, core.pot
    out_arcs, in_arcs = core.out_arcs, core.in_arcs
    mark, children = tree.mark, tree.children
    par_arc, par_dir, par_vert, hops = tree.par_arc, tree.par_dir, tree.par_vert, tree.hops
    ep = tree.epoch
    done = ep + 1
    order = []
    while heap:
        entry = heappop(heap)
        d, h, x, a, adir, pv = entry
        if mark[x] != ep:
            continue
        mark[x] = done
        order.append(entry)
        par_arc[x] = a
        par_dir[x] = adir
        par_vert[x] = pv
        hops[x] = h
        children[x] = set()
        if pv != _ROOT:
            children[pv].add(x)
        px = pot[x]
        h += 1
        for a in out_arcs[x]:
            w = dst[a]
            if w == x:
                continue
            rc = cost[a] + pot[w] - px
            if rc < 0:
                raise SolverError(f"negative reduced cost {rc} on arc {a}")
            if mark[w] == ep:
                heappush(heap, (d + rc, h, w, a, 1, x))
        for a in in_arcs[x]:
            if not flow[a]:
                continue
            w = src[a]
            if w == x:
                continue
            rc = pot[w] - px - cost[a]
            if rc < 0:
                raise SolverError(f"negative residual cost {rc} on reverse of arc {a}")
            if mark[w] == ep:
                heappush(heap, (d + rc, h, w, a, -1, x))
    for entry in order:
        d = entry[0]
        if d:
            pot[entry[2]] -= d
    core.stats.settles += len(order)
    return len(order)
