"""Min-cost circulation machinery behind exact agony minimization.

The pipeline: a weighted digraph plus a tier budget k becomes a shifted-arc
graph (``build_convex_instance``) whose arcs are implicit in the graph, k
and the hinge terms; ``uncapacitate`` builds from it, in one pass, an
uncapacitated instance with a negative-bias gadget vertex for each
capacitated arc, which is solved by delta-scaling successive shortest
paths with primal-dual phases (``solve_fast``, the one solver).  Each
phase runs rounds: a multi-source Dijkstra (``_build_tree``) prices the
duals so that every shortest path from a source has reduced cost 0, then
a Dinic max flow over the zero-reduced-cost residual arcs
(``_admissible_max_flow``) pushes delta-units from the sources to the
sinks until no such path is left, and rounds repeat until no source or no
sink is left, so a phase runs one Dijkstra per distinct shortest-path
cost.  The Dijkstra loop and the max flow's pass over the tight arcs are
the only two scans of the residual graph in the package.  The canonical
ranking (``agony.canonical``) reuses the Dijkstra through
``residual_distances`` over each solved state's instance arcs and flow
and a copy of its duals, from all its graph vertices at once.  An arc
whose flow outgrows the scale is contracted (Orlin's strongly polynomial
device): its ends merge into one cluster, the arcs between clusters are
rewritten to run between cluster roots, and the arcs inside one leave the
adjacency lists, so neither scan sees a member.  Optimal integer duals
turn back into a rank assignment via ``extract_ranking``.  Each solved
state keeps its instance, and each instance its shifted graph, so a
``SolverState`` alone gives its ranks, its circulation value and its
optimality certificate; no other module reads the instance layout.  A
solved state keeps flow, duals, counters and the instance's arc arrays
and biases, and no adjacency: the two readers of per-vertex adjacency,
a solve's core and ``residual_distances``, each build it from the arc
arrays in one pass, in increasing arc order, and drop it when they
return.

No floating point anywhere: distances are sums of integer reduced costs,
few of them distinct, so the Dijkstra files vertices in one list per
distance and keeps only the distinct distances in a heap (Dial's bucket
queue), and all comparisons against the 3/4 excess threshold are
cross-multiplied.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .graph import WeightedDigraph
from .penalties import PenaltySpec, hinge_total

# excess threshold alpha = 3/4: a vertex is a source when 4*e(v) >= 3*delta
_ALPHA_NUM = 3
_ALPHA_DEN = 4
# an arc is contracted once its flow reaches _CONTRACT_FACTOR * n * delta
_CONTRACT_FACTOR = 3


class SolverError(RuntimeError):
    """Internal invariant violation; indicates a solver bug, never silent."""


@dataclass(frozen=True)
class ShiftedGraph:
    """Shifted-penalty graph: minimize sum w(e) * max(r(u) - r(v) + s(e), 0).

    Its vertices are those of ``g``, 0..n-1, plus the sentinels ``alpha`` =
    n and ``omega`` = n + 1.  Its arcs are implicit: per edge (u, v, w) of
    ``g`` and hinge term (a, b) of ``terms``, in that order, a capacitated
    arc (u, v) with weight a*w and shift -b; then per vertex v the
    uncapacitated fans (alpha, v) and (v, omega) with shift 0; last the
    uncapacitated arc (omega, alpha) with shift 1-k.  The fans and that arc
    pin every rank into [0, k-1].
    """

    g: WeightedDigraph
    k: int
    terms: tuple[tuple[int, int], ...]  # integer hinge terms (slope, breakpoint)

    @property
    def alpha(self) -> int:
        return self.g.n

    @property
    def omega(self) -> int:
        return self.g.n + 1

    @property
    def n_total(self) -> int:
        return self.g.n + 2

    @property
    def score_offset(self) -> int:
        """sum of s(e)*w(e) over finite arcs with positive shift.

        The optimal shifted score equals this offset minus the minimal cost
        of the uncapacitated circulation.
        """
        return self.g.total_weight * sum(-b * a for a, b in self.terms if b < 0)


def build_convex_instance(g: WeightedDigraph, k: int, penalty: PenaltySpec) -> ShiftedGraph:
    """Encode constrained minimization of a convex hinge-sum penalty.

    Every input edge e becomes one capacitated arc per hinge term, with
    shift -b_i and weight a_i * w(e) (slopes pre-scaled to integers); the
    sentinel fans and the (omega, alpha) arc with shift 1-k enforce the
    cardinality constraint.
    """
    terms = penalty.integer_terms()  # raises UnsupportedPenaltyError if not solvable
    if k < 2:
        raise ValueError(f"cardinality constraint k must be >= 2, got {k}")
    return ShiftedGraph(g, k, terms)


class CirculationInstance:
    """Uncapacitated min-cost circulation with vertex biases.

    The first ``n_total`` vertices are those of the shifted graph ``sg``;
    the rest encode one capacitated arc each (two incoming cost-split arcs,
    bias -capacity).  An instance keeps only its arc arrays, its biases and
    ``sg``: it outlives its solve inside a ``SolverState``, while only a
    solve or a residual Dijkstra reads per-vertex adjacency, so each of
    them builds its own with ``adjacency`` and drops it when it returns.
    """

    __slots__ = ("n", "asrc", "adst", "acost", "bias", "sg")

    def __init__(self, asrc, adst, acost, bias, sg: ShiftedGraph):
        self.n = len(bias)
        self.asrc: list[int] = asrc
        self.adst: list[int] = adst
        self.acost: list[int] = acost
        self.bias: list[int] = bias
        self.sg = sg

    @property
    def m(self) -> int:
        return len(self.asrc)

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """``(out_arcs, in_arcs)``: the arcs leaving and entering each vertex,
        in increasing order, built in one pass over the arcs."""
        out_arcs: list[list[int]] = [[] for _ in range(self.n)]
        in_arcs: list[list[int]] = [[] for _ in range(self.n)]
        for a, (x, w) in enumerate(zip(self.asrc, self.adst)):
            out_arcs[x].append(a)
            in_arcs[w].append(a)
        return out_arcs, in_arcs

    def excess(self, flow: list[int]) -> list[int]:
        """Bias plus inflow minus outflow of every vertex under ``flow``."""
        e = list(self.bias)
        asrc, adst = self.asrc, self.adst
        for a, f in enumerate(flow):
            if f:
                e[adst[a]] += f
                e[asrc[a]] -= f
        return e


def uncapacitate(sg: ShiftedGraph) -> CirculationInstance:
    """Replace each capacitated arc (v, w) by a gadget vertex u.

    Arcs (v, u) with cost max(-s, 0) and (w, u) with cost max(s, 0) meet at
    u with bias -c(e), while b(w) grows by c(e); uncapacitated arcs become
    plain arcs with cost -s.  Biases sum to zero and all costs are >= 0, so
    the zero flow with zero duals is dual-feasible and slack.

    One pass over the edges and terms, then one over the vertices, writes
    the arcs in ``ShiftedGraph`` order: capacitated arc i becomes gadget
    vertex n_total + i with arcs 2i and 2i + 1.  No adjacency is written;
    its readers build it (``CirculationInstance.adjacency``).
    """
    n, alpha, omega = sg.g.n, sg.alpha, sg.omega
    # per hinge term (slope, cost of (v, u), cost of (w, u)), shift s = -b
    splits = [(a, max(b, 0), max(-b, 0)) for a, b in sg.terms]
    asrc, adst, acost = [], [], []
    bias = [0] * (n + 2)
    for v, w, weight in sg.g.edges:
        for slope, cost_v, cost_w in splits:
            u = len(bias)
            asrc += (v, w)
            adst += (u, u)
            acost += (cost_v, cost_w)
            c = slope * weight
            bias.append(-c)
            bias[w] += c
    for v in range(n):
        asrc += (alpha, v)
        adst += (v, omega)
        acost += (0, 0)
    asrc.append(omega)
    adst.append(alpha)
    acost.append(sg.k - 1)
    if sum(bias) != 0:
        raise SolverError("biases do not sum to zero")
    if min(acost) < 0:
        raise SolverError("negative arc cost after uncapacitating")
    return CirculationInstance(asrc, adst, acost, bias, sg)


@dataclass
class SolveStats:
    """Counters of one solve.

    ``augmentations`` counts augmenting paths, each carrying one or more
    delta-units.  ``repairs`` counts the Dijkstra rounds of the
    primal-dual phases, each of which re-prices the duals; the benchmark's
    tracer reads the field under this name.  ``settles`` counts the
    vertices settled by every Dijkstra run.
    """

    outer_phases: int = 0
    augmentations: int = 0
    contractions: int = 0
    repairs: int = 0
    settles: int = 0


@dataclass
class SolverState:
    """Optimal flow and integer duals, with contractions fully unrolled."""

    inst: CirculationInstance
    flow: list[int]
    potentials: list[int]
    stats: SolveStats = field(default_factory=SolveStats)

    def objective(self) -> int:
        acost = self.inst.acost
        return sum(acost[a] * f for a, f in enumerate(self.flow) if f)

    def check_optimality(self) -> bool:
        """Dual feasibility, complementary slackness and flow conservation."""
        if _slack_violation(self.inst, self.flow, self.potentials):
            return False
        if self.flow and min(self.flow) < 0:
            return False
        return all(x == 0 for x in self.inst.excess(self.flow))

    def certifies(self, ranks: list[int]) -> bool:
        """True iff this state is an optimality certificate for ``ranks``.

        Besides ``check_optimality``: the sentinel duals are at most k - 1
        apart, the ranking pi - pi(alpha) of the whole shifted graph scores
        the circulation value, and its graph part is ``ranks``.
        """
        sg = self.inst.sg
        base = self.potentials[sg.alpha]
        full = [p - base for p in self.potentials[: sg.n_total]]
        return (
            self.check_optimality()
            and full[sg.omega] <= sg.k - 1
            and shifted_score(sg, full) == circulation_value(self)
            and full[: sg.g.n] == ranks
        )


def _slack_violation(inst: CirculationInstance, flow: list[int], pot: list[int]) -> str:
    """The first arc with a negative reduced cost, or a positive one under
    flow, described; the empty string when every arc is feasible and slack.
    """
    for a, (x, w, c, f) in enumerate(zip(inst.asrc, inst.adst, inst.acost, flow)):
        rc = c + pot[w] - pot[x]
        if rc < 0:
            return f"negative reduced cost {rc} on arc {a}"
        if f and rc:
            return f"slackness violated on arc {a}"
    return ""


def circulation_value(state: SolverState) -> int:
    """Value of the optimal capacitated circulation (max sum s(e) f(e))."""
    return state.inst.sg.score_offset - state.objective()


def shifted_score(sg: ShiftedGraph, full_ranks: list[int]):
    """Shifted-penalty score of a ranking over all sg vertices.

    ``full_ranks`` must cover the sentinels too.  Infinite-capacity arcs
    must be satisfied exactly; a violation returns None.
    """
    r_alpha, r_omega = full_ranks[sg.alpha], full_ranks[sg.omega]
    if r_omega - r_alpha + 1 - sg.k > 0:
        return None
    if any(not r_alpha <= full_ranks[v] <= r_omega for v in range(sg.g.n)):
        return None
    return hinge_total(sg.g.edges, full_ranks, sg.terms)


def extract_ranking(state: SolverState) -> list[int]:
    """Ranks r(v) = pi(v) - pi(alpha), smallest 0, guaranteed inside [0, k-1].

    First raises pi(alpha) to the smallest graph dual when that is higher.
    A positive smallest rank means every alpha fan arc has positive reduced
    cost, so by slackness no fan arc carries flow, and conservation at the
    sentinels then forces the whole sentinel system flowless; raising
    pi(alpha) therefore keeps dual feasibility and slackness intact.
    """
    sg = state.inst.sg
    pots = state.potentials
    graph_pots = pots[: sg.g.n]
    if graph_pots:
        pots[sg.alpha] = max(pots[sg.alpha], min(graph_pots))
    base = pots[sg.alpha]
    ranks = [p - base for p in graph_pots]
    for v, r in enumerate(ranks):
        if not (0 <= r <= sg.k - 1):
            raise SolverError(f"rank {r} of vertex {v} outside [0, {sg.k - 1}]")
    return ranks


def residual_distances(state: SolverState, starts) -> list[int]:
    """Residual shortest-path distance of every vertex from ``starts``.

    ``starts`` holds (initial distance, vertex) pairs, and arcs are as long
    as their reduced costs under the state's duals.  The Dijkstra of the
    solver runs over the instance's arcs and the state's flow, with no
    solver core, on a copy of the duals, so ``state`` is untouched; duals
    that are not optimal, or a vertex that no start reaches, raise
    ``SolverError``.
    """
    inst = state.inst
    return _build_tree(
        inst.asrc, inst.adst, inst.acost, *inst.adjacency(),
        state.flow, list(state.potentials), starts, inst.n,
    )


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

class _Core:
    """Solver state: flow, duals, contraction bookkeeping.

    Contracting freezes the dual difference d of the absorbed cluster to
    the kept one: absorbed members get the kept ``root`` and d added to
    ``off``, and arcs leaving or entering the absorbed cluster get the kept
    root as their end and d folded into their cost.  So ``src``, ``dst``
    and ``cost`` describe the contracted graph over cluster roots, with
    reduced cost ``cost[a] + pot[dst[a]] - pot[src[a]]``.  Arcs left on
    members would save no work here but make every residual scan map ends
    to roots and add offsets.  Arcs inside one cluster keep src == dst and
    leave the adjacency lists, which hold only arcs between distinct roots.
    ``members`` lists the vertices of each cluster of two or more by root;
    a solve that never contracts builds no list.
    The adjacency lists are the core's own, built from the instance's arcs
    (``CirculationInstance.adjacency``) and dropped with the core, so a
    solved state keeps none.  The arc arrays alias the instance's until
    the first contraction copies them; ``check_state`` and ``finalize``
    work from the instance's costs and the unrolled potentials.
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
        self.out_arcs, self.in_arcs = inst.adjacency()
        self.members: dict[int, list[int]] = {}
        # (arc, members of absorbed cluster, True if arc dst was absorbed)
        self.clog: list[tuple[int, tuple[int, ...], bool]] = []
        # per root, the instance adjacency length summed over its members
        self.size: list[int] = []  # filled at the first contraction
        self.stats = SolveStats()

    def potential(self, x: int) -> int:
        return self.pot[self.root[x]] + self.off[x]

    def dijkstra(self, starts) -> list:
        """``_build_tree`` over the cluster roots; counts their settles."""
        dist = _build_tree(
            self.src, self.dst, self.cost, self.out_arcs, self.in_arcs,
            self.flow, self.pot, starts, len(self.roots),
        )
        self.stats.settles += len(self.roots)
        return dist

    # -- contraction -------------------------------------------------------

    def contract_pass(self, delta: int):
        thr = _CONTRACT_FACTOR * self.inst.n * delta
        if thr < 1:
            thr = 1
        flow = self.flow
        for a, f in enumerate(flow):
            # skip arcs whose ends already share a cluster; self.src is
            # copied at the first contraction, so it is read afresh here
            if f >= thr and self.src[a] != self.dst[a]:
                self._contract_arc(a)

    def _contract_arc(self, a: int):
        """Merge the two clusters at the ends of arc a (distinct roots)."""
        if self.src is self.inst.asrc:  # first contraction: stop aliasing
            self.src, self.dst, self.cost = list(self.src), list(self.dst), list(self.cost)
            self.size = [len(o) + len(i) for o, i in zip(self.out_arcs, self.in_arcs)]
        rs, rd = self.src[a], self.dst[a]
        # keep the root with the bigger adjacency to bound merge work
        size = self.size
        if size[rs] >= size[rd]:
            keep, absorbed, dst_in_absorbed = rs, rd, True
        else:
            keep, absorbed, dst_in_absorbed = rd, rs, False
        size[keep] += size[absorbed]
        members = self.members.pop(absorbed, None) or [absorbed]
        self.clog.append((a, tuple(members), dst_in_absorbed))
        # freeze the current dual relation between the two clusters
        d = self.pot[absorbed] - self.pot[keep]
        root, off = self.root, self.off
        for v in members:
            root[v] = keep
            off[v] += d
        src, dst, cost = self.src, self.dst, self.cost
        out_arcs, in_arcs = self.out_arcs, self.in_arcs
        for b in out_arcs[absorbed]:
            src[b] = keep
            cost[b] -= d
        for b in in_arcs[absorbed]:
            dst[b] = keep
            cost[b] += d
        self.excess[keep] += self.excess[absorbed]
        # arcs between the two clusters now run from keep to keep: drop them
        out_arcs[keep] = [b for b in out_arcs[keep] + out_arcs[absorbed] if dst[b] != keep]
        in_arcs[keep] = [b for b in in_arcs[keep] + in_arcs[absorbed] if src[b] != keep]
        out_arcs[absorbed] = []
        in_arcs[absorbed] = []
        self.members.setdefault(keep, [keep]).extend(members)
        self.roots.discard(absorbed)
        self.stats.contractions += 1

    # -- invariants ---------------------------------------------------------

    def check_state(self):
        inst = self.inst
        fault = _slack_violation(inst, self.flow, [self.potential(x) for x in range(inst.n)])
        if fault:
            raise SolverError(fault)
        pots = [self.pot[r] for r in self.roots]
        if max(pots) - min(pots) > inst.sg.k:
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
# delta-scaling loop
# ---------------------------------------------------------------------------

def solve_fast(inst: CirculationInstance, *, check_invariants: bool = False) -> SolverState:
    """Delta-scaling successive shortest paths with primal-dual phases.

    Each outer phase contracts the arcs whose flow reached the contraction
    threshold, then runs rounds until no source (excess >= 3/4 delta) or
    no sink (deficit >= 3/4 delta) is left: a multi-source Dijkstra from
    the sources prices the duals, so every shortest path to a sink has
    reduced cost 0, then a maximum flow of delta-units crosses the
    zero-reduced-cost residual arcs (``_admissible_max_flow``).  A phase
    needs one round per distinct shortest-path cost; delta halves until
    every excess is gone.
    """
    core = _Core(inst)
    excess = core.excess
    delta = _initial_delta(core)
    unit_phases = 0  # phases at delta 1: the second must leave no excess
    while _has_excess(core):
        if unit_phases == 2:
            raise SolverError("no progress at unit granularity")
        core.stats.outer_phases += 1
        core.contract_pass(delta)
        lim = _ALPHA_NUM * delta
        while True:
            sources = [v for v in core.roots if _ALPHA_DEN * excess[v] >= lim]
            sinks = [v for v in core.roots if -_ALPHA_DEN * excess[v] >= lim]
            if not sources or not sinks:
                break
            core.dijkstra([(0, v) for v in sources])
            core.stats.repairs += 1
            _admissible_max_flow(core, sources, sinks, delta)
        if check_invariants:
            core.check_state()
        if delta == 1:
            unit_phases += 1
        delta = max(1, delta // 2)
    return core.finalize()


def _build_tree(src, dst, cost, out_arcs, in_arcs, flow, pot, starts, reach: int):
    """Multi-source Dijkstra over a bucket queue; subtracts distances from duals.

    The residual graph is given by its arc arrays and adjacency lists, which
    hold only arcs between distinct vertices, and by ``flow``; arcs are as
    long as their reduced costs under ``pot``.  ``starts`` holds (initial
    distance, vertex) pairs.  Reduced costs are small integers, so a whole
    run sees few distinct distances: bare vertex ids wait in one list per
    tentative distance, a heap holds the distinct distances only, and a
    zero-cost arc appends to the list being scanned.  A vertex is filed
    again only when its tentative distance falls, so an entry whose
    distance is no longer the vertex's is skipped.  Settling a vertex scans
    the residual arcs leaving it, each with its reduced cost checked.
    Exactly ``reach`` vertices must be reached.  Finally the distances are
    subtracted from the duals, so every shortest path from a start has
    reduced cost 0.  Returns each vertex's distance, None where not
    reached.
    """
    dist: list = [None] * len(pot)
    buckets: dict[int, list[int]] = {}
    for d, s in starts:
        ds = dist[s]
        if ds is None or d < ds:
            dist[s] = d
            buckets.setdefault(d, []).append(s)
    keys = sorted(buckets)  # a sorted list is a heap
    settled = 0
    while keys:
        d = heappop(keys)
        bucket = buckets.pop(d)
        for x in bucket:  # grows while scanned
            if dist[x] != d:
                continue  # settled earlier, at a smaller distance
            settled += 1
            px = pot[x]
            for a in out_arcs[x]:
                w = dst[a]
                rc = cost[a] + pot[w] - px
                if rc < 0:
                    raise SolverError(f"negative reduced cost {rc} on arc {a}")
                dw = dist[w]
                nd = d + rc
                if dw is None or nd < dw:
                    dist[w] = nd
                    if not rc:
                        bucket.append(w)
                    elif nd in buckets:
                        buckets[nd].append(w)
                    else:
                        buckets[nd] = [w]
                        heappush(keys, nd)
            for a in in_arcs[x]:
                if not flow[a]:
                    continue
                w = src[a]
                rc = pot[w] - px - cost[a]
                if rc < 0:
                    raise SolverError(f"negative residual cost {rc} on reverse of arc {a}")
                dw = dist[w]
                nd = d + rc
                if dw is None or nd < dw:
                    dist[w] = nd
                    if not rc:
                        bucket.append(w)
                    elif nd in buckets:
                        buckets[nd].append(w)
                    else:
                        buckets[nd] = [w]
                        heappush(keys, nd)
    if settled != reach:
        raise SolverError("residual graph is not connected from the starts")
    for x, d in enumerate(dist):
        if d:
            pot[x] -= d
    return dist


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
