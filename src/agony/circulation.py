"""Min-cost circulation machinery behind exact agony minimization.

The pipeline: a weighted digraph plus a tier budget k becomes a shifted-arc
graph (``build_convex_instance``) whose arcs are implicit in the graph, k
and the hinge terms; ``uncapacitate`` writes them out, in one pass, as the
arc arrays of a capacitated min-cost circulation over the same n + 2
vertices (``CirculationInstance``).  ``solve_fast``, the one solver, runs
capacity scaling on it (Edmonds and Karp 1972; Ahuja, Magnanti and Orlin,
*Network Flows*, section 10.2).  Every arc of negative cost starts
saturated.  Delta runs through the powers of two from the largest one not
above the largest capacity U down to 1, so a solve runs floor(log2 U) + 1
delta-phases: weakly polynomial, one phase at unit weights and 21 at
weights up to 10^6 under slopes up to 2.  A phase first saturates every
arc whose residual capacity, forward or reverse, is at least delta and
whose reduced cost is negative, then runs rounds over the delta-residual
arcs until no vertex has an excess of delta or none a deficit of delta: a
multi-source Dijkstra (``_build_tree``) prices the duals so that every
shortest path from a source has reduced cost 0, then a Dinic max flow over
the zero-reduced-cost residual arcs (``_admissible_max_flow``) pushes at
least delta per path from the sources to the sinks until no such path is
left.  So a phase runs one Dijkstra per distinct shortest-path cost.  An
arc's residual capacity is cap - flow forward (unbounded when it has no
capacity) and its flow in reverse.  The phase's saturating pass, the
Dijkstra loop and the max flow's pass over the tight arcs are the only
scans of the residual graph in the package.  The canonical ranking
(``agony.canonical``) reuses the Dijkstra through ``residual_distances``
over each solved state's instance arcs and flow and a copy of its duals,
from all its graph vertices at once.  Optimal integer duals turn back into
a rank assignment via ``extract_ranking``.  Each solved state keeps its
instance, and each instance its shifted graph, so a ``SolverState`` alone
gives its ranks, its circulation value and its optimality certificate; no
other module reads the instance layout.  A solved state keeps flow, duals,
counters and the instance's arc arrays, and no adjacency: the two readers
of per-vertex adjacency, a solve's core and ``residual_distances``, each
build it from the arc arrays in one pass, in increasing arc order, and
drop it when they return.

No floating point anywhere: capacities are integers or None, and
distances are sums of integer reduced costs, few of them distinct, so the
Dijkstra files vertices in one list per distance and keeps only the
distinct distances in a heap (Dial's bucket queue).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .graph import WeightedDigraph
from .penalties import PenaltySpec, hinge_total


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
    """Capacitated min-cost circulation over the shifted graph's vertices.

    Arc a runs from ``asrc[a]`` to ``adst[a]`` with cost ``acost[a]``, the
    negated shift, and capacity ``acap[a]``: an int, or None for an
    uncapacitated arc.  No vertex has a supply or a demand.  An instance
    keeps only its arc arrays and ``sg``: it outlives its solve inside a
    ``SolverState``, while only a solve or a residual Dijkstra reads
    per-vertex adjacency, so each of them builds its own with
    ``adjacency`` and drops it when it returns.
    """

    __slots__ = ("n", "asrc", "adst", "acost", "acap", "sg")

    def __init__(self, asrc, adst, acost, acap, sg: ShiftedGraph):
        self.n = sg.n_total
        self.asrc: list[int] = asrc
        self.adst: list[int] = adst
        self.acost: list[int] = acost
        self.acap: list = acap
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
        """Inflow minus outflow of every vertex under ``flow``."""
        e = [0] * self.n
        asrc, adst = self.asrc, self.adst
        for a, f in enumerate(flow):
            if f:
                e[adst[a]] += f
                e[asrc[a]] -= f
        return e


def uncapacitate(sg: ShiftedGraph) -> CirculationInstance:
    """Write the shifted graph's arcs out as a capacitated instance.

    In ``ShiftedGraph`` order: per edge (v, w, weight) and hinge term
    (a, b), the arc (v, w) with cost b and capacity a * weight; per vertex
    v the fans (alpha, v) and (v, omega) with cost 0; last (omega, alpha)
    with cost k - 1; the fans and that arc have no capacity.  One pass over
    the edges and terms, then one over the vertices; no adjacency is
    written, its readers build it (``CirculationInstance.adjacency``).

    The name is that of the gadget construction this stage once was.  The
    benchmark's tracer resolves the instance-build stage as
    ``agony.exact.uncapacitate`` (``perfbench/spans.py``), so the name
    stays until that tracer is next changed.
    """
    n, alpha, omega = sg.g.n, sg.alpha, sg.omega
    edges, terms = sg.g.edges, sg.terms
    asrc = [v for v, _, _ in edges for _ in terms]
    adst = [w for _, w, _ in edges for _ in terms]
    acost = [b for _ in edges for _, b in terms]
    acap: list = [a * weight for _, _, weight in edges for a, _ in terms]
    for v in range(n):
        asrc += (alpha, v)
        adst += (v, omega)
    asrc.append(omega)
    adst.append(alpha)
    acost += [0] * (2 * n) + [sg.k - 1]
    acap += [None] * (2 * n + 1)
    return CirculationInstance(asrc, adst, acost, acap, sg)


@dataclass
class SolveStats:
    """Counters of one solve.

    ``outer_phases`` counts the delta-phases.  ``augmentations`` counts
    augmenting paths, each carrying at least delta.  ``repairs``
    counts the Dijkstra rounds of the phases, each of which re-prices the
    duals; the benchmark's tracer reads the field under this name.
    ``settles`` counts the vertices settled by every Dijkstra run.
    ``contractions`` is always 0: the solver contracts no arcs, and the
    field stays only because the benchmark's tracer reads it, until that
    tracer is next changed.
    """

    outer_phases: int = 0
    augmentations: int = 0
    contractions: int = 0
    repairs: int = 0
    settles: int = 0


@dataclass
class SolverState:
    """Optimal flow and integer duals of an instance."""

    inst: CirculationInstance
    flow: list[int]
    potentials: list[int]
    stats: SolveStats = field(default_factory=SolveStats)

    def objective(self) -> int:
        acost = self.inst.acost
        return sum(acost[a] * f for a, f in enumerate(self.flow) if f)

    def check_optimality(self) -> bool:
        """Capacities, flow conservation, and no residual arc of negative
        reduced cost (dual feasibility and complementary slackness)."""
        inst, flow = self.inst, self.flow
        if any(f < 0 or (c is not None and f > c) for f, c in zip(flow, inst.acap)):
            return False
        if _slack_violation(inst, flow, self.potentials, 1):
            return False
        return not any(inst.excess(flow))

    def certifies(self, ranks: list[int]) -> bool:
        """True iff this state is an optimality certificate for ``ranks``.

        Besides ``check_optimality``: the sentinel duals are at most k - 1
        apart, the ranking pi - pi(alpha) of the whole shifted graph scores
        the circulation value, and its graph part is ``ranks``.
        """
        sg = self.inst.sg
        base = self.potentials[sg.alpha]
        full = [p - base for p in self.potentials]
        return (
            self.check_optimality()
            and full[sg.omega] <= sg.k - 1
            and shifted_score(sg, full) == circulation_value(self)
            and full[: sg.g.n] == ranks
        )


def _slack_violation(inst: CirculationInstance, flow: list[int], pot: list[int], delta: int) -> str:
    """The first arc with a residual capacity of at least ``delta``, forward
    or reverse, at a negative reduced cost, described; the empty string
    when there is none."""
    for a, (x, w, c, cap, f) in enumerate(zip(inst.asrc, inst.adst, inst.acost, inst.acap, flow)):
        rc = c + pot[w] - pot[x]
        if rc < 0 and (cap is None or cap - f >= delta):
            return f"negative reduced cost {rc} on arc {a}"
        if rc > 0 and f >= delta:
            return f"negative reduced cost {-rc} on the reverse of arc {a}"
    return ""


def circulation_value(state: SolverState) -> int:
    """Value of the optimal capacitated circulation (max sum s(e) f(e))."""
    return -state.objective()


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
        inst.asrc, inst.adst, inst.acost, inst.acap, *inst.adjacency(),
        state.flow, list(state.potentials), starts, 1,
    )


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

class _Core:
    """Solver state: flow, duals, excesses and the adjacency they are scanned by.

    Every arc of negative cost starts saturated, so under the zero duals no
    residual arc has a negative reduced cost.  The adjacency lists are the
    core's own, built from the instance's arcs
    (``CirculationInstance.adjacency``) and dropped with the core, so a
    solved state keeps none.
    """

    def __init__(self, inst: CirculationInstance):
        self.inst = inst
        self.flow = [cap if c < 0 else 0 for c, cap in zip(inst.acost, inst.acap)]
        self.pot = [0] * inst.n
        self.excess = inst.excess(self.flow)
        self.out_arcs, self.in_arcs = inst.adjacency()
        self.stats = SolveStats()

    def saturate(self, delta: int):
        """Saturate every arc, forward or reverse, whose residual capacity is
        at least ``delta`` and whose reduced cost is negative."""
        inst, flow, pot, excess = self.inst, self.flow, self.pot, self.excess
        for a, (x, w, c, cap) in enumerate(zip(inst.asrc, inst.adst, inst.acost, inst.acap)):
            rc = c + pot[w] - pot[x]
            if rc < 0:
                if cap is None:
                    raise SolverError(f"negative reduced cost {rc} on uncapacitated arc {a}")
                push = cap - flow[a]
                if push < delta:
                    continue
            elif rc > 0 and flow[a] >= delta:
                push = -flow[a]
            else:
                continue
            flow[a] += push
            excess[x] -= push
            excess[w] += push

    def dijkstra(self, starts, delta: int) -> list:
        """``_build_tree`` over the delta-residual arcs; counts the settles."""
        inst = self.inst
        dist = _build_tree(
            inst.asrc, inst.adst, inst.acost, inst.acap, self.out_arcs, self.in_arcs,
            self.flow, self.pot, starts, delta,
        )
        self.stats.settles += inst.n
        return dist

    def check_state(self, delta: int):
        inst = self.inst
        fault = _slack_violation(inst, self.flow, self.pot, delta)
        if fault:
            raise SolverError(fault)
        if max(self.pot) - min(self.pot) > inst.sg.k - 1:
            raise SolverError("dual spread exceeds k - 1")

    def finalize(self) -> SolverState:
        if any(self.inst.excess(self.flow)):
            raise SolverError("flow conservation violated after the last phase")
        return SolverState(self.inst, self.flow, self.pot, self.stats)


# ---------------------------------------------------------------------------
# capacity-scaling loop
# ---------------------------------------------------------------------------

def solve_fast(inst: CirculationInstance, *, check_invariants: bool = False) -> SolverState:
    """Capacity scaling with primal-dual phases.

    Each delta-phase saturates the delta-residual arcs of negative reduced
    cost, then runs rounds until no source (excess >= delta) or no sink
    (deficit >= delta) is left: a multi-source Dijkstra from the sources
    over the delta-residual arcs prices the duals, so every shortest path
    to a sink has reduced cost 0, then a maximum flow of at least delta
    per path crosses the zero-reduced-cost delta-residual arcs
    (``_admissible_max_flow``).  A phase needs one round per distinct
    shortest-path cost; delta halves down to 1, whose phase leaves no
    excess, since excesses sum to zero.
    """
    core = _Core(inst)
    excess, stats = core.excess, core.stats
    vertices = range(inst.n)
    # the largest power of two not above the largest capacity (all are >= 1)
    delta = 1 << (max((c for c in inst.acap if c is not None), default=1).bit_length() - 1)
    while True:
        stats.outer_phases += 1
        core.saturate(delta)
        while True:
            sources = [v for v in vertices if excess[v] >= delta]
            sinks = [v for v in vertices if excess[v] <= -delta]
            if not sources or not sinks:
                break
            core.dijkstra([(0, v) for v in sources], delta)
            stats.repairs += 1
            _admissible_max_flow(core, sources, sinks, delta)
        if check_invariants:
            core.check_state(delta)
        if delta == 1:
            return core.finalize()
        delta //= 2


def _build_tree(src, dst, cost, cap, out_arcs, in_arcs, flow, pot, starts, delta: int):
    """Multi-source Dijkstra over a bucket queue; subtracts distances from duals.

    The residual graph is given by its arc arrays, capacities (None for an
    uncapacitated arc) and adjacency lists, and by ``flow``; it holds the
    arcs whose residual capacity is at least ``delta``, cap - flow forward
    and flow in reverse, each as long as its reduced cost under ``pot``.
    ``starts`` holds (initial distance, vertex) pairs.  Reduced costs are
    small integers, so a whole run sees few distinct distances: bare vertex
    ids wait in one list per tentative distance, a heap holds the distinct
    distances only, and a zero-cost arc appends to the list being scanned.
    A vertex is filed again only when its tentative distance falls, so an
    entry whose distance is no longer the vertex's is skipped.  Settling a
    vertex scans the residual arcs leaving it, each with its reduced cost
    checked.  Every vertex must be reached.  Finally the distances are
    subtracted from the duals, so every shortest path from a start has
    reduced cost 0.  Returns each vertex's distance.
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
                c = cap[a]
                if c is not None and c - flow[a] < delta:
                    continue
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
                if flow[a] < delta:
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
    if settled != len(pot):
        raise SolverError("residual graph is not connected from the starts")
    for x, d in enumerate(dist):
        if d:
            pot[x] -= d
    return dist


def _admissible_max_flow(core: _Core, sources: list[int], sinks: list[int], delta: int):
    """Dinic max flow over the zero-reduced-cost delta-residual arcs.

    An arc may carry a push while its residual capacity in that direction
    is at least delta: cap - flow forward (always, when it has no
    capacity), flow in reverse.  A source sends while its excess is at
    least delta, a sink receives while its deficit is, and a push moves
    all that the source's excess, the sink's deficit and the path's
    residual capacities allow, so at least delta.

    One pass over the arcs collects the tight ones, of reduced cost 0, in
    both directions: each direction of a tight arc has reduced cost 0, so
    these are all the admissible residual arcs, each usable while its
    residual capacity in that direction is at least delta.  Each iteration
    labels the vertices with their residual hop count to the nearest sink
    that can still receive, by a breadth-first search that stops at the
    first level holding a source that can still send, then saturates that
    level graph by depth-first walks from those sources, with a
    current-arc pointer per vertex.  A walk steps one level down per arc,
    so it only enters vertices that reached a sink when the search ran; a
    vertex found to lead nowhere gets level -1.
    """
    flow, pot, excess = core.flow, core.pot, core.excess
    inst = core.inst
    cap, n = inst.acap, inst.n
    adm: list[list] = [[] for _ in range(n)]  # (arc, dir, other end)
    for a, (x, w, c) in enumerate(zip(inst.asrc, inst.adst, inst.acost)):
        if c + pot[w] == pot[x]:
            adm[x].append((a, 1, w))
            adm[w].append((a, -1, x))
    while True:
        sources = [s for s in sources if excess[s] >= delta]
        sinks = [t for t in sinks if -excess[t] >= delta]
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
                    # residual y -> w: the reverse of a = (w, y), or the forward arc a
                    if level[y] >= 0:
                        continue
                    if adir > 0:
                        if flow[a] < delta:
                            continue
                    else:
                        c = cap[a]
                        if c is not None and c - flow[a] < delta:
                            continue
                    level[y] = depth
                    nxt.append(y)
                    if excess[y] >= delta:
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
                if lx == 0 and -excess[x] >= delta:
                    room = min(excess[s], -excess[x])
                    for a, adir, _ in path:
                        if adir < 0:
                            room = min(room, flow[a])
                        elif cap[a] is not None:
                            room = min(room, cap[a] - flow[a])
                    for a, adir, _ in path:
                        flow[a] += adir * room
                    excess[s] -= room
                    excess[x] += room
                    core.stats.augmentations += 1
                    if excess[s] < delta:
                        break
                    path = []
                    x = s
                    continue
                if lx > 0:
                    arcs = adm[x]
                    i = ptr[x]
                    while i < len(arcs):
                        a, adir, w = arcs[i]
                        if level[w] == lx - 1:
                            if adir < 0:
                                if flow[a] >= delta:
                                    break
                            else:
                                c = cap[a]
                                if c is None or c - flow[a] >= delta:
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
