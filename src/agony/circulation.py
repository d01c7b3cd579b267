"""Min-cost circulation machinery behind exact agony minimization.

The pipeline: a weighted digraph plus a tier budget k becomes a shifted-arc
graph (``build_convex_instance``) whose arcs are implicit in the graph, k
and the hinge terms; ``uncapacitate`` writes them out, in one pass, as a
capacitated min-cost circulation over the same n + 2 vertices
(``CirculationInstance``), each arc a as a pair of residual arcs (Ahuja,
Magnanti and Orlin, *Network Flows*, section 2.4): forward e = 2a, with
residual capacity cap - flow (None, unbounded, when uncapacitated), and
reverse e ^ 1 = 2a + 1, with residual capacity flow.  So every scan reads
a residual arc the same way, whatever its direction.  ``solve_fast``, the
one solver, runs capacity scaling on it (Edmonds and Karp 1972; *Network
Flows*, section 10.2).  Every arc of negative cost starts saturated.
Delta runs through the powers of two from the largest one not above the
largest capacity U down to 1, so a solve runs floor(log2 U) + 1
delta-phases: weakly polynomial, one phase at unit weights and 21 at
weights up to 10^6 under slopes up to 2.  A phase first saturates every
residual arc whose residual capacity is at least delta and whose reduced
cost is negative, then runs rounds over the delta-residual arcs until no
vertex has an excess of delta or none a deficit of delta: a multi-source
Dijkstra (``_build_tree``) prices the duals so that every shortest path
from a source has reduced cost 0, then a Dinic max flow over the
zero-reduced-cost residual arcs (``_admissible_max_flow``) pushes at
least delta per path from the sources to the sinks until no such path is
left.  So a phase runs one Dijkstra per distinct shortest-path cost.  The
phase's saturating pass, the Dijkstra loop and the max flow's pass over
the tight arcs are the only scans of the residual graph in the package.
The canonical ranking (``agony.canonical``) reuses the Dijkstra through
``residual_distances`` from all of a solved state's graph vertices at
once.  Optimal integer duals turn back into a rank assignment via
``extract_ranking``.  Each solved state keeps its instance, and each
instance its shifted graph, so a ``SolverState`` alone gives its ranks,
its circulation value and its optimality certificate; no other module
reads the instance layout.

No floating point anywhere: capacities are integers or None, and
distances are sums of integer reduced costs, few of them distinct, so the
Dijkstra files vertices in one list per distance and keeps only the
distinct distances in a heap (Dial's bucket queue).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice

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

    Arc a is the pair of residual arcs e = 2a, forward, and e ^ 1 = 2a + 1,
    reverse: e runs from ``head[e ^ 1]`` to ``head[e]`` at cost ``cost[e]``,
    cost[2a] = -cost[2a + 1] being the arc's negated shift, and arc a has
    capacity ``cap[a]``, an int or None when uncapacitated.  No vertex has
    a supply or a demand.  An instance outlives its solve inside a
    ``SolverState``, so a solve and a residual Dijkstra each build their
    residual view (``_residual``) and drop it when they return.
    """

    __slots__ = ("n", "head", "cost", "cap", "sg")

    def __init__(self, head, cost, cap, sg: ShiftedGraph):
        self.n = sg.n_total
        self.head: list[int] = head
        self.cost: list[int] = cost
        self.cap: list = cap
        self.sg = sg

    @property
    def m(self) -> int:
        return len(self.cap)

    def excess(self, flow: list[int]) -> list[int]:
        """Inflow minus outflow of every vertex under ``flow``, one entry per arc."""
        e = [0] * self.n
        h = iter(self.head)
        for w, x, f in zip(h, h, flow):
            if f:
                e[w] += f
                e[x] -= f
        return e


def _arcs(inst: CirculationInstance):
    """(head, tail, cost) of every arc a, read off its forward residual arc 2a."""
    h = iter(inst.head)
    return zip(h, h, islice(inst.cost, 0, None, 2))


def _residual(inst: CirculationInstance, flow: list[int]) -> tuple[list, list[list[int]]]:
    """The residual view ``(res, out)`` of ``flow``: ``_capacities`` and ``_outgoing``."""
    return _capacities(inst, flow), _outgoing(inst)


def _capacities(inst: CirculationInstance, flow: list[int]) -> list:
    """``res[e]``: residual arc e's residual capacity under ``flow``, cap - flow
    forward (None when uncapacitated) and the flow in reverse."""
    res: list = [None] * (2 * inst.m)
    # an unused arc's residual capacity is its capacity, shared, not a copy
    res[0::2] = [c - f if f and c is not None else c for c, f in zip(inst.cap, flow)]
    res[1::2] = flow
    return res


def _outgoing(inst: CirculationInstance) -> list[list[int]]:
    """``out[x]``: the forward residual arcs leaving x, then the reverse ones.

    Each kind is in arc order, so the Dijkstra meets first those its
    capacity test mostly passes (interleaved, it ran 12-21% longer on the
    wiki-Vote-size proxy).  ``out`` depends on the heads alone.
    """
    out: list[list[int]] = [[] for _ in range(inst.n)]
    head = inst.head
    for e in range(0, len(head), 2):  # forward arcs, from their tails
        out[head[e + 1]].append(e)
    for e in range(1, len(head), 2):  # reverse arcs, from their arcs' heads
        out[head[e - 1]].append(e)
    return out


def uncapacitate(sg: ShiftedGraph) -> CirculationInstance:
    """Write the shifted graph's arcs out as a capacitated instance.

    In ``ShiftedGraph`` order: per edge (v, w, weight) and hinge term
    (a, b), the arc (v, w) with cost b and capacity a * weight; per vertex
    v the fans (alpha, v) and (v, omega) with cost 0; last (omega, alpha)
    with cost k - 1; the fans and that arc have no capacity.  Each arc is
    written as its two residual arcs.  One pass over the edges and terms,
    then one over the vertices.

    The name is that of the gadget construction this stage once was.  The
    benchmark's tracer resolves the instance-build stage as
    ``agony.exact.uncapacitate`` (``perfbench/spans.py``), so the name
    stays until that tracer is next changed.
    """
    n, alpha, omega = sg.g.n, sg.alpha, sg.omega
    edges, terms = sg.g.edges, sg.terms
    head = [x for v, w, _ in edges for _ in terms for x in (w, v)]
    cost = [c for _ in edges for _, b in terms for c in (b, -b)]
    cap: list = [a * weight for _, _, weight in edges for a, _ in terms]
    for v in range(n):
        head += (v, alpha, omega, v)
    head += (alpha, omega)
    cost += [0] * (4 * n) + [sg.k - 1, 1 - sg.k]
    cap += [None] * (2 * n + 1)
    return CirculationInstance(head, cost, cap, sg)


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
        cost = self.inst.cost
        return sum(cost[2 * a] * f for a, f in enumerate(self.flow) if f)

    def check_optimality(self) -> bool:
        """Capacities, flow conservation, and no residual arc of negative
        reduced cost (dual feasibility and complementary slackness)."""
        inst, pot, head = self.inst, self.potentials, self.inst.head
        res, _ = _residual(inst, self.flow)
        if any(r is not None and r < 0 for r in res):
            return False
        for e, (w, c, r) in enumerate(zip(head, inst.cost, res)):
            if r != 0 and c + pot[w] < pot[head[e ^ 1]]:  # r is None or positive
                return False
        return not any(inst.excess(self.flow))

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

    ``starts`` holds (initial distance, vertex) pairs, and residual arcs
    are as long as their reduced costs under the state's duals.  The
    solver's Dijkstra runs on the state's residual view (``_residual``) and
    a copy of its duals, so ``state`` is untouched; duals that are not
    optimal, or a vertex that no start reaches, raise ``SolverError``.
    """
    inst = state.inst
    res, out = _residual(inst, state.flow)
    return _build_tree(inst.head, inst.cost, res, out, list(state.potentials), starts, 1)


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

class _Core:
    """Solver state: residual capacities, duals, excesses and residual arcs.

    Every arc of negative cost starts saturated, so under the zero duals no
    residual arc has a negative reduced cost.  The core keeps its residual
    capacities ``res`` in place of a flow; ``finalize`` reads the flow off
    the reverse arcs.  Its residual arcs ``out`` are built by the first
    Dijkstra, since many small solves run none.  Every phase is checked as
    it runs, each failure a ``SolverError``: ``saturate`` refuses an
    uncapacitated arc of negative reduced cost and a push of 2 * delta or
    more, and the Dijkstra a residual arc of negative reduced cost or a
    vertex it cannot reach.
    """

    def __init__(self, inst: CirculationInstance):
        self.inst = inst
        forward = islice(inst.cost, 0, None, 2)
        flow = [cap if c < 0 else 0 for c, cap in zip(forward, inst.cap)]
        self.res = _capacities(inst, flow)
        self.out = None
        self.pot = [0] * inst.n
        self.excess = inst.excess(flow)
        self.stats = SolveStats()

    def saturate(self, delta: int):
        """Saturate every residual arc whose residual capacity is at least
        ``delta`` and whose reduced cost is negative.

        Of an arc's two residual arcs, the one of negative reduced cost, if
        either, is pushed on.  The phase before, at 2 * delta, ends with no
        such residual arc of residual capacity 2 * delta or more, and flow
        and duals do not change between phases, so a push that large raises
        ``SolverError``: it is that phase's slack check, made by this pass.
        The first phase's delta exceeds half of every capacity, so none of
        its pushes is that large.
        """
        res, pot, excess, head = self.res, self.pot, self.excess, self.inst.head
        limit = 2 * delta
        for a, (w, x, c) in enumerate(_arcs(self.inst)):
            rc = c + pot[w] - pot[x]
            if rc < 0:
                e = 2 * a
            elif rc > 0:
                e = 2 * a + 1
            else:
                continue
            push = res[e]
            if push is None:
                raise SolverError(f"negative reduced cost {rc} on uncapacitated arc {a}")
            if push < delta:
                continue
            if push >= limit:
                raise SolverError(
                    f"the phase before left arc {a}, forward or reverse, with residual "
                    f"capacity {push} at a negative reduced cost"
                )
            res[e] = 0
            if res[e ^ 1] is not None:
                res[e ^ 1] += push
            excess[head[e ^ 1]] -= push
            excess[head[e]] += push

    def dijkstra(self, starts, delta: int):
        """``_build_tree`` over the delta-residual arcs; counts the settles."""
        inst = self.inst
        if self.out is None:
            self.out = _outgoing(inst)
        _build_tree(inst.head, inst.cost, self.res, self.out, self.pot, starts, delta)
        self.stats.settles += inst.n

    def finalize(self) -> SolverState:
        flow = self.res[1::2]
        if any(self.inst.excess(flow)):
            raise SolverError("flow conservation violated after the last phase")
        return SolverState(self.inst, flow, self.pot, self.stats)


# ---------------------------------------------------------------------------
# capacity-scaling loop
# ---------------------------------------------------------------------------

def solve_fast(inst: CirculationInstance) -> SolverState:
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

    Besides the checks made by ``_Core`` in every phase, the duals must lie
    within k - 1 of one another after it, as dual feasibility on the
    sentinel arcs implies.  The last phase, whose slackness no later pass
    checks, rests on ``finalize``'s conservation check and, in
    ``min_agony``, on strong duality with the ranking's own score.
    """
    core = _Core(inst)
    excess, stats, pot = core.excess, core.stats, core.pot
    spread = inst.sg.k - 1
    vertices = range(inst.n)
    # the largest power of two not above the largest capacity (all are >= 1)
    delta = 1 << (max((c for c in inst.cap if c is not None), default=1).bit_length() - 1)
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
        if max(pot) - min(pot) > spread:
            raise SolverError(f"dual spread exceeds k - 1 after the phase at delta {delta}")
        if delta == 1:
            return core.finalize()
        delta //= 2


def _build_tree(head, cost, res, out, pot, starts, delta: int):
    """Multi-source Dijkstra over a bucket queue; subtracts distances from duals.

    The residual graph is given by its residual arcs' heads, costs and
    residual capacities (``res``, None for unbounded) and the residual
    arcs ``out[x]`` leaving each vertex x; it holds the residual arcs of
    residual capacity at least ``delta``, each as long as its reduced cost
    under ``pot``.  ``starts`` holds (initial distance, vertex) pairs.
    Reduced costs are small integers, so a whole run sees few distinct
    distances: bare vertex ids wait in one list per tentative distance, a
    heap holds the distinct distances only, and a zero-cost arc appends to
    the list being scanned.  A vertex is filed again only when its
    tentative distance falls, so an entry whose distance is no longer the
    vertex's is skipped.  Settling a vertex scans the residual arcs leaving
    it, each with its reduced cost checked.  Every vertex must be reached.
    Finally the distances are subtracted from the duals, so every shortest
    path from a start has reduced cost 0.  Returns each vertex's distance.
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
            for e in out[x]:
                r = res[e]
                if r is not None and r < delta:
                    continue
                w = head[e]
                rc = cost[e] + pot[w] - px
                if rc < 0:
                    raise SolverError(f"negative reduced cost {rc} on residual arc {e}")
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

    A residual arc may carry a push while its residual capacity is at
    least delta (always, when it is unbounded).  A source sends while its
    excess is at least delta, a sink receives while its deficit is, and a
    push moves all that the source's excess, the sink's deficit and the
    path's residual capacities allow, so at least delta.

    One pass over the arcs collects the admissible residual arcs: both
    directions of a tight arc a, of reduced cost 0, so ``adm`` lists 2a at
    a's tail and 2a + 1 at its head.  Each iteration labels the vertices
    with their residual hop count to the nearest sink that can still
    receive, by a breadth-first search (entering y from w over the partner
    e ^ 1 of each e in ``adm[w]``) that stops at the first level holding a
    source that can still send, then saturates that level graph by
    depth-first walks from those sources, with a current-arc pointer per
    vertex.  A walk steps one level down per residual arc, so it only
    enters vertices that reached a sink when the search ran; a vertex
    found to lead nowhere gets level -1.
    """
    res, pot, excess = core.res, core.pot, core.excess
    head, n = core.inst.head, core.inst.n
    adm: list[list[int]] = [[] for _ in range(n)]
    for a, (w, x, c) in enumerate(_arcs(core.inst)):
        if c + pot[w] == pot[x]:
            adm[x].append(2 * a)
            adm[w].append(2 * a + 1)
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
                for e in adm[w]:
                    y = head[e]
                    if level[y] >= 0:
                        continue
                    r = res[e ^ 1]  # the residual arc y -> w
                    if r is not None and r < delta:
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
            path: list[int] = []  # residual arcs from s to x
            x = s
            while True:
                lx = level[x]
                if lx == 0 and -excess[x] >= delta:
                    room = min(excess[s], -excess[x])
                    for e in path:
                        r = res[e]
                        if r is not None and r < room:
                            room = r
                    for e in path:
                        r = res[e]
                        if r is not None:
                            res[e] = r - room
                        r = res[e ^ 1]
                        if r is not None:
                            res[e ^ 1] = r + room
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
                        e = arcs[i]
                        if level[head[e]] == lx - 1:
                            r = res[e]
                            if r is None or r >= delta:
                                break
                        i += 1
                    ptr[x] = i
                    if i < len(arcs):
                        path.append(e)
                        x = head[e]
                        continue
                level[x] = -1  # x leads to no sink that can still receive
                if not path:
                    break
                path.pop()
                x = head[path[-1]] if path else s
                ptr[x] += 1
