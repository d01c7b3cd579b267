from fractions import Fraction

import pytest

from agony import circulation
from agony.circulation import (
    SolverError,
    build_convex_instance,
    circulation_value,
    extract_ranking,
    shifted_score,
    solve_fast,
    uncapacitate,
)
from agony.graph import WeightedDigraph, score_ranking
from agony.penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError

from baseline import solve_reference
from conftest import brute_min_linear, brute_optima, graph_from_text, random_dag, random_graph

TOY = "a b\nb c\nc a 2\nb d\n"
# delta-phases of a solve whose largest capacity is near 10^6, as measured:
# 20 under the linear penalty, 21 under slopes up to 2
BIG_PHASES = 20


def _solve_both(g, k, penalty=LINEAR):
    """The shifted graph, the reference's solution and ``solve_fast``'s state."""
    sg = build_convex_instance(g, k, penalty)
    ref = solve_reference(g, k, sg.terms)
    assert score_ranking(g, ref.ranks, penalty) == penalty.unscale(ref.value)
    state = solve_fast(uncapacitate(sg))
    assert state.check_optimality()
    return sg, ref, state


def _explicit_arcs(sg):
    """The shifted graph's arcs (src, dst, weight or None, shift), in order."""
    arcs = [(u, v, a * w, -b) for u, v, w in sg.g.edges for a, b in sg.terms]
    for v in range(sg.g.n):
        arcs += [(sg.alpha, v, None, 0), (v, sg.omega, None, 0)]
    return arcs + [(sg.omega, sg.alpha, None, 1 - sg.k)]


def _arcs(inst):
    """(src, dst, cost, capacity) of every instance arc, in order, read off
    its forward residual arc 2a."""
    head = inst.head
    return [(head[2 * a + 1], head[2 * a], inst.cost[2 * a], inst.cap[a]) for a in range(inst.m)]


def _fans(sg):
    return [arc for v in range(sg.g.n)
            for arc in ((sg.alpha, v, 0, None), (v, sg.omega, 0, None))]


class TestBuilders:
    def test_toy_instance_shape(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        assert sg.n_total == 6 and (sg.alpha, sg.omega) == (4, 5)
        inst = uncapacitate(sg)
        assert inst.n == 6 and inst.m == g.m + 2 * 4 + 1
        # shift 1: each edge's arc costs -1 and holds its weight
        assert _arcs(inst) == ([(u, v, -1, w) for u, v, w in g.edges] + _fans(sg)
                               + [(sg.omega, sg.alpha, 3, None)])

    def test_empty_graph_instance(self):
        g = WeightedDigraph(0, [])
        sg = build_convex_instance(g, 2, LINEAR)
        assert sg.n_total == 2
        inst = uncapacitate(sg)
        assert inst.n == 2
        assert _arcs(inst) == [(sg.omega, sg.alpha, 1, None)]

    def test_single_edge_k2(self):
        g = WeightedDigraph(2, [(0, 1, 5)])
        sg = build_convex_instance(g, 2, LINEAR)
        assert sg.terms == ((1, -1),)
        assert _arcs(uncapacitate(sg)) == [(0, 1, -1, 5)] + _fans(sg) + [(3, 2, 1, None)]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_convex_instance(WeightedDigraph(2, [(0, 1, 1)]), 1, LINEAR)

    def test_convex_two_term_doubles_arcs(self):
        # p(d) = max(0, d+1) + 2*max(0, d-3): shifts 1 and -3, second weight doubled
        g = graph_from_text("a b\nb c\nc a 2\n")
        pen = PenaltySpec.convex_sum([(1, -1), (2, 3)])
        sg = build_convex_instance(g, 3, pen)
        arcs = _arcs(uncapacitate(sg))
        assert len(arcs) == g.m * 2 + 2 * 3 + 1
        for (u, v, w), first, second in zip(g.edges, arcs[0::2], arcs[1::2]):
            assert first == (u, v, -1, w)
            assert second == (u, v, 3, 2 * w)

    def test_linear_spec_equals_agony_instance(self):
        g = graph_from_text(TOY)
        a = build_convex_instance(g, 3, LINEAR)
        b = build_convex_instance(g, 3, PenaltySpec.convex_sum([(1, -1)]))
        assert a == b
        assert _arcs(uncapacitate(a)) == _arcs(uncapacitate(b))

    def test_slope_times_weight(self):
        g = WeightedDigraph(2, [(0, 1, 2)])
        sg = build_convex_instance(g, 2, PenaltySpec.convex_sum([(3, 0)]))
        assert _arcs(uncapacitate(sg))[0] == (0, 1, 0, 6)

    def test_scoring_only_penalties_rejected(self):
        g = graph_from_text(TOY)
        with pytest.raises(UnsupportedPenaltyError):
            build_convex_instance(g, 2, PenaltySpec.constant())
        with pytest.raises(UnsupportedPenaltyError):
            build_convex_instance(g, 2, PenaltySpec.custom(lambda d: 0))

    def test_score_and_offset_match_per_arc_sums(self, rng):
        pens = [LINEAR, PenaltySpec.convex_sum([(1, -1), (2, 3)]),
                PenaltySpec.convex_sum([(Fraction(1, 2), -2), (3, 0), (1, 1)])]
        for i in range(60):
            g = random_graph(rng, rng.randint(1, 7), 0.4, 10**6 if i % 3 == 0 else 3)
            k = rng.randint(2, 5)
            sg = build_convex_instance(g, k, pens[i % 3])
            arcs = _explicit_arcs(sg)
            # the flat ranking pays every positive shift in full
            assert shifted_score(sg, [0] * sg.n_total) == sum(
                s * w for _, _, w, s in arcs if w is not None and s > 0
            )
            for _ in range(10):
                # ranks in [-1, k]: sentinel arcs are violated now and then
                full = [rng.randint(-1, k) for _ in range(sg.n_total)]
                expect = 0
                for u, v, w, s in arcs:
                    viol = full[u] - full[v] + s
                    if viol > 0:
                        if w is None:
                            expect = None
                            break
                        expect += w * viol
                assert shifted_score(sg, full) == expect


class TestUncapacitate:
    def test_sentinel_loop_arc_cost(self):
        g = WeightedDigraph(4, [(0, 1, 1), (2, 3, 1)])
        for k in (2, 3, 4):
            sg = build_convex_instance(g, k, LINEAR)
            arcs = _arcs(uncapacitate(sg))
            assert arcs[-1] == (sg.omega, sg.alpha, k - 1, None)

    def test_matches_per_arc_construction(self, rng):
        """Arcs, costs, capacities and residual arcs in the shifted graph's
        order: arc a is residual arc 2a forward and 2a + 1 in reverse."""
        pen = PenaltySpec.convex_sum([(1, -1), (2, 3)])
        for i in range(30):
            g = random_graph(rng, rng.randint(0, 8), 0.4, 5)
            sg = build_convex_instance(g, rng.randint(2, 6), pen if i % 2 else LINEAR)
            expect = [(v, w, -s, cap) for v, w, cap, s in _explicit_arcs(sg)]
            inst = uncapacitate(sg)
            assert _arcs(inst) == expect
            assert inst.n == sg.n_total and inst.m == len(expect)
            assert all(c is None or type(c) is int for c in inst.cap)
            assert len(inst.head) == len(inst.cost) == 2 * inst.m
            for a, (v, w, c, _) in enumerate(expect):
                assert inst.head[2 * a : 2 * a + 2] == [w, v]
                assert inst.cost[2 * a : 2 * a + 2] == [c, -c]
            res, out = circulation._residual(inst, [0] * inst.m)
            assert res == [x for _, _, _, cap in expect for x in (cap, 0)]
            for x in range(inst.n):
                # forward 2a leaves arc a's tail, reverse 2a + 1 its head;
                # the forward ones come first
                leaving = [e for e in range(2 * inst.m) if expect[e // 2][e & 1] == x]
                assert out[x] == sorted(leaving, key=lambda e: (e & 1, e))


class TestSolvers:
    def test_toy_graph_all_k(self):
        g = graph_from_text(TOY)
        for k in (2, 3, 4):
            sg, ref, sf = _solve_both(g, k)
            expect = brute_min_linear(g, k)
            assert ref.value == expect
            assert circulation_value(sf) == expect
            ranks = extract_ranking(sf)
            assert score_ranking(g, ranks, LINEAR) == expect
            assert 0 <= min(ranks) and max(ranks) <= k - 1

    def test_dag_gets_zero(self, rng):
        for _ in range(10):
            g = random_dag(rng, rng.randint(2, 7), 0.5, 3)
            sg, ref, sf = _solve_both(g, g.n)
            assert circulation_value(sf) == ref.value == 0
            ranks = extract_ranking(sf)
            assert score_ranking(g, ranks, LINEAR) == 0

    def test_two_cycle_k2(self):
        g = graph_from_text("a b\nb a\n")
        sg, ref, sf = _solve_both(g, 2)
        # both orders pay: one unit at distance one plus the return edge
        assert ref.value == circulation_value(sf) == 2
        assert brute_min_linear(g, 2) == 2

    def test_fast_equals_baseline_on_random_graphs(self, rng):
        """``circulation_value`` equals the value of the reference's cycle
        cancelling: n <= 15, weights up to 10^6, k from 2 to n + 2, and
        linear, convex and positive-breakpoint penalties."""
        pens = [LINEAR, PenaltySpec.parse("sum:1,-1;2,1"), PenaltySpec.parse("sum:1,2"),
                PenaltySpec.parse("sum:1,-1;2,3"), PenaltySpec.parse("sum:1/2,-2;3,0;1,1")]
        for i in range(200):
            g = random_graph(rng, rng.randint(2, 15), rng.choice((0.15, 0.35)),
                             rng.choice((1, 3, 10**6)))
            k = rng.randint(2, g.n + 2)
            sg, ref, sf = _solve_both(g, k, pens[i % len(pens)])
            assert ref.value == circulation_value(sf)

    def test_reference_matches_brute_force(self, rng):
        pens = [LINEAR, PenaltySpec.parse("sum:1,-1;2,1"), PenaltySpec.parse("sum:1,1")]
        for i in range(60):
            g = random_graph(rng, rng.randint(1, 6), 0.4, rng.choice((1, 10**6)))
            k = rng.randint(2, 4)
            pen = pens[i % len(pens)]
            ref = solve_reference(g, k, pen.integer_terms())
            best, optima = brute_optima(g, k, pen)
            assert pen.unscale(ref.value) == best
            assert tuple(ref.ranks) in optima

    def test_brute_force_equivalence(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.4, 3)
            k = rng.randint(2, min(g.n, 4))
            sg, _, sf = _solve_both(g, k)
            assert circulation_value(sf) == brute_min_linear(g, k)

    def test_unweighted_needs_one_outer_phase(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.4, 1)
            if g.m == 0:
                continue
            sg = build_convex_instance(g, g.n, LINEAR)
            st = solve_fast(uncapacitate(sg))
            assert st.stats.outer_phases == 1

    def test_strong_duality_on_shifted_graph(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), 0.4, 3)
            k = rng.randint(2, g.n)
            sg, _, sf = _solve_both(g, k)
            pots = sf.potentials
            full = [pots[v] - pots[sg.alpha] for v in range(sg.n_total)]
            assert shifted_score(sg, full) == circulation_value(sf)

    def test_final_state_optimality_conditions(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), 0.4, 4)
            k = rng.randint(2, g.n)
            sg, _, sf = _solve_both(g, k)
            assert sf.check_optimality()
            assert all(x == 0 for x in sf.inst.excess(sf.flow))
            assert all(0 <= f and (c is None or f <= c) for f, c in zip(sf.flow, sf.inst.cap))
            assert sf.potentials[sg.omega] - sf.potentials[sg.alpha] <= sg.k - 1

    def test_large_weights_run_one_phase_per_capacity_bit(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5), 0.5, 2000)
            if g.m == 0:
                continue
            k = rng.randint(2, g.n)
            sg, ref, sf = _solve_both(g, k)
            # delta runs from the top power of two of the largest weight down to 1
            assert sf.stats.outer_phases == max(w for _, _, w in g.edges).bit_length()
            assert ref.value == circulation_value(sf) == brute_min_linear(g, k)

    def test_convex_phases_follow_the_largest_capacity(self, rng):
        pen = PenaltySpec.parse("sum:1,-1;3,2")  # capacities w and 3w
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.4, rng.choice((5, 10**6)))
            if g.m == 0:
                continue
            sg, ref, sf = _solve_both(g, rng.randint(2, g.n + 2), pen)
            assert sf.stats.outer_phases == (3 * max(w for _, _, w in g.edges)).bit_length()
            assert ref.value == circulation_value(sf)

    def test_convex_instance_solved_exactly(self, rng):
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
            k = rng.randint(2, min(g.n, 4))
            sg, ref, sf = _solve_both(g, k, pen)
            best = min(
                score_ranking(g, r, pen)
                for r in __import__("itertools").product(range(k), repeat=g.n)
            )
            assert circulation_value(sf) == ref.value == best

    def test_fractional_slopes_report_rescaled(self):
        g = graph_from_text("a b\nb a\n")
        pen = PenaltySpec.convex_sum([(Fraction(1, 2), -1)])
        sg, _, sf = _solve_both(g, 2, pen)
        value = Fraction(circulation_value(sf), pen.scale)
        assert value == min(
            score_ranking(g, r, pen) for r in ((0, 0), (0, 1), (1, 0), (1, 1))
        )

    def test_empty_instance_solves_trivially(self):
        sg = build_convex_instance(WeightedDigraph(0, []), 2, LINEAR)
        st = solve_fast(uncapacitate(sg))
        assert st.objective() == 0 and st.stats.augmentations == 0


class TestSolveStats:
    def test_fast_settles_every_root_per_round(self, monkeypatch, rng):
        build = circulation._build_tree
        reached = []

        def counting_build(*args):
            dist = build(*args)
            # the vertices reached, which must be all of them
            reached.append(sum(d is not None for d in dist))
            assert reached[-1] == len(dist)
            return dist

        monkeypatch.setattr(circulation, "_build_tree", counting_build)
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        rounds = phases = 0
        for i in range(20):
            reached.clear()
            g = random_graph(rng, rng.randint(4, 12), 0.35, 10**6 if i % 2 else 3)
            stats = solve_fast(uncapacitate(build_convex_instance(g, min(g.n, 5), pen))).stats
            # one Dijkstra per round, and each one settles every vertex
            assert len(reached) == stats.repairs
            assert stats.settles == sum(reached)
            assert stats.contractions == 0
            rounds += stats.repairs
            phases = max(phases, stats.outer_phases)
        assert rounds > 0 and phases >= BIG_PHASES


def _reference_distances(head, cost, res, pot, starts, delta):
    """Residual shortest-path distances by Bellman-Ford over every residual
    arc e, from head[e ^ 1] to head[e], whose residual capacity res[e] is
    at least delta (always when it is None); None where no start reaches."""
    dist = [None] * len(pot)
    for d, s in starts:
        if dist[s] is None or d < dist[s]:
            dist[s] = d
    arcs = []
    for e, (w, c, r) in enumerate(zip(head, cost, res)):
        x = head[e ^ 1]
        if r is None or r >= delta:
            arcs.append((x, w, c + pot[w] - pot[x]))
    changed = True
    while changed:
        changed = False
        for x, w, length in arcs:
            if dist[x] is not None and (dist[w] is None or dist[x] + length < dist[w]):
                dist[w] = dist[x] + length
                changed = True
    return dist


def _residual_graph(n, arcs, flow, cap=None):
    """Heads, costs, residual capacities and per-vertex residual arcs of a
    list of (src, dst, cost) arcs under ``flow``, with capacities (none by
    default): arc a is residual arc 2a forward and 2a + 1 in reverse."""
    head, cost, res = [], [], []
    out = [[] for _ in range(n)]
    for a, ((x, w, c), f, u) in enumerate(zip(arcs, flow, cap or [None] * len(arcs))):
        head += (w, x)
        cost += (c, -c)
        res += (None if u is None else u - f, f)
        out[x].append(2 * a)
        out[w].append(2 * a + 1)
    return head, cost, res, out


_build_tree = circulation._build_tree


def _checked_build_tree(head, cost, res, out, pot, starts, delta):
    """``_build_tree``, checked against ``_reference_distances``."""
    before = list(pot)
    ref = _reference_distances(head, cost, res, before, starts, delta)
    dist = _build_tree(head, cost, res, out, pot, starts, delta)
    assert dist == ref
    assert pot == [p - (d or 0) for p, d in zip(before, dist)]
    # every reached vertex is at its start distance or entered from a reached
    # vertex by a residual arc of reduced cost 0 under the new duals
    start = {}
    for d, s in starts:
        start[s] = min(d, start.get(s, d))
    tight = set()
    for e, (w, c, r) in enumerate(zip(head, cost, res)):
        x = head[e ^ 1]
        if dist[x] is not None and dist[w] is not None and c + pot[w] == pot[x]:
            if r is None or r >= delta:
                tight.add(w)
    for v, d in enumerate(dist):
        assert d is None or d == start.get(v) or v in tight
    return dist


class TestBuildTree:
    """The bucket-queue Dijkstra gives the residual shortest-path distances
    over the arcs of residual capacity at least delta, a tight residual arc
    into every vertex not at its start distance, and the duals less the
    distances."""

    def test_matches_reference_in_solves_and_canonical_rankings(self, monkeypatch, rng):
        distinct, deltas = [], set()

        def checked(*args):
            dist = _checked_build_tree(*args)
            distinct.append(len({d for d in dist if d is not None}))
            deltas.add(args[-1])
            return dist

        monkeypatch.setattr(circulation, "_build_tree", checked)
        pen = PenaltySpec.parse("sum:1,-1;2,3")
        phases = 0
        for i in range(12):
            g = random_graph(rng, rng.randint(8, 25), 0.15, 10**6 if i % 2 else 1)
            k = rng.choice((4, 8))
            inst = uncapacitate(build_convex_instance(g, k, pen))
            state = solve_fast(inst)
            assert state.check_optimality()
            phases = max(phases, state.stats.outer_phases)
            starts = [(rng.randint(0, k), v) for v in range(g.n)]
            circulation.residual_distances(state, starts)
        assert phases >= BIG_PHASES and len(deltas) > 5  # runs at many scales
        assert max(distinct) >= 4  # several buckets in one run

    def test_random_residual_graphs_with_zero_cost_chains(self, rng):
        for _ in range(60):
            n = rng.randint(2, 30)
            pot = [rng.randint(-5, 5) for _ in range(n)]
            arcs, cap, flow = [], [], []
            # an uncapacitated chain of zero-cost arcs through the vertices in
            # random order, so its head reaches every vertex
            order = rng.sample(range(n), n)
            for x, w in zip(order, order[1:]):
                arcs.append((x, w, pot[x] - pot[w]))
                cap.append(None)
                flow.append(rng.choice((0, 2)))
            for _ in range(rng.randint(0, 3 * n)):
                x, w = rng.sample(range(n), 2)
                rc = rng.choice((0, 0, 1, 2, 7))
                arcs.append((x, w, rc + pot[x] - pot[w]))
                # residual capacities of 0 to 3 forward, against deltas 1 and 2
                f = 0 if rc else rng.choice((0, 1, 2))
                flow.append(f)
                cap.append(rng.choice((None, f + rng.randint(0 if f else 1, 3))))
            starts = [(rng.randint(-2, 6), v) for v in rng.sample(range(n), min(n, 3))]
            starts.append((rng.randint(-2, 6), order[0]))
            _checked_build_tree(
                *_residual_graph(n, arcs, flow, cap), pot, starts, rng.choice((1, 2))
            )

    def test_zero_cost_chain_beats_a_costlier_jump(self):
        n = 200
        # vertex ids fall along the chain; one arc of cost 1 jumps to its end
        arcs = [(v, v - 1, 0) for v in range(n - 1, 0, -1)] + [(n - 1, 0, 1)]
        pot = [0] * n
        dist = _build_tree(*_residual_graph(n, arcs, [0] * len(arcs)), pot, [(3, n - 1)], 1)
        assert dist == [3] * n and pot == [-3] * n

    def test_negative_reduced_cost_raises(self):
        for flow, (x, w, c) in (([0], (0, 1, -1)), ([1], (0, 1, 1))):
            # a forward arc of cost -1, or the reverse of a flow arc of cost 1
            residual = _residual_graph(2, [(x, w, c), (1, 0, 5)], flow + [0])
            with pytest.raises(SolverError, match="negative"):
                _build_tree(*residual, [0, 0], [(0, 0), (0, 1)], 1)

    def test_unreachable_vertex_raises(self):
        residual = _residual_graph(3, [(0, 1, 0), (2, 1, 0)], [0, 0])
        with pytest.raises(SolverError, match="not connected"):
            _build_tree(*residual, [0] * 3, [(0, 0)], 1)


class TestStateSurface:
    def test_perturbed_flow_breaks_optimality(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        st = solve_fast(uncapacitate(sg))
        assert st.check_optimality()
        st.flow[0] += 1
        assert not st.check_optimality()

    def test_flow_above_capacity_breaks_optimality(self):
        # edge 0 -> 1 of weight 3 at k = 2: three units around the cycle
        # 0 -> 1 -> omega -> alpha -> 0, every arc of it tight under the
        # duals 0, 1, 0, 1, is optimal; a fourth unit keeps conservation and
        # slackness but overfills the edge's arc
        sg = build_convex_instance(WeightedDigraph(2, [(0, 1, 3)]), 2, LINEAR)
        inst = uncapacitate(sg)
        cycle = [0, 1, 4, 5]  # (0, 1), (alpha, 0), (1, omega), (omega, alpha)
        assert [_arcs(inst)[a][:2] for a in cycle] == [(0, 1), (2, 0), (1, 3), (3, 2)]
        flow = [3 if a in cycle else 0 for a in range(inst.m)]
        st = circulation.SolverState(inst, flow, [0, 1, 0, 1])
        assert st.check_optimality() and st.certifies([0, 1])
        st.flow = [f + 1 if a in cycle else f for a, f in enumerate(flow)]
        assert not st.check_optimality()

    def test_extract_requires_window(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        st = solve_fast(uncapacitate(sg))
        st.potentials[0] += sg.k + 5
        with pytest.raises(SolverError):
            extract_ranking(st)


class TestPhaseChecks:
    """A phase that ends with an arc of residual capacity at least delta,
    forward or reverse, at a negative reduced cost makes the next phase's
    saturating pass raise."""

    def test_arc_left_with_twice_delta_raises(self, monkeypatch):
        saturate = circulation._Core.saturate
        planted = []

        def plant_then_saturate(core, delta):
            # before a phase after the first, empty an arc of negative reduced
            # cost, or fill one of positive reduced cost so that its reverse
            # has a negative one: either way 2 * delta or more of it is
            # residual, as a faulty phase before would leave it.  Excesses
            # stay exact, so a pass without the check goes on to an optimum
            if core.stats.outer_phases > 1 and not planted:
                res, pot, excess = core.res, core.pot, core.excess
                for a, (x, w, c, cap) in enumerate(_arcs(core.inst)):
                    rc = c + pot[w] - pot[x]
                    if cap is None or cap < 2 * delta or not rc:
                        continue
                    target = 0 if rc < 0 else cap
                    excess[x] -= target - res[2 * a + 1]
                    excess[w] += target - res[2 * a + 1]
                    res[2 * a : 2 * a + 2] = [cap - target, target]
                    planted.append(a)
                    break
            saturate(core, delta)

        monkeypatch.setattr(circulation._Core, "saturate", plant_then_saturate)
        g = WeightedDigraph(4, [(0, 1, 10**6), (1, 2, 3 * 10**5), (2, 0, 7 * 10**5), (2, 3, 5)])
        inst = uncapacitate(build_convex_instance(g, 3, LINEAR))
        with pytest.raises(SolverError, match="phase before left arc"):
            solve_fast(inst)
        assert planted


class TestAdmissibleMaxFlow:
    """After every admissible max flow no arc of residual capacity at least
    delta, forward or reverse, has a negative reduced cost, every flow lies
    within its capacity, and the total excess has fallen by at least delta."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Check every max flow of the fast solver; returns the deltas checked."""
        max_flow = circulation._admissible_max_flow
        checked = []

        def max_flow_then_check(core, sources, sinks, delta):
            before = sum(e for e in core.excess if e > 0)
            max_flow(core, sources, sinks, delta)
            pot = core.pot
            for a, (x, w, c, cap) in enumerate(_arcs(core.inst)):
                f = core.res[2 * a + 1]
                assert 0 <= f and (cap is None or f <= cap)
                rc = c + pot[w] - pot[x]
                assert rc >= 0 or cap - f < delta
                assert rc <= 0 or f < delta
            after = sum(e for e in core.excess if e > 0)
            assert after <= before - delta
            checked.append(delta)

        monkeypatch.setattr(circulation, "_admissible_max_flow", max_flow_then_check)
        return checked

    @staticmethod
    def _solve(g, k, penalty=LINEAR):
        state = solve_fast(uncapacitate(build_convex_instance(g, k, penalty)))
        assert state.check_optimality()
        return state.stats

    def test_unit_weights(self, rounds, rng):
        total = 0
        for _ in range(8):
            g = random_graph(rng, 40, 0.09)
            total += self._solve(g, g.n).repairs
        assert len(rounds) == total > 0

    def test_convex_large_weights_at_many_scales(self, rounds, rng):
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        total = 0
        for _ in range(4):
            g = random_graph(rng, 40, 0.09, 10**6)
            stats = self._solve(g, 5, pen)
            assert stats.outer_phases >= BIG_PHASES
            total += stats.repairs
        assert len(rounds) == total > 0
        assert len(set(rounds)) > 1  # the checks ran at several scales


def _pairing_breaks(core):
    """The first arc whose two residual arcs disagree in ``core``, or None.

    Arc a's reverse residual arc 2a + 1 holds its flow, at least 0; the
    forward arc 2a is None exactly when the arc is uncapacitated, and
    otherwise the two sum to the capacity.  The excesses must be those of
    the flow on the reverse arcs."""
    inst, res = core.inst, core.res
    for a, cap in enumerate(inst.cap):
        fwd, rev = res[2 * a], res[2 * a + 1]
        if rev < 0 or (fwd is None) != (cap is None) or (cap is not None and fwd + rev != cap):
            return a
    if core.excess != inst.excess(res[1::2]):
        return "excess"
    return None


class TestResidualPairing:
    """Every push of a real solve moves residual arc e and its partner e ^ 1
    together: checked after every saturating pass and every max flow."""

    def test_holds_after_every_pass_and_max_flow(self, monkeypatch, rng):
        saturate, max_flow = circulation._Core.saturate, circulation._admissible_max_flow
        checked = []

        def saturate_then_check(core, delta):
            saturate(core, delta)
            assert _pairing_breaks(core) is None
            checked.append("saturate")

        def max_flow_then_check(core, sources, sinks, delta):
            max_flow(core, sources, sinks, delta)
            assert _pairing_breaks(core) is None
            checked.append("max flow")

        monkeypatch.setattr(circulation._Core, "saturate", saturate_then_check)
        monkeypatch.setattr(circulation, "_admissible_max_flow", max_flow_then_check)
        pen = PenaltySpec.parse("sum:1,-1;2,3")
        phases = rounds = 0
        for i in range(12):
            g = random_graph(rng, rng.randint(8, 30), 0.15, 10**6 if i % 2 else 1)
            state = solve_fast(uncapacitate(build_convex_instance(g, rng.choice((3, 8)), pen)))
            assert state.check_optimality()
            phases += state.stats.outer_phases
            rounds += state.stats.repairs
        # one check per phase and per round: a wrapper that never fires fails here
        assert checked.count("saturate") == phases >= BIG_PHASES
        assert checked.count("max flow") == rounds > 0

    def test_half_push_breaks_the_pairing(self, rng):
        g = random_graph(rng, 12, 0.3, 5)
        core = circulation._Core(uncapacitate(build_convex_instance(g, 4, LINEAR)))
        assert _pairing_breaks(core) is None
        res, excess, head = core.res, core.excess, core.inst.head
        for e in range(len(res)):
            if res[e] is not None and res[e] > 0:
                break
        # a push of one unit on e: excesses and res[e] move, res[e ^ 1] does not
        res[e] -= 1
        excess[head[e ^ 1]] -= 1
        excess[head[e]] += 1
        assert _pairing_breaks(core) == e // 2
        if res[e ^ 1] is not None:
            res[e ^ 1] += 1  # the whole push restores it
            assert _pairing_breaks(core) is None
