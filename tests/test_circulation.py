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

from baseline import solve_baseline
from conftest import brute_min_linear, graph_from_text, random_dag, random_graph

TOY = "a b\nb c\nc a 2\nb d\n"


def _solve_both(g, k, penalty=LINEAR, **kw):
    sg = build_convex_instance(g, k, penalty)
    sb = solve_baseline(uncapacitate(sg), check_invariants=True, **kw)
    sf = solve_fast(uncapacitate(sg), check_invariants=True, **kw)
    return sg, sb, sf


def _explicit_arcs(sg):
    """The shifted graph's arcs (src, dst, weight or None, shift), in order."""
    arcs = [(u, v, a * w, -b) for u, v, w in sg.g.edges for a, b in sg.terms]
    for v in range(sg.g.n):
        arcs += [(sg.alpha, v, None, 0), (v, sg.omega, None, 0)]
    return arcs + [(sg.omega, sg.alpha, None, 1 - sg.k)]


def _gadgets(inst, sg):
    """(src, dst, cost) of the two arcs into each gadget vertex, and its bias."""
    out = []
    for u in range(sg.n_total, inst.n):
        a, b = inst.in_arcs[u]
        out.append(((inst.asrc[a], u, inst.acost[a]), (inst.asrc[b], u, inst.acost[b]),
                    inst.bias[u]))
    return out


def _plain_arcs(inst, sg):
    """(src, dst, cost) of the arcs that do not enter a gadget vertex."""
    return [(inst.asrc[a], inst.adst[a], inst.acost[a])
            for a in range(inst.m) if inst.adst[a] < sg.n_total]


class TestBuilders:
    def test_toy_instance_shape(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        assert sg.n_total == 6 and (sg.alpha, sg.omega) == (4, 5)
        inst = uncapacitate(sg)
        gadgets = _gadgets(inst, sg)
        assert len(gadgets) == g.m == 4
        assert sorted(bias for _, _, bias in gadgets) == [-2, -1, -1, -1]
        # shift 1: the route from the arc's source is free, from its target costs 1
        assert all(fwd[2] == 0 and back[2] == 1 for fwd, back, _ in gadgets)
        plain = _plain_arcs(inst, sg)
        fans = [(s, d) for s, d, c in plain if c == 0]
        assert sorted(fans) == sorted([(sg.alpha, v) for v in range(4)]
                                      + [(v, sg.omega) for v in range(4)])
        assert [arc for arc in plain if arc[2] != 0] == [(sg.omega, sg.alpha, 3)]

    def test_empty_graph_instance(self):
        g = WeightedDigraph(0, [])
        sg = build_convex_instance(g, 2, LINEAR)
        assert sg.n_total == 2
        inst = uncapacitate(sg)
        assert inst.n == 2 and inst.bias == [0, 0]
        assert _plain_arcs(inst, sg) == [(sg.omega, sg.alpha, 1)]

    def test_single_edge_k2(self):
        g = WeightedDigraph(2, [(0, 1, 5)])
        sg = build_convex_instance(g, 2, LINEAR)
        assert sg.terms == ((1, -1),)
        inst = uncapacitate(sg)
        assert _gadgets(inst, sg) == [((0, 4, 0), (1, 4, 1), -5)]
        assert inst.bias[1] == 5
        loop = [arc for arc in _plain_arcs(inst, sg) if arc[2] != 0]
        assert loop == [(sg.omega, sg.alpha, 1)]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_convex_instance(WeightedDigraph(2, [(0, 1, 1)]), 1, LINEAR)

    def test_convex_two_term_doubles_arcs(self):
        # p(d) = max(0, d+1) + 2*max(0, d-3): shifts 1 and -3, second weight doubled
        g = graph_from_text("a b\nb c\nc a 2\n")
        pen = PenaltySpec.convex_sum([(1, -1), (2, 3)])
        sg = build_convex_instance(g, 3, pen)
        inst = uncapacitate(sg)
        gadgets = _gadgets(inst, sg)
        assert len(gadgets) == g.m * 2 == 6
        for (u, v, w), first, second in zip(g.edges, gadgets[::2], gadgets[1::2]):
            assert first == ((u, first[0][1], 0), (v, first[0][1], 1), -w)
            assert second == ((u, second[0][1], 3), (v, second[0][1], 0), -2 * w)
        assert len(_plain_arcs(inst, sg)) == 2 * 3 + 1

    def test_linear_spec_equals_agony_instance(self):
        g = graph_from_text(TOY)
        a = build_convex_instance(g, 3, LINEAR)
        b = build_convex_instance(g, 3, PenaltySpec.convex_sum([(1, -1)]))
        assert a == b
        ia, ib = uncapacitate(a), uncapacitate(b)
        assert (ia.asrc, ia.adst, ia.acost, ia.bias) == (ib.asrc, ib.adst, ib.acost, ib.bias)

    def test_slope_times_weight(self):
        g = WeightedDigraph(2, [(0, 1, 2)])
        sg = build_convex_instance(g, 2, PenaltySpec.convex_sum([(3, 0)]))
        assert _gadgets(uncapacitate(sg), sg) == [((0, 4, 0), (1, 4, 0), -6)]

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
            assert sg.score_offset == sum(
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
    def test_single_capacitated_arc_gadget(self):
        g = WeightedDigraph(2, [(0, 1, 1)])
        sg = build_convex_instance(g, 2, LINEAR)
        inst = uncapacitate(sg)
        # vertices: 0, 1, alpha=2, omega=3, gadget u=4
        assert inst.n == 5
        u = 4
        arcs = {(inst.asrc[a], inst.adst[a]): inst.acost[a] for a in range(inst.m)}
        assert arcs[(0, u)] == 0  # backward route free
        assert arcs[(1, u)] == 1  # forward route pays the shift
        assert inst.bias[u] == -1
        assert inst.bias[1] == 1
        assert sum(inst.bias) == 0

    def test_sentinel_loop_arc_cost(self):
        g = WeightedDigraph(4, [(0, 1, 1), (2, 3, 1)])
        for k in (2, 3, 4):
            sg = build_convex_instance(g, k, LINEAR)
            inst = uncapacitate(sg)
            arcs = {(inst.asrc[a], inst.adst[a]): inst.acost[a] for a in range(inst.m)}
            assert arcs[(sg.omega, sg.alpha)] == k - 1

    def test_negative_shift_cost_split(self):
        # hinge max(0, d - 3): shift -3, so the route from the arc's source pays 3
        g = WeightedDigraph(2, [(0, 1, 7)])
        sg = build_convex_instance(g, 4, PenaltySpec.parse("sum:1,3"))
        inst = uncapacitate(sg)
        u = 4
        arcs = {(inst.asrc[a], inst.adst[a]): inst.acost[a] for a in range(inst.m)}
        assert arcs[(0, u)] == 3 and arcs[(1, u)] == 0
        assert inst.bias[u] == -7 and inst.bias[1] == 7
        assert arcs[(3, 2)] == 3

    def test_gadget_flow_patterns_cost_zero_vs_shift(self):
        # pushing the unit through (src, u) is free; through (dst, u) costs s
        g = WeightedDigraph(2, [(0, 1, 1)])
        inst = uncapacitate(build_convex_instance(g, 2, LINEAR))
        free = [a for a in range(inst.m) if (inst.asrc[a], inst.adst[a]) == (0, 4)][0]
        paid = [a for a in range(inst.m) if (inst.asrc[a], inst.adst[a]) == (1, 4)][0]
        assert inst.acost[free] == 0 and inst.acost[paid] == 1

    def test_matches_per_arc_construction(self, rng):
        """Arcs, vertices and adjacency in the order of one gadget per arc."""
        pen = PenaltySpec.convex_sum([(1, -1), (2, 3)])
        for i in range(30):
            g = random_graph(rng, rng.randint(0, 8), 0.4, 5)
            sg = build_convex_instance(g, rng.randint(2, 6), pen if i % 2 else LINEAR)
            asrc, adst, acost, bias = [], [], [], [0] * sg.n_total
            for v, w, cap, s in _explicit_arcs(sg):
                if cap is None:
                    asrc.append(v)
                    adst.append(w)
                    acost.append(-s)
                else:
                    u = len(bias)
                    bias.append(-cap)
                    bias[w] += cap
                    asrc += [v, w]
                    adst += [u, u]
                    acost += [max(-s, 0), max(s, 0)]
            inst = uncapacitate(sg)
            assert (inst.asrc, inst.adst, inst.acost, inst.bias) == (asrc, adst, acost, bias)
            assert inst.n == len(bias)
            for x in range(inst.n):
                assert inst.out_arcs[x] == [a for a in range(inst.m) if asrc[a] == x]
                assert inst.in_arcs[x] == [a for a in range(inst.m) if adst[a] == x]


class TestSolvers:
    def test_toy_graph_all_k(self):
        g = graph_from_text(TOY)
        for k in (2, 3, 4):
            sg, sb, sf = _solve_both(g, k)
            expect = brute_min_linear(g, k)
            assert circulation_value(sb) == expect
            assert circulation_value(sf) == expect
            ranks = extract_ranking(sf)
            assert score_ranking(g, ranks, LINEAR) == expect
            assert 0 <= min(ranks) and max(ranks) <= k - 1

    def test_dag_gets_zero(self, rng):
        for _ in range(10):
            g = random_dag(rng, rng.randint(2, 7), 0.5, 3)
            sg, sb, sf = _solve_both(g, g.n)
            assert circulation_value(sf) == circulation_value(sb) == 0
            ranks = extract_ranking(sf)
            assert score_ranking(g, ranks, LINEAR) == 0

    def test_two_cycle_k2(self):
        g = graph_from_text("a b\nb a\n")
        sg, sb, sf = _solve_both(g, 2)
        # both orders pay: one unit at distance one plus the return edge
        assert circulation_value(sb) == circulation_value(sf) == 2
        assert brute_min_linear(g, 2) == 2

    def test_fast_equals_baseline_on_random_graphs(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 12), 0.35, 3)
            k = rng.randint(2, g.n)
            sg, sb, sf = _solve_both(g, k)
            assert circulation_value(sb) == circulation_value(sf)

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
            sg, sb, sf = _solve_both(g, k)
            for st in (sb, sf):
                assert st.check_optimality()
                assert all(x == 0 for x in st.inst.excess(st.flow))
                assert st.potentials[sg.omega] - st.potentials[sg.alpha] <= sg.k - 1

    def test_contraction_fires_and_stays_exact(self, rng):
        fired = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5), 0.5, 2000)
            if g.m == 0:
                continue
            k = rng.randint(2, g.n)
            sg, sb, sf = _solve_both(g, k)
            fired += sb.stats.contractions + sf.stats.contractions
            assert circulation_value(sb) == circulation_value(sf) == brute_min_linear(g, k)
        assert fired > 0

    def test_convex_instance_solved_exactly(self, rng):
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
            k = rng.randint(2, min(g.n, 4))
            sg, sb, sf = _solve_both(g, k, pen)
            best = min(
                score_ranking(g, r, pen)
                for r in __import__("itertools").product(range(k), repeat=g.n)
            )
            assert circulation_value(sf) == circulation_value(sb) == best

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
        roots = []

        def counting_build(*args):
            dist = build(*args)
            # the vertices reached, which must be the cluster roots passed last
            roots.append(sum(d is not None for d in dist))
            assert roots[-1] == args[-1]
            return dist

        monkeypatch.setattr(circulation, "_build_tree", counting_build)
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        rounds = contractions = 0
        for i in range(20):
            roots.clear()
            g = random_graph(rng, rng.randint(4, 12), 0.35, 10**6 if i % 2 else 3)
            stats = solve_fast(uncapacitate(build_convex_instance(g, min(g.n, 5), pen))).stats
            # one Dijkstra per round, and each one settles every cluster root
            assert len(roots) == stats.repairs
            assert stats.settles == sum(roots)
            rounds += stats.repairs
            contractions += stats.contractions
        assert rounds > 0 and contractions > 0

    def test_baseline_settles_every_vertex_per_augmentation(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            inst = uncapacitate(build_convex_instance(g, g.n, LINEAR))
            stats = solve_baseline(inst).stats
            assert stats.contractions == 0 and stats.repairs == 0
            assert stats.settles == stats.augmentations * inst.n


def _reference_distances(src, dst, cost, flow, pot, starts):
    """Residual shortest-path distances by Bellman-Ford over every arc with
    distinct ends, its reverse included while it carries flow; None where
    no start reaches."""
    dist = [None] * len(pot)
    for d, s in starts:
        if dist[s] is None or d < dist[s]:
            dist[s] = d
    arcs = []
    for a, (x, w, c) in enumerate(zip(src, dst, cost)):
        if x != w:
            rc = c + pot[w] - pot[x]
            arcs.append((x, w, rc))
            if flow[a]:
                arcs.append((w, x, -rc))
    changed = True
    while changed:
        changed = False
        for x, w, length in arcs:
            if dist[x] is not None and (dist[w] is None or dist[x] + length < dist[w]):
                dist[w] = dist[x] + length
                changed = True
    return dist


def _residual(n, arcs):
    """Arc arrays and adjacency lists of a list of (src, dst, cost) arcs."""
    src, dst, cost = (list(t) for t in zip(*arcs))
    out_arcs = [[] for _ in range(n)]
    in_arcs = [[] for _ in range(n)]
    for a, (x, w, _) in enumerate(arcs):
        out_arcs[x].append(a)
        in_arcs[w].append(a)
    return src, dst, cost, out_arcs, in_arcs


_build_tree = circulation._build_tree


def _checked_build_tree(src, dst, cost, out_arcs, in_arcs, flow, pot, starts, reach):
    """``_build_tree``, checked against ``_reference_distances``."""
    before = list(pot)
    ref = _reference_distances(src, dst, cost, flow, before, starts)
    dist = _build_tree(src, dst, cost, out_arcs, in_arcs, flow, pot, starts, reach)
    assert dist == ref
    assert pot == [p - (d or 0) for p, d in zip(before, dist)]
    # every reached vertex is at its start distance or entered from a reached
    # vertex by a residual arc of reduced cost 0 under the new duals
    start = {}
    for d, s in starts:
        start[s] = min(d, start.get(s, d))
    tight = set()
    for a, (x, w, c) in enumerate(zip(src, dst, cost)):
        if x != w and dist[x] is not None and dist[w] is not None and c + pot[w] == pot[x]:
            tight.add(w)
            if flow[a]:
                tight.add(x)
    for v, d in enumerate(dist):
        assert d is None or d == start.get(v) or v in tight
    return dist


class TestBuildTree:
    """The bucket-queue Dijkstra gives the residual shortest-path distances,
    a tight residual arc into every vertex not at its start distance, and
    the duals less the distances."""

    def test_matches_reference_in_solves_and_canonical_rankings(self, monkeypatch, rng):
        distinct = []

        def checked(*args):
            dist = _checked_build_tree(*args)
            distinct.append(len({d for d in dist if d is not None}))
            return dist

        monkeypatch.setattr(circulation, "_build_tree", checked)
        pen = PenaltySpec.parse("sum:1,-1;2,3")
        contractions = 0
        for i in range(12):
            g = random_graph(rng, rng.randint(8, 25), 0.15, 10**6 if i % 2 else 1)
            k = rng.choice((4, 8))
            inst = uncapacitate(build_convex_instance(g, k, pen))
            solver = solve_baseline if i % 4 == 3 else solve_fast
            state = solver(inst, check_invariants=True)
            contractions += state.stats.contractions
            starts = [(rng.randint(0, k), v) for v in range(g.n)]
            circulation.residual_distances(state, starts)
        assert contractions > 0
        assert max(distinct) >= 4  # several buckets in one run

    def test_random_residual_graphs_with_zero_cost_chains(self, rng):
        for _ in range(60):
            n = rng.randint(2, 30)
            pot = [rng.randint(-5, 5) for _ in range(n)]
            arcs, flow = [], []
            # a chain of zero-cost arcs through the vertices in random order
            order = rng.sample(range(n), n)
            for x, w in zip(order, order[1:]):
                arcs.append((x, w, pot[x] - pot[w]))
                flow.append(rng.choice((0, 2)))
            for _ in range(rng.randint(0, 3 * n)):
                x, w = rng.sample(range(n), 2)
                rc = rng.choice((0, 0, 1, 2, 7))
                arcs.append((x, w, rc + pot[x] - pot[w]))
                flow.append(0 if rc else rng.choice((0, 1)))
            starts = [(rng.randint(-2, 6), v) for v in rng.sample(range(n), min(n, 3))]
            src, dst, cost, out_arcs, in_arcs = _residual(n, arcs)
            ref = _reference_distances(src, dst, cost, flow, pot, starts)
            reach = sum(d is not None for d in ref)
            _checked_build_tree(src, dst, cost, out_arcs, in_arcs, flow, pot, starts, reach)

    def test_zero_cost_chain_beats_a_costlier_jump(self):
        n = 200
        # vertex ids fall along the chain; one arc of cost 1 jumps to its end
        arcs = [(v, v - 1, 0) for v in range(n - 1, 0, -1)] + [(n - 1, 0, 1)]
        pot = [0] * n
        src, dst, cost, out_arcs, in_arcs = _residual(n, arcs)
        dist = _build_tree(
            src, dst, cost, out_arcs, in_arcs, [0] * len(arcs), pot, [(3, n - 1)], n
        )
        assert dist == [3] * n and pot == [-3] * n

    def test_negative_reduced_cost_raises(self):
        for flow, (x, w, c) in (([0], (0, 1, -1)), ([1], (0, 1, 1))):
            # a forward arc of cost -1, or the reverse of a flow arc of cost 1
            src, dst, cost, out_arcs, in_arcs = _residual(2, [(x, w, c), (1, 0, 5)])
            with pytest.raises(SolverError, match="negative"):
                _build_tree(
                    src, dst, cost, out_arcs, in_arcs, flow + [0], [0, 0], [(0, 0), (0, 1)], 2
                )

    def test_unreachable_vertex_raises(self):
        src, dst, cost, out_arcs, in_arcs = _residual(3, [(0, 1, 0), (2, 1, 0)])
        with pytest.raises(SolverError, match="not connected"):
            _build_tree(src, dst, cost, out_arcs, in_arcs, [0, 0], [0] * 3, [(0, 0)], 3)


class TestStateSurface:
    def test_perturbed_flow_breaks_optimality(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        st = solve_fast(uncapacitate(sg))
        assert st.check_optimality()
        st.flow[0] += 1
        assert not st.check_optimality()

    def test_extract_requires_window(self):
        g = graph_from_text(TOY)
        sg = build_convex_instance(g, 4, LINEAR)
        st = solve_fast(uncapacitate(sg))
        st.potentials[0] += sg.k + 5
        with pytest.raises(SolverError):
            extract_ranking(st)


class TestAdmissibleMaxFlow:
    """After every admissible max flow the duals are feasible, the flow is
    tight and a non-negative multiple of delta, and the total excess has
    fallen."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Check every max flow of the fast solver; returns the deltas checked."""
        max_flow = circulation._admissible_max_flow
        checked = []

        def max_flow_then_check(core, sources, sinks, delta):
            before = sum(core.excess[r] for r in core.roots if core.excess[r] > 0)
            max_flow(core, sources, sinks, delta)
            inst, P = core.inst, core.potential
            for a, f in enumerate(core.flow):
                rc = inst.acost[a] + P(inst.adst[a]) - P(inst.asrc[a])
                assert rc >= 0
                assert f == 0 or rc == 0
                assert f >= 0 and f % delta == 0
            after = sum(core.excess[r] for r in core.roots if core.excess[r] > 0)
            assert after < before
            checked.append(delta)

        monkeypatch.setattr(circulation, "_admissible_max_flow", max_flow_then_check)
        return checked

    @staticmethod
    def _solve(g, k, penalty=LINEAR):
        sg = build_convex_instance(g, k, penalty)
        return solve_fast(uncapacitate(sg), check_invariants=True).stats

    def test_unit_weights(self, rounds, rng):
        total = 0
        for _ in range(8):
            g = random_graph(rng, 40, 0.09)
            total += self._solve(g, g.n).repairs
        assert len(rounds) == total > 0

    def test_convex_large_weights_with_contractions(self, rounds, rng):
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        total = 0
        for _ in range(4):
            g = random_graph(rng, 40, 0.09, 10**6)
            stats = self._solve(g, 5, pen)
            assert stats.contractions > 0
            total += stats.repairs
        assert len(rounds) == total > 0
        assert len(set(rounds)) > 1  # the checks ran at several scales


class TestContractionRewrite:
    """After every contraction an arc between two clusters runs between their
    roots with the offsets folded into its cost, an arc inside one cluster
    has equal ends in the core, the roots' adjacency lists hold exactly
    the arcs between clusters, and only clusters of two or more vertices
    have a member list."""

    def test_arcs_follow_roots_and_offsets(self, monkeypatch, rng):
        contract = circulation._Core._contract_arc

        def contract_then_check(core, a):
            contract(core, a)
            inst, root, off = core.inst, core.root, core.off
            out_arcs = {x: [] for x in core.roots}
            in_arcs = {x: [] for x in core.roots}
            for b, (s, d, c) in enumerate(zip(inst.asrc, inst.adst, inst.acost)):
                if root[s] == root[d]:
                    assert core.src[b] == core.dst[b]
                    continue
                assert core.src[b] == root[s] and core.dst[b] == root[d]
                assert core.cost[b] == c + off[d] - off[s]
                out_arcs[root[s]].append(b)
                in_arcs[root[d]].append(b)
            for x in core.roots:
                assert sorted(core.out_arcs[x]) == out_arcs[x]
                assert sorted(core.in_arcs[x]) == in_arcs[x]
            # member lists exist exactly for the clusters of two or more
            clusters = {}
            for x, r in enumerate(root):
                clusters.setdefault(r, []).append(x)
            assert {r: sorted(ms) for r, ms in core.members.items()} == {
                r: xs for r, xs in clusters.items() if len(xs) > 1
            }

        monkeypatch.setattr(circulation._Core, "_contract_arc", contract_then_check)
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        for solver in (solve_fast, solve_baseline):
            for _ in range(2):
                g = random_graph(rng, 25, 0.09, 10**6)
                inst = uncapacitate(build_convex_instance(g, 5, pen))
                before = (list(inst.asrc), list(inst.adst), list(inst.acost))
                assert solver(inst, check_invariants=True).stats.contractions > 0
                # the instance is never rewritten, only the core's copies
                assert (inst.asrc, inst.adst, inst.acost) == before
