from fractions import Fraction

import pytest

from agony import circulation
from agony.circulation import (
    ShiftedArc,
    ShiftedGraph,
    SolverError,
    build_agony_instance,
    build_convex_instance,
    circulation_value,
    extract_ranking,
    shifted_score,
    solve_baseline,
    solve_fast,
    uncapacitate,
)
from agony.graph import WeightedDigraph, score_ranking
from agony.penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError

from conftest import brute_min_linear, graph_from_text, random_dag, random_graph

TOY = "a b\nb c\nc a 2\nb d\n"


def _solve_both(g, k, penalty=LINEAR, **kw):
    sg = build_convex_instance(g, k, penalty)
    sb = solve_baseline(uncapacitate(sg), check_invariants=True, **kw)
    sf = solve_fast(uncapacitate(sg), check_invariants=True, **kw)
    return sg, sb, sf


class TestBuilders:
    def test_toy_instance_shape(self):
        g = graph_from_text(TOY)
        sg = build_agony_instance(g, 4)
        assert sg.n_total == 6
        cap = [a for a in sg.arcs if a.weight is not None]
        fans = [a for a in sg.arcs if a.weight is None and a.shift == 0]
        loop = [a for a in sg.arcs if a.weight is None and a.shift != 0]
        assert len(cap) == 4 and all(a.shift == 1 for a in cap)
        assert len(fans) == 8
        assert loop == [ShiftedArc(sg.omega, sg.alpha, None, -3)]
        weights = sorted(a.weight for a in cap)
        assert weights == [1, 1, 1, 2]

    def test_empty_graph_instance(self):
        g = WeightedDigraph(0, [])
        sg = build_agony_instance(g, 2)
        assert sg.n_total == 2
        assert list(sg.arcs) == [ShiftedArc(sg.omega, sg.alpha, None, -1)]

    def test_single_edge_k2(self):
        g = WeightedDigraph(2, [(0, 1, 5)])
        sg = build_agony_instance(g, 2)
        cap = [a for a in sg.arcs if a.weight is not None]
        assert cap == [ShiftedArc(0, 1, 5, 1)]
        loop = [a for a in sg.arcs if a.shift == -1]
        assert len(loop) == 1

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_agony_instance(WeightedDigraph(2, [(0, 1, 1)]), 1)

    def test_convex_two_term_doubles_arcs(self):
        # p(d) = max(0, d+1) + 2*max(0, d-3): shifts 1 and -3, second weight doubled
        g = graph_from_text("a b\nb c\nc a 2\n")
        pen = PenaltySpec.convex_sum([(1, -1), (2, 3)])
        sg = build_convex_instance(g, 3, pen)
        cap = [a for a in sg.arcs if a.weight is not None]
        assert len(cap) == 6
        by_edge = {}
        for a in cap:
            by_edge.setdefault((a.src, a.dst), []).append((a.shift, a.weight))
        for (u, v), pairs in by_edge.items():
            w = dict((s, wt) for s, wt in pairs)
            assert w[-3] == 2 * w[1]
        fans = [a for a in sg.arcs if a.weight is None]
        assert len(fans) == 2 * 3 + 1

    def test_linear_spec_equals_agony_instance(self):
        g = graph_from_text(TOY)
        a = build_agony_instance(g, 3)
        b = build_convex_instance(g, 3, PenaltySpec.convex_sum([(1, -1)]))
        assert a == b

    def test_slope_times_weight(self):
        g = WeightedDigraph(2, [(0, 1, 2)])
        sg = build_convex_instance(g, 2, PenaltySpec.convex_sum([(3, 0)]))
        cap = [a for a in sg.arcs if a.weight is not None]
        assert cap == [ShiftedArc(0, 1, 6, 0)]

    def test_scoring_only_penalties_rejected(self):
        g = graph_from_text(TOY)
        with pytest.raises(UnsupportedPenaltyError):
            build_convex_instance(g, 2, PenaltySpec.constant())
        with pytest.raises(UnsupportedPenaltyError):
            build_convex_instance(g, 2, PenaltySpec.custom(lambda d: 0))


class TestUncapacitate:
    def test_single_capacitated_arc_gadget(self):
        g = WeightedDigraph(2, [(0, 1, 1)])
        sg = build_agony_instance(g, 2)
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
            sg = build_agony_instance(g, k)
            inst = uncapacitate(sg)
            arcs = {(inst.asrc[a], inst.adst[a]): inst.acost[a] for a in range(inst.m)}
            assert arcs[(sg.omega, sg.alpha)] == k - 1

    def test_negative_shift_cost_split(self):
        sg = ShiftedGraph(2, 2, 3, 4, (ShiftedArc(0, 1, 7, -3), ShiftedArc(3, 2, None, -3)))
        inst = uncapacitate(sg)
        u = 4
        arcs = {(inst.asrc[a], inst.adst[a]): inst.acost[a] for a in range(inst.m)}
        assert arcs[(0, u)] == 3 and arcs[(1, u)] == 0
        assert arcs[(3, 2)] == 3

    def test_gadget_flow_patterns_cost_zero_vs_shift(self):
        # pushing the unit through (src, u) is free; through (dst, u) costs s
        g = WeightedDigraph(2, [(0, 1, 1)])
        inst = uncapacitate(build_agony_instance(g, 2))
        free = [a for a in range(inst.m) if (inst.asrc[a], inst.adst[a]) == (0, 4)][0]
        paid = [a for a in range(inst.m) if (inst.asrc[a], inst.adst[a]) == (1, 4)][0]
        assert inst.acost[free] == 0 and inst.acost[paid] == 1


class TestSolvers:
    def test_toy_graph_all_k(self):
        g = graph_from_text(TOY)
        for k in (2, 3, 4):
            sg, sb, sf = _solve_both(g, k)
            expect = brute_min_linear(g, k)
            assert circulation_value(sb, sg) == expect
            assert circulation_value(sf, sg) == expect
            ranks = extract_ranking(sf, sg)
            assert score_ranking(g, ranks, LINEAR) == expect
            assert 0 <= min(ranks) and max(ranks) <= k - 1

    def test_dag_gets_zero(self, rng):
        for _ in range(10):
            g = random_dag(rng, rng.randint(2, 7), 0.5, 3)
            sg, sb, sf = _solve_both(g, g.n)
            assert circulation_value(sf, sg) == circulation_value(sb, sg) == 0
            ranks = extract_ranking(sf, sg)
            assert score_ranking(g, ranks, LINEAR) == 0

    def test_two_cycle_k2(self):
        g = graph_from_text("a b\nb a\n")
        sg, sb, sf = _solve_both(g, 2)
        # both orders pay: one unit at distance one plus the return edge
        assert circulation_value(sb, sg) == circulation_value(sf, sg) == 2
        assert brute_min_linear(g, 2) == 2

    def test_fast_equals_baseline_on_random_graphs(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 12), 0.35, 3)
            k = rng.randint(2, g.n)
            sg, sb, sf = _solve_both(g, k)
            assert circulation_value(sb, sg) == circulation_value(sf, sg)

    def test_brute_force_equivalence(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.4, 3)
            k = rng.randint(2, min(g.n, 4))
            sg, _, sf = _solve_both(g, k)
            assert circulation_value(sf, sg) == brute_min_linear(g, k)

    def test_unweighted_needs_one_outer_phase(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 9), 0.4, 1)
            if g.m == 0:
                continue
            sg = build_agony_instance(g, g.n)
            st = solve_fast(uncapacitate(sg))
            assert st.stats.outer_phases == 1

    def test_strong_duality_on_shifted_graph(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), 0.4, 3)
            k = rng.randint(2, g.n)
            sg, _, sf = _solve_both(g, k)
            pots = sf.potentials
            full = [pots[v] - pots[sg.alpha] for v in range(sg.n_total)]
            assert shifted_score(sg, full) == circulation_value(sf, sg)

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
            assert circulation_value(sb, sg) == circulation_value(sf, sg) == brute_min_linear(g, k)
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
            assert circulation_value(sf, sg) == circulation_value(sb, sg) == best

    def test_fractional_slopes_report_rescaled(self):
        g = graph_from_text("a b\nb a\n")
        pen = PenaltySpec.convex_sum([(Fraction(1, 2), -1)])
        sg, _, sf = _solve_both(g, 2, pen)
        value = Fraction(circulation_value(sf, sg), pen.scale)
        assert value == min(
            score_ranking(g, r, pen) for r in ((0, 0), (0, 1), (1, 0), (1, 1))
        )

    def test_empty_instance_solves_trivially(self):
        sg = build_agony_instance(WeightedDigraph(0, []), 2)
        st = solve_fast(uncapacitate(sg))
        assert st.objective() == 0 and st.stats.augmentations == 0


class TestSolveStats:
    def test_fast_settles_every_root_per_round(self, monkeypatch, rng):
        build = circulation._build_tree
        roots = []

        def counting_build(core, sources):
            roots.append(len(core.roots))
            return build(core, sources)

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
            inst = uncapacitate(build_agony_instance(g, g.n))
            stats = solve_baseline(inst).stats
            assert stats.contractions == 0 and stats.repairs == 0
            assert stats.settles == stats.augmentations * inst.n


class TestStateSurface:
    def test_perturbed_flow_breaks_optimality(self):
        g = graph_from_text(TOY)
        sg = build_agony_instance(g, 4)
        st = solve_fast(uncapacitate(sg))
        assert st.check_optimality()
        st.flow[0] += 1
        assert not st.check_optimality()

    def test_extract_requires_window(self):
        g = graph_from_text(TOY)
        sg = build_agony_instance(g, 4)
        st = solve_fast(uncapacitate(sg))
        st.potentials[0] += sg.k + 5
        with pytest.raises(SolverError):
            extract_ranking(st, sg)


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
    """After every contraction the core's arcs run between cluster roots."""

    def test_arcs_follow_roots_and_offsets(self, monkeypatch, rng):
        contract = circulation._Core._contract_arc

        def contract_then_check(core, a):
            contract(core, a)
            inst, root, off = core.inst, core.root, core.off
            for b, (s, d, c) in enumerate(zip(inst.asrc, inst.adst, inst.acost)):
                assert core.src[b] == root[s] and core.dst[b] == root[d]
                assert core.cost[b] == c + off[d] - off[s]

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
