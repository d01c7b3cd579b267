import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from agony import exact
from agony.circulation import SolverError
from agony.exact import min_agony, verify_certificate
from agony.graph import WeightedDigraph, score_ranking
from agony.penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError

from conftest import (
    brute_min_linear,
    brute_optima,
    global_result,
    graph_from_text,
    random_dag,
    random_graph,
    reference_result,
)

TOY = "a b\nb c\nc a 2\nb d\n"
TWO_CYCLES = "a b\nb c\nc a\nc d\nd e\ne f\nf d\ne d 2\n"


class TestMinAgony:
    def test_dag_scores_zero(self, rng):
        for _ in range(20):
            g = random_dag(rng, rng.randint(1, 8), 0.5, 3)
            res = min_agony(g)
            assert res.agony == 0
            assert all(res.ranks[u] < res.ranks[v] for u, v, _ in g.edges)

    def test_toy_graph_value(self):
        g = graph_from_text(TOY)
        res = min_agony(g, 4)
        assert res.agony == brute_min_linear(g, 4) == 3

    def test_oracle_equivalence_small(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7), 0.4, 3)
            for k in range(2, g.n + 1):
                res = min_agony(g, k)
                assert res.agony == brute_min_linear(g, k)
                assert score_ranking(g, res.ranks, LINEAR) == res.agony
                assert max(res.ranks) <= k - 1 and min(res.ranks) == 0

    def test_monotone_in_k(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), 0.45, 3)
            values = [min_agony(g, k).agony for k in range(2, g.n + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_stats_sum_over_components(self):
        g = graph_from_text(TWO_CYCLES)
        res = min_agony(g)
        parts = [c.state.stats for c in res.components if c.state is not None]
        assert len(parts) == 2
        for name in ("outer_phases", "augmentations", "contractions", "repairs", "settles"):
            assert getattr(res.stats, name) == sum(getattr(p, name) for p in parts)
        assert res.stats.settles > 0

    def test_scc_path_equals_plain_path(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.3, 3)
            with_scc = min_agony(g)
            without = global_result(g)
            assert with_scc.agony == without.agony
            assert score_ranking(g, with_scc.ranks, LINEAR) == with_scc.agony

    def test_convex_penalty_exact(self, rng):
        pen = PenaltySpec.convex_sum([(1, -1), (2, 1)])
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
            for k in range(2, min(g.n, 4) + 1):
                res = min_agony(g, k, pen)
                best, _ = brute_optima(g, k, pen)
                assert res.agony == best

    def test_baseline_solver_option(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), 0.4, 3)
            k = rng.randint(2, g.n)
            base = reference_result(g, k)
            fast = global_result(g, k)
            assert base.agony == fast.agony == min_agony(g, k).agony
            assert base.objective == fast.objective

    def test_strong_duality_check_catches_a_wrong_circulation_value(self, monkeypatch):
        """Negative control: a circulation value one above the ranking's
        score raises rather than being reported as the agony."""
        value = exact.circulation_value
        monkeypatch.setattr(exact, "circulation_value", lambda state: value(state) + 1)
        with pytest.raises(SolverError, match="strong duality broken"):
            min_agony(graph_from_text(TOY))

    def test_k_one_is_trivial(self):
        g = graph_from_text(TOY)
        res = min_agony(g, 1)
        assert res.ranks == [0, 0, 0, 0]
        assert res.agony == score_ranking(g, [0] * 4, LINEAR) == g.total_weight

    def test_singleton_components_bypass_solver(self):
        g = graph_from_text("a b\nb c\n")
        res = min_agony(g)
        assert res.agony == 0
        assert all(c.state is None for c in res.components)

    def test_empty_graph(self):
        res = min_agony(WeightedDigraph(0, []))
        assert res.ranks == [] and res.agony == 0

    def test_scc_with_small_k_rejected(self):
        g = graph_from_text(TOY)
        assert min_agony(g, 2).used_scc is False

    def test_scoring_only_penalty_rejected(self):
        g = graph_from_text(TOY)
        with pytest.raises(UnsupportedPenaltyError):
            min_agony(g, penalty=PenaltySpec.constant())

    def test_unnormalized_graph_rejected(self):
        g = WeightedDigraph(2, [(0, 1, 1), (0, 1, 2)])
        with pytest.raises(ValueError):
            min_agony(g)

    @pytest.mark.parametrize("n", [0, 4])
    def test_bad_budget_rejected(self, n):
        g = graph_from_text(TOY) if n else WeightedDigraph(0, [])
        for k, match in ((0, "k must be >= 1"), (-3, "k must be >= 1"),
                         (2.5, "k must be an integer"), ("2", "k must be an integer")):
            with pytest.raises(ValueError, match=match):
                min_agony(g, k)
        # an integer type that is not int counts as an int
        assert min_agony(g, True).k == 1

    def test_k_above_n_clamps(self):
        g = graph_from_text(TOY)
        assert min_agony(g, 10).agony == min_agony(g, 4).agony

    def test_per_component_breakdown(self):
        # two separate 2-cycles and one isolated vertex
        g = graph_from_text("a b\nb a\nc d\nd c\ne f\n")
        res = min_agony(g)
        assert res.used_scc
        sizes = sorted(len(c.vertices) for c in res.components)
        assert sizes == [1, 1, 2, 2]
        assert res.agony == 4


class TestCertificate:
    def test_true_on_solved_instances(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.4, 3)
            for res in (min_agony(g), global_result(g)):
                assert verify_certificate(res)
            k = rng.randint(2, max(g.n, 2))
            res = global_result(g, k)
            assert verify_certificate(res)

    def test_false_when_rank_perturbed(self):
        g = graph_from_text(TOY)
        res = min_agony(g, 4)
        res.ranks[0] += 1
        assert not verify_certificate(res)

    def test_false_when_flow_perturbed(self):
        g = graph_from_text(TOY)
        res = global_result(g, 4)
        res.components[0].state.flow[0] += 1
        assert not verify_certificate(res)

    def test_false_when_an_edge_between_components_costs(self):
        """Negative control of the circulation total.  Ranks that put the
        edge b -> d between two components backward, with the agony
        rescored to match, keep every component's certificate, so only the
        total of the circulation values tells them from an optimum."""
        g = graph_from_text(TOY)  # the cycle a b c, then d after b
        res = min_agony(g)
        ranks = [r + 1 for r in res.ranks]
        ranks[3] = 0
        moved = dataclasses.replace(res, ranks=ranks, agony=score_ranking(g, ranks, LINEAR))
        assert moved.agony > res.agony
        solved = [c for c in moved.components if c.state is not None]
        assert solved and all(c.state.certifies(c.local_ranks) for c in solved)
        assert not verify_certificate(moved)

    def test_false_when_agony_misreported(self):
        g = graph_from_text(TOY)
        res = min_agony(g, 4)
        res.agony += 1
        assert not verify_certificate(res)


def _trace_points():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.POINTS


class TestTracerContract:
    """The traced benchmark wraps module attributes by name; a rename must
    fail here, not only in the benchmark."""

    def test_every_trace_point_resolves(self):
        points = _trace_points()
        assert points
        for module, attr, _, _ in points:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_exact_stages_run_through_module_attributes(self, monkeypatch):
        calls = []
        for module, attr, _, _ in _trace_points():
            if module == "agony.exact":
                original = getattr(exact, attr)

                def counted(*args, _attr=attr, _original=original, **kwargs):
                    calls.append(_attr)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(exact, attr, counted)
        min_agony(graph_from_text(TOY), 4)
        for attr in ("build_convex_instance", "uncapacitate", "solve_fast", "extract_ranking"):
            assert attr in calls


class TestSolverStateBoundary:
    """Only ``agony.circulation`` knows the instance layout: every other
    module reads a solved state through its public functions and methods."""

    LAYOUT = {"alpha", "omega", "n_total"}

    def test_no_other_module_reads_the_layout(self):
        faults = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "agony").glob("*.py")):
            if path.name == "circulation.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "circulation", "agony.circulation"
                ):
                    faults += [
                        f"{path.name}:{node.lineno} imports {a.name}"
                        for a in node.names if a.name.startswith("_")
                    ]
                elif isinstance(node, ast.Attribute) and (
                    node.attr in self.LAYOUT
                    or (isinstance(node.value, ast.Name) and node.value.id == "circulation"
                        and node.attr.startswith("_"))
                ):
                    faults.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        assert not faults, faults
