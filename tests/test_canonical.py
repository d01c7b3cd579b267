import dataclasses

import pytest

from agony.canonical import _shifted_duals, canonical_ranking, distinct_rank_count
from agony.circulation import SolverError
from agony.exact import min_agony, verify_certificate
from agony.graph import WeightedDigraph, score_ranking
from agony.penalties import LINEAR

from conftest import brute_optima, graph_from_text, random_dag, random_graph


def _canonical_of(g, k=None):
    res = min_agony(g, k, use_scc=False)
    return res, canonical_ranking(res)


def _peel_depths(g):
    """Iteratively strip source vertices; depth of removal is the rank."""
    remaining = set(range(g.n))
    depth = [0] * g.n
    level = 0
    while remaining:
        indeg = {v: 0 for v in remaining}
        for u, v, _ in g.edges:
            if u in remaining and v in remaining:
                indeg[v] += 1
        sources = [v for v in remaining if indeg[v] == 0]
        assert sources, "not a DAG"
        for v in sources:
            depth[v] = level
            remaining.discard(v)
        level += 1
    return depth


class TestCanonical:
    def test_dag_path_is_fully_determined(self):
        g = graph_from_text("a b\nb c\n")
        _, can = _canonical_of(g, 3)
        assert can == [0, 1, 2]

    def test_edgeless_graph_all_zero(self):
        g = WeightedDigraph(4, [])
        _, can = _canonical_of(g)
        assert can == [0, 0, 0, 0]

    def test_dag_canonical_equals_source_peeling(self, rng):
        for _ in range(25):
            g = random_dag(rng, rng.randint(1, 8), 0.45, 2)
            _, can = _canonical_of(g)
            assert can == _peel_depths(g)

    def test_pointwise_minimum_over_all_optima(self, rng):
        checked = 0
        while checked < 100:
            g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
            k = rng.randint(2, min(g.n, 3))
            best, optima = brute_optima(g, k)
            res, can = _canonical_of(g, k)
            assert res.agony == best
            pointwise = [min(o[v] for o in optima) for v in range(g.n)]
            assert can == pointwise
            assert tuple(can) in set(optima)  # the minimum is itself optimal
            assert score_ranking(g, can, LINEAR) == best
            checked += 1

    def test_fewest_groups_among_optima(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
            k = rng.randint(2, min(g.n, 3))
            _, optima = brute_optima(g, k)
            _, can = _canonical_of(g, k)
            assert distinct_rank_count(can) == min(len(set(o)) for o in optima)

    def test_idempotent(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.4, 2)
            res = min_agony(g, use_scc=False)
            can = canonical_ranking(res)
            # shift the full dual vector down by the same distances and redo
            comp = res.components[0]
            comp.state.potentials = _shifted_duals(comp.state, comp.sg)
            again = canonical_ranking(dataclasses.replace(res, ranks=can))
            assert again == can

    def test_min_rank_is_zero(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7), 0.5, 3)
            _, can = _canonical_of(g)
            if g.n:
                assert min(can) == 0

    def test_rejects_bad_duals(self):
        g = graph_from_text("a b\nb c\n")
        res = min_agony(g, 3, use_scc=False)
        comp = res.components[0]
        comp.state.potentials[0] += 10 * comp.sg.k
        with pytest.raises(SolverError):
            canonical_ranking(res)

    def test_leaves_state_and_instance_unchanged(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.4, rng.choice((3, 10**6)))
            res = min_agony(g, rng.randint(2, g.n), use_scc=False)
            comp = res.components[0]
            state, inst = comp.state, comp.state.inst
            before = (
                list(state.flow), list(state.potentials),
                list(inst.asrc), list(inst.adst), list(inst.acost), list(inst.bias),
                [list(a) for a in inst.out_arcs], [list(a) for a in inst.in_arcs],
            )
            canonical_ranking(res)
            after = (
                state.flow, state.potentials,
                inst.asrc, inst.adst, inst.acost, inst.bias,
                inst.out_arcs, inst.in_arcs,
            )
            assert after == before
            assert verify_certificate(g, res, LINEAR)


class TestDistinctCount:
    def test_all_zero(self):
        assert distinct_rank_count([0, 0, 0]) == 1

    def test_empty(self):
        assert distinct_rank_count([]) == 0

    def test_mixed(self):
        assert distinct_rank_count([0, 2, 2, 5]) == 3
