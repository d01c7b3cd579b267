import dataclasses

import pytest

from agony import canonical, circulation
from agony.canonical import canonical_ranking, distinct_rank_count
from agony.circulation import SolverError, residual_distances
from agony.exact import min_agony, verify_certificate
from agony.graph import WeightedDigraph, score_ranking
from agony.penalties import LINEAR, PenaltySpec

from conftest import brute_optima, global_result, graph_from_text, random_dag, random_graph

# breakpoints from -3 to 2, and a slope of 1/2
PENALTIES = [
    PenaltySpec.parse(text)
    for text in ("linear", "sum:1,-3", "sum:1,-2;2,0", "sum:1/2,-1;1,1",
                 "sum:1,0", "sum:2,1", "sum:1,-3;1/2,2")
]


def _canonical_of(g, k=None):
    res = min_agony(g, k)
    return res, canonical_ranking(res)


def _starts(res):
    """Dijkstra starts that lower a one-component result to its canonical ranking."""
    return [(r, v) for v, r in enumerate(res.ranks)]


def _clustered_graph(rng, wmax):
    """Dense clusters of 1 to 5 vertices, with edges only forward between them."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
    first = [sum(sizes[:i]) for i in range(len(sizes))]
    n = sum(sizes)
    pairs = {(u, v) for s, z in zip(first, sizes) for u in range(s, s + z)
             for v in range(s, s + z) if u != v and rng.random() < 0.6}
    pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15}
    return WeightedDigraph(n, [(u, v, rng.randint(1, wmax)) for u, v in sorted(pairs)])


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
            res = global_result(g)
            can = canonical_ranking(res)
            # shift the full dual vector down by the same distances and redo
            state = res.components[0].state
            dist = residual_distances(state, _starts(res))
            state.potentials = [p - d for p, d in zip(state.potentials, dist)]
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
        res = global_result(g, 3)
        state = res.components[0].state
        state.potentials[0] += 10 * state.inst.sg.k
        with pytest.raises(SolverError):
            canonical_ranking(res)

    def test_span_check_catches_distances_one_too_long(self, monkeypatch):
        """Negative control of the span check: distances one too long put
        every rank of a one-component result one below the canonical ranks,
        the smallest at -1."""
        res = min_agony(graph_from_text("a b\nb c\nc a\n"))
        distances = canonical.residual_distances
        monkeypatch.setattr(canonical, "residual_distances",
                            lambda state, starts: [d + 1 for d in distances(state, starts)])
        with pytest.raises(SolverError, match="canonical ranks span -1"):
            canonical_ranking(res)

    def test_leaves_state_and_instance_unchanged(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.4, rng.choice((3, 10**6)))
            res = min_agony(g, rng.choice((None, rng.randint(2, g.n))))
            states = [c.state for c in res.components if c.state is not None]

            def snapshot():
                return [
                    (list(s.flow), list(s.potentials), list(s.inst.head),
                     list(s.inst.cost), list(s.inst.cap),
                     circulation._capacities(s.inst, s.flow))
                    for s in states
                ]

            before = snapshot()
            canonical_ranking(res)
            assert snapshot() == before
            assert verify_certificate(res)


class TestCanonicalPerComponent:
    """The default result is solved per SCC at the rank window cap."""

    def test_equals_canonical_of_global_solve(self, rng):
        several_solved = 0
        for i in range(300):
            if i % 2:
                g = random_graph(rng, rng.randint(1, 12), rng.choice((0.1, 0.2, 0.35)),
                                 rng.choice((3, 10**6)))
            else:
                g = _clustered_graph(rng, rng.choice((3, 10**6)))
            pen = PENALTIES[i % len(PENALTIES)]
            k = None if i % 3 else rng.randint(1, 3 * g.n)
            res = min_agony(g, k, pen)
            can = canonical_ranking(res)
            ref = global_result(g, k, pen)
            assert res.agony == ref.agony == score_ranking(g, can, pen)
            assert can == canonical_ranking(ref)
            several_solved += sum(c.state is not None for c in res.components) > 1
        assert several_solved >= 50

    def test_pointwise_minimum_at_the_cap(self, rng):
        for i in range(60):
            g = random_graph(rng, rng.randint(2, 5), 0.35, 2)
            pen = (LINEAR, PENALTIES[4], PENALTIES[5])[i % 3]  # cap n
            res = min_agony(g, penalty=pen)
            can = canonical_ranking(res)
            best, optima = brute_optima(g, res.k, pen)
            assert res.agony == best
            assert can == [min(o[v] for o in optima) for v in range(g.n)]
            assert tuple(can) in set(optima)

    def test_dag_needs_no_solve(self, rng):
        for _ in range(25):
            g = random_dag(rng, rng.randint(1, 12), 0.3, 3)
            res = min_agony(g)
            assert all(c.state is None for c in res.components)
            assert canonical_ranking(res) == _peel_depths(g)


class TestDistinctCount:
    def test_all_zero(self):
        assert distinct_rank_count([0, 0, 0]) == 1

    def test_empty(self):
        assert distinct_rank_count([]) == 0

    def test_mixed(self):
        assert distinct_rank_count([0, 2, 2, 5]) == 3
