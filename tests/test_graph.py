from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agony.graph import (
    ParseError,
    WeightedDigraph,
    condensation_layers,
    normalize,
    parse_edge_list,
    score_ranking,
    split_by_part,
    strongly_connected_components,
)
from agony.penalties import LINEAR, PenaltySpec

from conftest import (
    graph_from_text,
    longest_path_layer_count,
    random_graph,
    reachability_sccs,
)

TOY = "a b\nb c\nc a 2\nb d\n"

# two-cluster example: a 4-cycle feeding chain, a 3-cycle, and a bridge
TWO_CLUSTERS = "a c\nc d\nd b\nb a\ni a\nf e\ne g\ng f\ng h\ne h\na e\n"
R1 = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 1, "f": 0, "g": 1, "h": 2, "i": 0}
R2 = {"a": 1, "b": 1, "c": 2, "d": 3, "e": 2, "f": 1, "g": 1, "h": 3, "i": 0}


def _ranks(table, mapping):
    return [mapping[table.label(v)] for v in range(len(table))]


class TestParse:
    def test_toy_file(self):
        g, table = parse_edge_list(StringIO(TOY))
        assert g.n == 4 and g.m == 4
        w = {(table.label(u), table.label(v)): wt for u, v, wt in g.edges}
        assert w[("c", "a")] == 2
        assert w[("a", "b")] == 1
        assert table.labels() == ["a", "b", "c", "d"]  # first-appearance order

    def test_empty_input(self):
        g, table = parse_edge_list(StringIO(""))
        assert g.n == 0 and g.m == 0 and len(table) == 0

    def test_self_loop_removed_by_normalize(self):
        g, _ = parse_edge_list(StringIO("x x 3\n"))
        assert g.m == 1
        assert normalize(g).m == 0

    def test_comments_and_blanks_skipped(self):
        g, _ = parse_edge_list(StringIO("# header\n\na b\n  \nb c 4\n"))
        assert g.m == 2

    @pytest.mark.parametrize("bad", ["a\n", "a b c d\n", "a b x\n", "a b 0\n", "a b -2\n"])
    def test_malformed_lines_carry_line_number(self, bad):
        with pytest.raises(ParseError) as err:
            parse_edge_list(StringIO("a b\n" + bad))
        assert err.value.lineno == 2


class TestNormalize:
    def test_parallel_edges_merge_by_weight(self):
        g = WeightedDigraph(2, [(0, 1, 1), (0, 1, 2)])
        ng = normalize(g)
        assert ng.edges == [(0, 1, 3)]

    def test_pure_self_loop_graph_becomes_empty(self):
        g = WeightedDigraph(1, [(0, 0, 5)])
        assert normalize(g).m == 0

    def test_already_normalized_is_unchanged(self):
        g = graph_from_text(TOY)
        ng = normalize(g)
        assert sorted(ng.edges) == sorted(g.edges)
        assert g.is_normalized()


class TestScore:
    def test_two_cluster_example_linear(self):
        g, table = parse_edge_list(StringIO(TWO_CLUSTERS))
        # per-edge penalties: two 1s, two 2s and one 3
        assert score_ranking(g, _ranks(table, R1), LINEAR) == 9

    def test_two_cluster_example_constant(self):
        g, table = parse_edge_list(StringIO(TWO_CLUSTERS))
        assert score_ranking(g, _ranks(table, R1), PenaltySpec.constant()) == 5

    def test_two_cluster_example_better_ranking(self):
        g, table = parse_edge_list(StringIO(TWO_CLUSTERS))
        assert score_ranking(g, _ranks(table, R2), LINEAR) == 7

    def test_topological_ranking_of_dag_scores_zero(self):
        g = graph_from_text("a b\nb c\na c\nc d\n")
        assert score_ranking(g, [0, 1, 2, 3], LINEAR) == 0

    def test_zero_iff_all_edges_strictly_forward(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 7), 0.4, 2)
            ranks = [rng.randint(0, 3) for _ in range(g.n)]
            zero = score_ranking(g, ranks, LINEAR) == 0
            assert zero == all(ranks[u] < ranks[v] for u, v, _ in g.edges)

    @given(st.integers(-5, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, shift, data):
        n = data.draw(st.integers(1, 6))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
                max_size=12,
            )
        )
        g = WeightedDigraph(n, edges)
        ranks = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        shifted = [r + shift for r in ranks]
        assert score_ranking(g, ranks, LINEAR) == score_ranking(g, shifted, LINEAR)

    def test_additive_over_edge_partition(self, rng):
        for _ in range(30):
            g = random_graph(rng, 6, 0.5, 3)
            ranks = [rng.randint(0, 3) for _ in range(6)]
            half = rng.randint(0, g.m)
            g1 = WeightedDigraph(6, g.edges[:half])
            g2 = WeightedDigraph(6, g.edges[half:])
            assert score_ranking(g, ranks, LINEAR) == score_ranking(
                g1, ranks, LINEAR
            ) + score_ranking(g2, ranks, LINEAR)


class TestSCC:
    def test_toy_graph_components(self):
        g, table = parse_edge_list(StringIO(TOY))
        comps = strongly_connected_components(normalize(g))
        as_labels = [frozenset(table.label(v) for v in c) for c in comps]
        assert as_labels == [frozenset("abc"), frozenset("d")]

    def test_dag_chain_is_singletons(self):
        g = graph_from_text("a b\nb c\n")
        comps = strongly_connected_components(g)
        assert [set(c) for c in comps] == [{0}, {1}, {2}]

    def test_three_cycle_is_one_component(self):
        g = graph_from_text("a b\nb c\nc a\n")
        comps = strongly_connected_components(g)
        assert len(comps) == 1 and set(comps[0]) == {0, 1, 2}

    def test_matches_reachability_oracle(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), 0.3)
            got = {frozenset(c) for c in strongly_connected_components(g)}
            assert got == set(reachability_sccs(g))

    def test_topological_component_order(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 10), 0.3)
            comps = strongly_connected_components(g)
            pos = {}
            for i, comp in enumerate(comps):
                for v in comp:
                    pos[v] = i
            for u, v, _ in g.edges:
                assert pos[u] <= pos[v]

    def test_deep_graph_does_not_recurse(self):
        n = 30_000
        g = WeightedDigraph(n, [(i, i + 1, 1) for i in range(n - 1)])
        assert len(strongly_connected_components(g)) == n


class TestLayers:
    def test_chain_of_singletons(self):
        g = graph_from_text("a b\nb c\n")
        layers, inter = condensation_layers(g)
        assert [sorted(x) for x in layers] == [[0], [1], [2]]
        assert len(inter) == 2

    def test_two_sources_one_sink(self):
        # interning order: a=0, c=1, b=2
        g = graph_from_text("a c\nb c\n")
        layers, _ = condensation_layers(g)
        assert len(layers) == 2
        assert sorted(layers[0]) == [0, 2] and layers[1] == [1]

    def test_toy_graph_layers(self):
        g = graph_from_text(TOY)
        layers, inter = condensation_layers(g)
        assert [sorted(x) for x in layers] == [[0, 1, 2], [3]]
        assert inter == [(1, 3, 1)]

    def test_layer_count_matches_longest_path_oracle(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), 0.35)
            layers, inter = condensation_layers(g)
            assert len(layers) == longest_path_layer_count(g)
            layer_of = {}
            for i, verts in enumerate(layers):
                for v in verts:
                    layer_of[v] = i
            for u, v, _ in inter:
                assert layer_of[u] < layer_of[v]


def _naive_split(g, verts):
    """Per-part filter over all edges: the quadratic reference."""
    local = {v: i for i, v in enumerate(verts)}
    return [(local[u], local[v], w) for u, v, w in g.edges if u in local and v in local]


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return WeightedDigraph(0, [])
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 5)), max_size=40))
    return WeightedDigraph(n, edges)


class TestSplitByPart:
    def _check(self, g, parts):
        subs = split_by_part(g, parts)
        assert len(subs) == len(parts)
        for verts, sub in zip(parts, subs):
            assert sub.n == len(verts)
            assert sub.edges == _naive_split(g, verts)

    @given(_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_partition_matches_naive_filter(self, g, data):
        # label -1 leaves a vertex out; labels nobody draws give empty parts
        n_parts = data.draw(st.integers(1, 5))
        labels = data.draw(st.lists(st.integers(-1, n_parts - 1), min_size=g.n, max_size=g.n))
        order = data.draw(st.permutations(range(g.n)))
        parts = [[] for _ in range(n_parts)]
        for v in order:
            if labels[v] >= 0:
                parts[labels[v]].append(v)
        self._check(g, parts)

    @given(_graphs())
    @settings(max_examples=100, deadline=None)
    def test_sccs_and_layers_match_naive_filter(self, g):
        comps = strongly_connected_components(g)
        self._check(g, comps)
        self._check(g, [c for c in comps if len(c) > 1])
        self._check(g, condensation_layers(g)[0])

    def test_no_parts(self):
        g = graph_from_text(TOY)
        assert split_by_part(g, []) == []
        assert split_by_part(g, [[]])[0].n == 0
