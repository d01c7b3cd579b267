import gc
import random
import tracemalloc
from fractions import Fraction
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
from agony.exact import min_agony
from agony.penalties import LINEAR, PenaltySpec

from baseline import ReferenceParseError, parse_edge_list_reference
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


class TestConstruct:
    @pytest.mark.parametrize(
        "edge",
        [(0, 1, 1.7), (0.9, 1, 1), (0, "1", 1)],
        ids=["float weight", "float endpoint", "string endpoint"],
    )
    def test_non_integer_edge_is_refused_by_name(self, edge):
        # int() would truncate 1.7 to 1 and 0.9 to vertex 0, and parse "1"
        with pytest.raises(ValueError, match="non-integer") as err:
            WeightedDigraph(2, [(1, 0, 2), edge])
        assert repr(edge) in str(err.value)


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


_SPACE = st.sampled_from([" ", "\t", "\x0c", "  \t"])
_LABEL = st.sampled_from(["a", "b", "c", "#a", "a#", "7"])
_WEIGHT = st.sampled_from(["1", "01", "+3", "1_0", "0", "-1", "x", "\u0663"])


@st.composite
def _edge_list_line(draw) -> str:
    kind = draw(st.sampled_from(["blank", "comment", "fields"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\x0c", " \t\x0c "]))
    if kind == "comment":
        tokens = ["#" + draw(st.sampled_from(["", "a", "#"]))]
        tokens += draw(st.lists(st.one_of(_LABEL, _WEIGHT), max_size=3))
    else:
        tokens = draw(st.lists(_LABEL, min_size=1, max_size=2))
        tokens += draw(st.lists(_WEIGHT, max_size=4 - len(tokens)))
    line = "".join(t + draw(_SPACE) for t in tokens[:-1]) + tokens[-1]
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\x0c"]))


class TestParseDifferential:
    """``parse_edge_list`` against the line-stripping parser it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_edge_list_line(), max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_matches_reference_parser(self, lines, end, last_end):
        text = end.join(lines) + (end if last_end else "")
        try:
            expected = parse_edge_list_reference(StringIO(text))
        except ReferenceParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_edge_list(StringIO(text))
            assert (str(err.value), err.value.lineno) == (str(exc), exc.lineno)
            return
        g, table = parse_edge_list(StringIO(text))
        assert (g.edges, table.labels()) == expected
        assert g.n == len(table) == len(expected[1])


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


def _dict_normalize(edges):
    """Reference: merge by a dict keyed (u, v), then write one triple per key.

    Returns the merged edges in first-appearance order and the counts of
    dropped loops and merged parallel edges.
    """
    merged: dict[tuple[int, int], int] = {}
    loops = 0
    for u, v, w in edges:
        if u == v:
            loops += 1
        else:
            merged[u, v] = merged.get((u, v), 0) + w
    return [(u, v, w) for (u, v), w in merged.items()], loops, len(edges) - loops - len(merged)


def _multigraph(rng, n, m, loop_share):
    """Edges drawn from a few pairs, so parallel copies interleave with other edges."""
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(max(1, m // 3))]
    edges = []
    for _ in range(m):
        if rng.random() < loop_share:
            v = rng.randrange(n)
            edges.append((v, v, rng.randint(1, 9)))
        else:
            edges.append((*rng.choice(pairs), rng.randint(1, 9)))
    return edges


class TestNormalizeMatchesDictReference:
    """``normalize`` against the dict-based merge it replaced."""

    def _check(self, caplog, n, edges):
        g = WeightedDigraph(n, edges)
        before = list(g.edges)
        caplog.clear()
        with caplog.at_level("INFO", logger="agony.graph"):
            ng = normalize(g)
        want, loops, dupes = _dict_normalize(before)
        assert ng.edges == want  # same triples in the same order
        assert ng.n == n and ng.is_normalized() and _naive_normalized(ng.edges)
        assert g.edges == before  # the input is unchanged
        logged = [r.getMessage() for r in caplog.records]
        assert logged == [f"normalize: dropped {loops} self-loop(s)"] * bool(loops) + [
            f"normalize: merged {dupes} parallel edge(s)"
        ] * bool(dupes)
        return ng

    def test_random_multigraphs(self, rng, caplog):
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = _multigraph(rng, n, rng.randint(0, 40), rng.choice([0, 0.1, 0.4]))
            self._check(caplog, n, edges)

    def test_repeated_self_loops(self, caplog):
        edges = [(0, 0, 2), (0, 1, 1), (1, 1, 3), (0, 0, 4), (1, 0, 5), (1, 1, 1)]
        assert self._check(caplog, 2, edges).edges == [(0, 1, 1), (1, 0, 5)]

    def test_self_loops_only(self, caplog):
        assert self._check(caplog, 3, [(2, 2, 1), (0, 0, 7), (2, 2, 1)]).edges == []

    def test_parallel_pairs_interleaved(self, caplog):
        edges = [(0, 1, 1), (1, 2, 2), (0, 1, 3), (2, 0, 4), (1, 2, 5), (0, 1, 6)]
        assert self._check(caplog, 3, edges).edges == [(0, 1, 10), (1, 2, 7), (2, 0, 4)]

    def test_empty_graph(self, caplog):
        assert self._check(caplog, 0, []).edges == []
        assert self._check(caplog, 4, []).edges == []

    def test_clean_input_shares_its_edge_list(self, caplog):
        g = graph_from_text(TOY)
        raw = WeightedDigraph(g.n, g.edges)
        assert self._check(caplog, g.n, g.edges).edges == raw.edges
        assert normalize(raw).edges is raw.edges
        assert caplog.records == []


class TestNormalizedFlag:
    """``is_normalized`` is cached; only ``normalize`` and its splits skip the scan."""

    @pytest.mark.parametrize("text", ["a b\na b 2\n", "a a\n", "a b\nb b\nb a\n"])
    def test_duplicates_and_self_loops_read_false(self, text):
        g, _ = parse_edge_list(StringIO(text))
        assert not g.is_normalized()
        assert not g.is_normalized()  # the cached answer
        assert not WeightedDigraph(g.n, g.edges).is_normalized()
        assert normalize(g).is_normalized()

    def test_split_of_unnormalized_graph_does_not_claim_normalized(self):
        # part 0 holds a parallel pair, part 1 a self-loop, part 2 is clean
        g = WeightedDigraph(5, [(0, 1, 1), (0, 1, 4), (2, 2, 3), (3, 4, 1), (1, 3, 2)])
        assert not g.is_normalized()
        a, b, c = split_by_part(g, [[0, 1], [2], [3, 4]])
        assert not a.is_normalized() and not b.is_normalized()
        assert c.is_normalized()
        ng = normalize(g)
        assert all(sub.is_normalized() for sub in split_by_part(ng, [[0, 1], [2], [3, 4]]))

    def test_unnormalized_input_is_still_rejected(self):
        from agony.heuristic import scc_layer_heuristic
        from agony.splittree import build_split_tree

        parsed, _ = parse_edge_list(StringIO("a b\nb a\na b\n"))
        for g in (parsed, WeightedDigraph(2, [(0, 1, 1), (1, 0, 1), (1, 1, 2)])):
            for call in (min_agony, scc_layer_heuristic, build_split_tree):
                with pytest.raises(ValueError, match="normalized"):
                    call(g)


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

    @pytest.mark.parametrize(
        "text", ["sum:1,-1;2,3", "sum:1/2,-1;3/2,2", "sum:3/2,0", "sum:1/3,-2;5/2,1;2,0"]
    )
    def test_hinge_sum_matches_fraction_sum(self, rng, text):
        """Value and type: an int when the sum is whole, else a Fraction."""
        pen = PenaltySpec.parse(text)
        types = set()
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), 0.4, 5)
            ranks = [rng.randint(0, 6) for _ in range(g.n)]
            expect = Fraction(0)
            for u, v, w in g.edges:
                d = ranks[u] - ranks[v]
                for a, b in pen.terms:
                    if d > b:
                        expect += w * a * (d - b)
            if expect.denominator == 1:
                expect = int(expect)
            got = score_ranking(g, ranks, pen)
            assert got == expect and type(got) is type(expect)
            types.add(type(got))
        assert int in types
        if pen.scale > 1:
            assert Fraction in types


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


def _naive_normalized(edges):
    pairs = [(u, v) for u, v, _ in edges]
    return all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)


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
            assert sub.is_normalized() == _naive_normalized(sub.edges)

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
        self._check(normalize(g), parts)

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


def _five_cycle_blocks(rng: random.Random) -> WeightedDigraph:
    """5,000 vertices in 1,000 five-cycles plus forward edges, 20,000 edges.

    Each edge outside the cycles runs from a lower to a higher index, so
    the SCCs are the five-cycles and the exact solves stay small.
    """
    n, m = 5000, 20000
    edges = {(v, v + 1 if v % 5 < 4 else v - 4) for v in range(n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return normalize(WeightedDigraph(n, [(u, v, 1) for u, v in sorted(edges)]))


class TestRetainedMemory:
    """A call keeps nothing attached to its graph once its result is dropped."""

    @pytest.mark.parametrize(
        "call", [strongly_connected_components, condensation_layers, min_agony]
    )
    def test_graph_keeps_no_derived_state(self, call):
        g = _five_cycle_blocks(random.Random(0xA60))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call(g)
            del result
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained <= 16 * 1024, f"{retained} bytes retained"
