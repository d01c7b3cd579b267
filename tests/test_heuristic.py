import pytest

from agony.exact import min_agony
from agony.graph import (
    WeightedDigraph,
    condensation_layers,
    normalize,
    score_ranking,
    split_by_part,
)
from agony.heuristic import (
    _layer_data,
    _LayerWindow,
    heuristic_rank,
    monotone_min,
    scc_layer_heuristic,
)
from agony.penalties import LINEAR
from agony.splittree import PruneDP, _preorder, build_split_tree

from conftest import brute_min_linear, graph_from_text, random_dag, random_graph, split_score

TOY = "a b\nb c\nc a 2\nb d\n"


def _naive_window(edges, j, i):
    return sum(w for lo, hi, w in edges if j <= lo and hi <= i)


def _layered_graph(rng, n_layers, wmax):
    """Cycles of 1-3 vertices in n_layers layers, each fed by the layer below.

    Edges between layers run forward only, and most layer pairs get several
    parallel edges between different vertices.
    """
    layers, edges, n = [], [], 0
    for _ in range(n_layers):
        verts = list(range(n, n + rng.randint(1, 3)))
        n += len(verts)
        if len(verts) > 1:
            edges += [(u, v, rng.randint(1, wmax)) for u, v in zip(verts, verts[1:] + verts[:1])]
        layers.append(verts)
    for a in range(n_layers - 1):
        edges.append((rng.choice(layers[a]), rng.choice(layers[a + 1]), rng.randint(1, wmax)))
    for _ in range(rng.randint(0, 3 * n_layers)):
        a = rng.randrange(n_layers)
        b = rng.randrange(n_layers)
        if a < b:
            for _ in range(rng.randint(1, 4)):
                edges.append((rng.choice(layers[a]), rng.choice(layers[b]), rng.randint(1, wmax)))
    return normalize(WeightedDigraph(n, edges))


def _reference_scc_layers(g, k, trees=None):
    """The budget DP of ``scc_layer_heuristic`` with a fresh brute-force
    window weight for every query, nothing reused across budgets, and the
    spend loop run over every l up to the budget.  ``trees`` replaces the
    layer trees of ``_layer_data``; their leaves hold the graph's vertex ids."""
    layers, layer_trees, inter = _layer_data(g)
    trees = layer_trees if trees is None else trees
    L = len(layers)
    dps = [PruneDP(t, k) for t in trees]
    lopt = [[0] * (k + 1) for _ in range(L + 1)]
    choice = [[None] * (k + 1) for _ in range(L + 1)]
    for i in range(1, L + 1):
        lopt[i][1], choice[i][1] = _naive_window(inter, 1, i), ("merge", 1)
    for h in range(2, k + 1):
        prev = [lopt[j][h - 1] for j in range(L + 1)]
        jarr, jvals = monotone_min(L, lambda j, i: _naive_window(inter, j, i) + prev[j - 1])
        for i in range(1, L + 1):
            l_hi = h if i == 1 else h - 1
            spend, l = min(
                (dps[i - 1].value(l) + lopt[i - 1][h - l], l) for l in range(1, l_hi + 1)
            )
            if spend <= jvals[i]:
                lopt[i][h], choice[i][h] = spend, ("spend", l)
            else:
                lopt[i][h], choice[i][h] = jvals[i], ("merge", jarr[i])
    segments, i, h = [], L, k
    while i >= 1:
        kind, arg = choice[i][h]
        segments.append((kind, arg, i))
        i, h = (arg - 1, h - 1) if kind == "merge" else (i - 1, h - arg)
    ranks, base = [0] * g.n, 0
    for kind, arg, i in reversed(segments):
        if kind == "merge":
            for v in (v for verts in layers[arg - 1 : i] for v in verts):
                ranks[v] = base
            base += 1
        else:
            groups = dps[i - 1].groups(arg)
            for gi, group in enumerate(groups):
                for v in group:
                    ranks[v] = base + gi
            base += max(len(groups), 1)
    return ranks


class TestMonotoneMin:
    def test_single_position(self):
        jarr, vals = monotone_min(1, lambda j, i: 7)
        assert jarr[1] == 1 and vals[1] == 7

    def test_constant_window_reduces_to_prefix_argmin(self):
        prev = [5, 3, 9, 1, 4]

        def f(j, i):
            return prev[j - 1]

        jarr, _ = monotone_min(4, f)
        # lowest prefix value wins, ties to the lowest index
        assert jarr[1:] == [1, 2, 2, 4]

    def test_matches_naive_argmin_on_random_instances(self, rng):
        for _ in range(100):
            L = rng.randint(1, 14)
            edges = []
            for _ in range(rng.randint(0, 30)):
                lo = rng.randint(1, L)
                hi = rng.randint(1, L)
                if lo < hi:
                    edges.append((lo, hi, rng.randint(1, 6)))
            prev = [rng.randint(0, 25) for _ in range(L + 1)]

            def f_naive(j, i):
                return _naive_window(edges, j, i) + prev[j - 1]

            expected = [
                min(range(1, i + 1), key=lambda j: (f_naive(j, i), j))
                for i in range(1, L + 1)
            ]
            win = _LayerWindow(L, edges)
            jarr, vals = monotone_min(L, lambda j, i: win.value(j, i) + prev[j - 1])
            assert jarr[1:] == expected
            for i in range(1, L + 1):
                assert vals[i] == f_naive(jarr[i], i)

    def test_window_values_match_fresh_computation(self, rng):
        for _ in range(40):
            L = rng.randint(1, 10)
            edges = [
                (lo, hi, rng.randint(1, 4))
                for lo in range(1, L + 1)
                for hi in range(lo + 1, L + 1)
                if rng.random() < 0.4
            ]
            win = _LayerWindow(L, edges)
            # monotone sweep, then a reset, then another sweep
            for _ in range(2):
                j = 1
                for i in range(1, L + 1):
                    j = max(j, rng.randint(1, i))
                    assert win.value(j, i) == _naive_window(edges, j, i)
                win._reset()

    def test_window_values_in_arbitrary_query_order(self, rng):
        for _ in range(60):
            L = rng.randint(1, 12)
            edges = []  # several edges may join the same two layers
            for _ in range(rng.randint(0, 25)):
                lo = rng.randint(1, L)
                hi = rng.randint(lo, L)
                if lo < hi:
                    edges.append((lo, hi, rng.randint(1, 5)))
            win = _LayerWindow(L, edges)
            # random pairs move either pointer backward as often as forward
            for _ in range(40):
                i = rng.randint(1, L)
                j = rng.randint(1, i)
                assert win.value(j, i) == _naive_window(edges, j, i), (edges, j, i)


class TestBudgetDpEquivalence:
    """Prefix-sum window weights, reused across budgets, change no ranking."""

    def test_window_on_pair_merged_edges_in_arbitrary_order(self, rng):
        for _ in range(40):
            L = rng.randint(2, 14)
            edges = []
            for _ in range(rng.randint(1, 12)):
                lo = rng.randint(1, L - 1)
                hi = rng.randint(lo + 1, L)
                edges += [(lo, hi, rng.randint(1, 10**6)) for _ in range(rng.randint(1, 5))]
            rng.shuffle(edges)
            merged = {}
            for lo, hi, w in edges:
                merged[lo, hi] = merged.get((lo, hi), 0) + w
            raw = _LayerWindow(L, edges)
            pre = _LayerWindow(L, [(lo, hi, w) for (lo, hi), w in merged.items()])
            for _ in range(60):
                i = rng.randint(1, L)
                j = rng.randint(1, i)
                expect = _naive_window(edges, j, i)
                assert raw.value(j, i) == expect == pre.value(j, i), (edges, j, i)

    def test_rankings_equal_brute_force_window_without_reuse(self, rng):
        for _ in range(40):
            g = _layered_graph(rng, rng.randint(1, 12), 10**6)
            leaves = sum(len(t.leaves()) for t in _layer_data(g)[1])
            for k in sorted({1, 2, 3, max(1, leaves - 1), leaves}):
                expect = _reference_scc_layers(g, k)
                assert scc_layer_heuristic(g, k) == expect, (g.edges, k)


def _per_layer_trees(g):
    """The layer trees built the way the SCC heuristic once built them:
    ``split_by_part`` makes each layer's subgraph, one ``build_split_tree``
    per subgraph grows its tree, and its leaves hold layer positions."""
    layers, _ = condensation_layers(g)
    return layers, [build_split_tree(sub) for sub in split_by_part(g, layers)]


def _preorder_gains(tree):
    """Every node's gain in preorder, None at a leaf, so the shape counts too."""
    return [None if node.is_leaf else node.gain for node in _preorder(tree.root)]


def _shared_builder_inputs(rng):
    """Normalized multigraphs, layers with zero-degree vertices, DAGs whose
    layers are all single vertices, and single giant components."""
    for _ in range(25):
        n = rng.randint(1, 14)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randint(1, 4))
            for _ in range(rng.randint(0, 3 * n))
        ]
        yield normalize(WeightedDigraph(n, edges))
    for _ in range(15):
        # isolated vertices join the cycles of the first layer
        g = _layered_graph(rng, rng.randint(1, 8), 5)
        yield normalize(WeightedDigraph(g.n + rng.randint(1, 4), g.edges))
    for _ in range(10):
        n = rng.randint(1, 16)
        path = [(i, i + 1, rng.randint(1, 3)) for i in range(n - 1)]
        extra = [(u, v, 1) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.2]
        yield WeightedDigraph(n, path + extra)
    for _ in range(10):
        n = rng.randint(2, 14)
        ring = {(i, (i + 1) % n): 1 for i in range(n)}
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                ring[u, v] = rng.randint(1, 3)
        yield WeightedDigraph(n, [(u, v, w) for (u, v), w in ring.items()])


class TestSharedLayerBuilder:
    """One builder over the graph's intra-layer edges grows the trees that
    one ``build_split_tree`` per layer subgraph grew, and the SCC heuristic
    ranks exactly as it did on those trees."""

    def test_layer_trees_match_per_layer_builds(self, rng):
        for g in _shared_builder_inputs(rng):
            layers, trees, _ = _layer_data(g)
            ref_layers, ref_trees = _per_layer_trees(g)
            assert layers == ref_layers
            subs = split_by_part(g, layers)
            for verts, tree, ref, sub in zip(layers, trees, ref_trees, subs):
                assert _preorder_gains(tree) == _preorder_gains(ref), g.edges
                assert [leaf.vertices for leaf in tree.leaves()] == [
                    sorted(verts[lv] for lv in leaf.vertices) for leaf in ref.leaves()
                ], g.edges
                assert split_score(tree, g.edges) == split_score(ref, sub.edges)
                assert tree.n == g.n

    def test_rankings_match_per_layer_builds(self, rng):
        for g in _shared_builder_inputs(rng):
            layers, ref_trees = _per_layer_trees(g)
            for verts, tree in zip(layers, ref_trees):
                for leaf in tree.leaves():
                    leaf.vertices = sorted(verts[lv] for lv in leaf.vertices)
            leaves = [leaf.vertices for tree in ref_trees for leaf in tree.leaves()]
            unbudgeted = [0] * g.n
            for rank, group in enumerate(leaves):
                for v in group:
                    unbudgeted[v] = rank
            assert scc_layer_heuristic(g) == unbudgeted, g.edges
            for k in sorted({1, 2, 3, max(1, len(leaves) - 1), max(1, len(leaves))}):
                expect = _reference_scc_layers(g, k, ref_trees)
                assert scc_layer_heuristic(g, k) == expect, (g.edges, k)


class TestSccVariant:
    def test_random_dags_score_zero(self, rng):
        for _ in range(50):
            g = random_dag(rng, rng.randint(1, 12), 0.4, 3)
            ranks = scc_layer_heuristic(g)
            assert score_ranking(g, ranks, LINEAR) == 0

    def test_single_component_equals_plain(self, rng):
        for _ in range(40):
            n = rng.randint(2, 8)
            # ring plus chords keeps everything in one component
            edges = {(i, (i + 1) % n): 1 for i in range(n)}
            for _ in range(rng.randint(0, 6)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges[(u, v)] = rng.randint(1, 3)
            g = WeightedDigraph(n, [(u, v, w) for (u, v), w in edges.items()])
            k = rng.choice([None, rng.randint(1, n)])
            plain, _ = heuristic_rank(g, k, "plain")
            scc = scc_layer_heuristic(g, k)
            assert scc == plain

    def test_budget_respected(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.35, 3)
            for k in range(1, g.n + 1):
                ranks = scc_layer_heuristic(g, k)
                assert len(set(ranks)) <= k
                if ranks:
                    assert min(ranks) == 0

    def test_never_beats_exact(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 8), 0.4, 3)
            for k in range(2, g.n + 1):
                s = score_ranking(g, scc_layer_heuristic(g, k), LINEAR)
                assert s >= min_agony(g, k).agony

    def test_toy_graph_unconstrained(self):
        g = graph_from_text(TOY)
        ranks = scc_layer_heuristic(g)
        # the single nontrivial component is layered before the sink vertex
        assert ranks[3] == max(ranks)
        assert score_ranking(g, ranks, LINEAR) >= brute_min_linear(g, 4)

    def test_constrained_score_matches_naive_layer_dp(self, rng):
        """The produced ranking realizes exactly the value of a quadratic
        reference DP over (merge runs, per-layer budgets)."""
        INF = float("inf")
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 11), 0.35, 3)
            layers, inter = condensation_layers(g)
            L = len(layers)
            layer_of = {}
            for li, verts in enumerate(layers):
                for v in verts:
                    layer_of[v] = li
            inter1 = [(layer_of[u] + 1, layer_of[v] + 1, w) for u, v, w in inter]
            intra_weight = sum(w for u, v, w in g.edges if layer_of[u] == layer_of[v])
            for k in range(1, g.n + 1):
                # independent reference: O(L^2 k) scans, fresh window weights
                dps = []
                for verts in layers:
                    local = {v: i for i, v in enumerate(verts)}
                    sub_edges = [
                        (local[u], local[v], w)
                        for u, v, w in g.edges
                        if u in local and v in local
                    ]
                    dps.append(PruneDP(build_split_tree(WeightedDigraph(len(verts), sub_edges)), k))

                def w_win(j, i):
                    return sum(w for lo, hi, w in inter1 if j <= lo and hi <= i)

                lopt = [[INF] * (k + 1) for _ in range(L + 1)]
                for h in range(k + 1):
                    lopt[0][h] = 0
                for i in range(1, L + 1):
                    for h in range(1, k + 1):
                        best = min(
                            w_win(j, i) + lopt[j - 1][h - 1]
                            for j in range(1, i + 1)
                            if lopt[j - 1][h - 1] != INF
                        )
                        l_hi = h if i == 1 else h - 1
                        for l in range(1, l_hi + 1):
                            if lopt[i - 1][h - l] != INF:
                                best = min(best, dps[i - 1].value(l) + lopt[i - 1][h - l])
                        lopt[i][h] = best
                expect = intra_weight + lopt[L][k] if L else 0
                got = score_ranking(g, scc_layer_heuristic(g, k), LINEAR)
                assert got == expect, (g.edges, k, got, expect)


class TestFacade:
    def test_plain_at_k2_is_optimal(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.4, 3)
            ranks, score = heuristic_rank(g, 2, "plain")
            assert score == brute_min_linear(g, 2)
            assert score == score_ranking(g, ranks, LINEAR)

    def test_best_takes_the_minimum(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), 0.35, 3)
            k = rng.choice([None, max(1, g.n // 2)])
            _, sp = heuristic_rank(g, k, "plain")
            _, ss = heuristic_rank(g, k, "scc")
            rb, sb = heuristic_rank(g, k, "best")
            assert sb == min(sp, ss)
            if ss == sp:  # ties prefer the scc result
                assert rb == heuristic_rank(g, k, "scc")[0]

    def test_dag_best_and_scc_zero(self, rng):
        g = random_dag(rng, 9, 0.4, 2)
        _, s = heuristic_rank(g, None, "scc")
        assert s == 0
        _, s = heuristic_rank(g, None, "best")
        assert s == 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            heuristic_rank(WeightedDigraph(1, []), None, "magic")

    @pytest.mark.parametrize("variant", ["plain", "scc", "best"])
    @pytest.mark.parametrize("n", [0, 4])
    def test_bad_budget_rejected_by_every_variant(self, variant, n):
        # the empty graph too: the SCC variant used to return before checking k
        g = WeightedDigraph(n, [(0, 1, 1), (1, 0, 1)] if n else [])
        for k, match in ((0, "k must be >= 1"), (-3, "k must be >= 1"),
                         (2.5, "k must be an integer"), ("2", "k must be an integer")):
            with pytest.raises(ValueError, match=match):
                heuristic_rank(g, k, variant)

    def test_score_matches_ranking(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), 0.4, 3)
            for variant in ("plain", "scc", "best"):
                ranks, score = heuristic_rank(g, None, variant)
                assert score == score_ranking(g, ranks, LINEAR)
