import random

import pytest

from agony.exact import min_agony
from agony.graph import WeightedDigraph, score_ranking, split_by_part
from agony.penalties import LINEAR
from agony.splittree import (
    LeafState,
    PruneDP,
    SplitTree,
    SplitTreeBuilder,
    TreeNode,
    build_split_tree,
    prune_tree,
)

from conftest import brute_min_linear, graph_from_text, internal_nodes, random_graph, split_score

TOY = "a b\nb c\nc a 2\nb d\n"


class SplitWatch:
    """Calls ``check(builder, leaves, started)`` after every split of the
    split-tree builds made while it is active.

    It wraps ``SplitTreeBuilder.root`` and ``SplitTreeBuilder.split_leaf``
    so that ``leaves`` holds the leaf states of every root grown so far,
    left to right, and ``started`` counts those roots.  ``splits`` counts
    the checks made: one per internal node of the trees grown, which every
    audited build asserts, so a wrapper that never fires fails its test.
    """

    def __init__(self, check):
        self.check = check
        self.leaves: list[LeafState] = []
        self.started = 0
        self.splits = 0

    def __enter__(self):
        root, split_leaf = SplitTreeBuilder.root, SplitTreeBuilder.split_leaf

        def watched_root(builder, vertices):
            leaf = root(builder, vertices)
            self.leaves.append(leaf)
            self.started += 1
            return leaf

        def watched_split(builder, leaf, left_driven):
            halves = split_leaf(builder, leaf, left_driven)
            i = self.leaves.index(leaf)
            self.leaves[i:i + 1] = halves
            self.check(builder, self.leaves, self.started)
            self.splits += 1
            return halves

        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(SplitTreeBuilder, "root", watched_root)
        self._patch.setattr(SplitTreeBuilder, "split_leaf", watched_split)
        return self

    def __exit__(self, *exc):
        self._patch.undo()


def audit_counters(g: WeightedDigraph) -> SplitWatch:
    """A watch that recomputes every counter from the leaf partition after
    every split of a build over all of g.

    It also checks that the builder's edge arrays hold exactly the edges
    of g, each listed under its source and its target.
    """
    return SplitWatch(lambda builder, leaves, started: _audit(
        g.n, g.edges, [range(g.n)], builder, leaves, started))


def _audit(n, edges, roots, builder: SplitTreeBuilder, leaves, started):
    """``audit_counters`` for a builder over ``edges`` whose roots partition
    range(n): ``leaves`` are those of the first ``started`` roots, left to
    right, and the roots after them are still unsplit.  No edge may join
    two roots."""
    groups = [leaf.members() for leaf in leaves] + [list(verts) for verts in roots[started:]]
    where = {}
    for gi, members in enumerate(groups):
        for v in members:
            assert v not in where, "leaf partition overlaps"
            where[v] = gi
    assert len(where) == n
    root_of = {v: ri for ri, verts in enumerate(roots) for v in verts}
    for u, v, _ in edges:
        assert root_of[u] == root_of[v], f"edge ({u}, {v}) joins two roots"

    m = len(edges)
    arrays = list(zip(builder.src, builder.dst, builder.wt))
    assert sorted(arrays) == sorted(edges)
    out_start, in_start, in_ids = builder.out_start, builder.in_start, builder.in_ids
    every_edge = list(range(m))
    assert [e for x in range(n) for e in range(out_start[x], out_start[x + 1])] == every_edge
    assert sorted(e for x in range(n) for e in in_ids[in_start[x]:in_start[x + 1]]) == every_edge
    for x in range(n):
        assert all(arrays[e][0] == x for e in range(out_start[x], out_start[x + 1]))
        assert all(arrays[e][1] == x for e in in_ids[in_start[x]:in_start[x + 1]])

    flux = [0] * n
    inb = [0] * n
    outb = [0] * n
    deg = [0] * n
    back = [0] * len(groups)
    for u, v, w in edges:
        lu, lv = where[u], where[v]
        if lu == lv:
            flux[v] += w
            flux[u] -= w
            deg[u] += 1
            deg[v] += 1
        elif lu > lv:  # backward edge: right leaf to left leaf of one root
            inb[v] += w
            outb[u] += w
            for li in range(lv + 1, lu):
                back[li] += w
    assert flux == builder.flux
    assert inb == builder.inb
    assert outb == builder.outb
    assert deg == builder.deg
    for li, leaf in enumerate(leaves):
        mem = leaf.members()
        assert leaf.back == back[li]
        assert leaf.in_total == sum(inb[v] for v in mem)
        assert leaf.out_total == sum(outb[v] for v in mem)
        assert leaf.sin_ns == sum(inb[v] for v in leaf.Ns)
        assert leaf.sout_ns == sum(outb[v] for v in leaf.Ns)
        assert leaf.sin_ps == sum(inb[v] for v in leaf.Ps)
        assert leaf.sout_ps == sum(outb[v] for v in leaf.Ps)
        for v in leaf.N:
            assert deg[v] > 0 and flux[v] + inb[v] - outb[v] < 0
        for v in leaf.P:
            assert deg[v] > 0 and flux[v] + inb[v] - outb[v] >= 0
        for v in leaf.Ns:
            assert deg[v] == 0 and flux[v] + inb[v] - outb[v] < 0
        for v in leaf.Ps:
            assert deg[v] == 0 and flux[v] + inb[v] - outb[v] >= 0


class TestBuild:
    def test_dag_path_splits_into_topological_leaves(self):
        g = graph_from_text("a b\nb c\n")
        tree = build_split_tree(g)
        groups = [leaf.vertices for leaf in tree.leaves()]
        assert groups == [[0], [1], [2]]
        assert split_score(tree, g.edges) == 0

    def test_edgeless_graph_stays_one_leaf(self):
        g = WeightedDigraph(5, [])
        tree = build_split_tree(g)
        assert len(tree.leaves()) == 1
        assert tree.ranking() == [0] * 5
        assert split_score(tree, g.edges) == 0

    def test_two_cycle_has_no_profitable_split(self):
        # any split of a unit 2-cycle scores 2, the same as one group
        g = graph_from_text("a b\nb a\n")
        tree = build_split_tree(g)
        assert len(tree.leaves()) == 1
        assert split_score(tree, g.edges) == 2 == brute_min_linear(g, 2)

    def test_toy_graph_bounded_by_optimum_and_total_weight(self):
        g = graph_from_text(TOY)
        tree = build_split_tree(g)
        assert brute_min_linear(g, 4) <= split_score(tree, g.edges) <= g.total_weight

    def test_score_identity_on_random_graphs(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 14), 0.35, 3)
            tree = build_split_tree(g)
            assert score_ranking(g, tree.ranking(), LINEAR) == split_score(tree, g.edges)

    def test_every_recorded_gain_is_negative(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.4, 3)
            tree = build_split_tree(g)
            assert all(node.gain < 0 for node in internal_nodes(tree))
            assert split_score(tree, g.edges) <= g.total_weight

    def test_gain_equals_rescoring_difference(self, rng):
        """Each split's recorded gain matches the change in true score."""
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10), 0.4, 3)
            scores = [g.total_weight]

            def rescore(_builder, leaves, _started):
                ranks = {}
                for i, leaf in enumerate(leaves):
                    for v in leaf.members():
                        ranks[v] = i
                scores.append(score_ranking(g, [ranks[v] for v in range(g.n)], LINEAR))

            with SplitWatch(rescore) as watch:
                tree = SplitTreeBuilder(g.n, g.edges).tree(range(g.n))
            gains = sorted(node.gain for node in internal_nodes(tree))
            diffs = sorted(b - a for a, b in zip(scores, scores[1:]))
            assert watch.splits == len(gains)
            assert gains == diffs

    def test_counters_match_recomputation_after_every_split(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 14), 0.3, 3)
            with audit_counters(g) as audit:
                tree = build_split_tree(g)
            assert audit.splits == len(internal_nodes(tree))

    def test_counters_match_recomputation_across_several_roots(self, rng):
        """One builder grows a tree per root; after every split of any root
        every counter matches a from-scratch recomputation, and each root's
        tree is the tree of its own induced subgraph."""
        later_splits = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 14), 0.45, 3)
            order = rng.sample(range(g.n), g.n)
            cuts = sorted(rng.sample(range(1, g.n), rng.randint(1, min(3, g.n - 1))))
            roots = [order[a:b] for a, b in zip([0] + cuts, cuts + [g.n])]
            root_of = {v: ri for ri, verts in enumerate(roots) for v in verts}
            edges = [e for e in g.edges if root_of[e[0]] == root_of[e[1]]]

            def audit(builder, leaves, started):
                nonlocal later_splits
                later_splits += started > 1
                _audit(g.n, edges, roots, builder, leaves, started)

            builder = SplitTreeBuilder(g.n, edges)
            with SplitWatch(audit) as watch:
                done = [builder.tree(verts) for verts in roots]
            assert watch.splits == sum(len(internal_nodes(tree)) for tree in done)
            for verts, tree, sub in zip(roots, done, split_by_part(g, roots)):
                ref = build_split_tree(sub)
                assert [node.gain for node in internal_nodes(tree)] == [
                    node.gain for node in internal_nodes(ref)
                ]
                assert [leaf.vertices for leaf in tree.leaves()] == [
                    sorted(verts[lv] for lv in leaf.vertices) for leaf in ref.leaves()
                ]
                assert split_score(tree, edges) == split_score(ref, sub.edges)
        assert later_splits > 0  # roots after the first were split too

    def test_unnormalized_graph_rejected(self):
        with pytest.raises(ValueError):
            build_split_tree(WeightedDigraph(1, [(0, 0, 1)]))

    def test_heuristic_never_beats_exact(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), 0.4, 3)
            tree = build_split_tree(g)
            assert split_score(tree, g.edges) >= min_agony(g).agony


class TestLeftSmaller:
    def test_unbalanced_sides(self):
        # N holds one unit-degree sender; P holds the receiver and a 2-cycle
        g = WeightedDigraph(4, [(0, 1, 1), (2, 3, 1), (3, 2, 1)])
        builder = SplitTreeBuilder(g.n, g.edges)
        leaf = builder.root(range(g.n))
        assert list(leaf.N) == [0] and sorted(leaf.P) == [1, 2, 3]
        assert builder.left_smaller(leaf)

    def test_equality_counts_as_left(self):
        g = WeightedDigraph(2, [(1, 0, 1)])
        builder = SplitTreeBuilder(g.n, g.edges)
        assert builder.left_smaller(builder.root(range(g.n)))

    def test_matches_direct_adjacency_count(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 12), 0.4, 3)
            builder = SplitTreeBuilder(g.n, g.edges)
            leaf = builder.root(range(g.n))
            if not leaf.N and not leaf.P:
                continue
            m1 = sum(
                1
                for u, v, _ in g.edges
                if u in leaf.N or v in leaf.N
            )
            m2 = sum(
                1
                for u, v, _ in g.edges
                if u in leaf.P or v in leaf.P
            )
            assert builder.left_smaller(leaf) == (m1 <= m2)


def _random_gain_tree(rng, max_leaves):
    """Synthetic split tree with random negative gains."""
    n_leaves = rng.randint(1, max_leaves)
    nodes = []
    vid = 0
    for _ in range(n_leaves):
        node = TreeNode()
        node.vertices = [vid]
        vid += 1
        nodes.append(node)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        left = nodes.pop(i)
        right = nodes.pop(i)
        parent = TreeNode()
        parent.left, parent.right = left, right
        parent.gain = -rng.randint(1, 9)
        nodes.insert(i, parent)
    return SplitTree(nodes[0], vid), n_leaves


def _all_prunings(node):
    if node.is_leaf:
        return {(1, 0)}
    out = {(1, 0)}
    for l1, g1 in _all_prunings(node.left):
        for l2, g2 in _all_prunings(node.right):
            out.add((l1 + l2, g1 + g2 + node.gain))
    return out


class TestPrune:
    def test_budget_at_least_leaf_count_is_identity(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10), 0.4, 3)
            tree = build_split_tree(g)
            full = tree.ranking()
            assert prune_tree(tree, len(tree.leaves())) == full
            assert prune_tree(tree, g.n + 5) == full
            assert prune_tree(tree, None) == full
            # the pruning DP that such budgets skip keeps every leaf too
            leaves = tree.leaves()
            assert PruneDP(tree, len(leaves)).groups(len(leaves)) == [x.vertices for x in leaves]

    def test_budget_one_collapses_everything(self, rng):
        g = random_graph(rng, 8, 0.4, 3)
        tree = build_split_tree(g)
        ranks = prune_tree(tree, 1)
        assert ranks == [0] * 8
        assert score_ranking(g, ranks, LINEAR) == g.total_weight

    def test_invalid_budget(self):
        tree = build_split_tree(WeightedDigraph(2, [(0, 1, 1)]))
        with pytest.raises(ValueError):
            prune_tree(tree, 0)

    def test_dp_matches_exhaustive_on_synthetic_trees(self):
        rng = random.Random(4242)
        for _ in range(100):
            tree, n_leaves = _random_gain_tree(rng, 12)
            prunings = _all_prunings(tree.root)
            for k in range(1, n_leaves + 2):
                best = min(gain for leaves, gain in prunings if leaves <= k)
                assert PruneDP(tree, k).value(k) == best

    def test_dp_matches_exhaustive_on_real_trees(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 12), 0.45, 3)
            tree = build_split_tree(g)
            prunings = _all_prunings(tree.root)
            for k in range(1, len(tree.leaves()) + 1):
                best = min(gain for leaves, gain in prunings if leaves <= k)
                ranks = prune_tree(tree, k)
                assert len(set(ranks)) <= k
                assert score_ranking(g, ranks, LINEAR) == g.total_weight + best
