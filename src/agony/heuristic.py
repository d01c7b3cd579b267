"""Heuristic rankings: plain split tree, SCC layering, and their best-of.

The SCC variant packs strongly connected components into the fewest layers,
grows one split tree per layer and stacks them so every inter-layer edge
runs forward; a DAG therefore always scores 0.  One builder lays out the
graph's own intra-layer edges once and serves every layer as a root, so
the trees carry the graph's vertex ids and no layer gets a subgraph.  Under a tier budget the
layers compete for ranks through a two-term dynamic program whose layer
merging term is minimized by one interleaved totally-monotone search per
budget.  The searches read the weight of a window of layers from per-layer
prefix sums over the inter-layer edges merged by layer pair, and each one
first looks up the weights that the previous budget's search read, since
the window weight does not depend on the budget.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, Optional

from .graph import WeightedDigraph, condensation_layers, score_ranking, tier_budget
from .penalties import LINEAR
from .splittree import PruneDP, SplitTree, SplitTreeBuilder, build_split_tree, prune_tree

def monotone_min(ell: int, f: Callable[[int, int], object]) -> tuple[list, list]:
    """argmin_j f(j, i) for 1 <= j <= i <= ell, f totally monotone.

    Returns 1-based (argmins, values); ties go to the lowest j.  Positions
    are visited in an interleaved power-of-two order with previously
    computed argmins as search bounds, so f is evaluated O(ell log ell)
    times and, within one interleaving level, at (j, i) pairs that only
    move rightward, which lets f maintain window state incrementally.
    """
    jarr: list = [None] * (ell + 1)
    vals: list = [None] * (ell + 1)
    if ell < 1:
        return jarr, vals
    s = 1
    while 2 * s <= ell:
        s *= 2
    while s >= 1:
        for i in range(s, ell + 1, 2 * s):
            lo = jarr[i - s] if i - s >= 1 else 1
            hi = i if i + s > ell else min(i, jarr[i + s])
            best = None
            best_j = None
            for j in range(lo, hi + 1):
                v = f(j, i)
                if best is None or v < best:
                    best, best_j = v, j
            jarr[i] = best_j
            vals[i] = best
        s //= 2
    return jarr, vals


class _LayerWindow:
    """Incremental total weight of inter-layer edges inside layers [j, i].

    An edge (lo, hi) is inside exactly when j <= lo and hi <= i.  Edges are
    merged by layer pair; each layer keeps its sorted partner layers with
    running weight sums, so moving either pointer one layer costs one
    bisect.  Both pointers only move right within one scan; a query behind
    either pointer resets the window (once per interleaving level).
    """

    def __init__(self, n_layers: int, edges: list[tuple[int, int, int]]):
        merged: dict[tuple[int, int], int] = {}
        for lo, hi, w in edges:
            merged[lo, hi] = merged.get((lo, hi), 0) + w
        up: list[list[tuple[int, int]]] = [[] for _ in range(n_layers + 1)]
        down: list[list[tuple[int, int]]] = [[] for _ in range(n_layers + 1)]
        for (lo, hi), w in sorted(merged.items()):
            up[hi].append((lo, w))
            down[lo].append((hi, w))
        # at layer hi the edges with lo >= j weigh
        # up_sum[hi][bisect_left(up_lo[hi], j)] (suffix sums); at layer lo
        # those with hi <= i weigh down_sum[lo][bisect_right(down_hi[lo], i)]
        self.up_lo = [[lo for lo, _ in pairs] for pairs in up]
        self.up_sum = [
            list(accumulate((w for _, w in reversed(pairs)), initial=0))[::-1] for pairs in up
        ]
        self.down_hi = [[hi for hi, _ in pairs] for pairs in down]
        self.down_sum = [list(accumulate((w for _, w in pairs), initial=0)) for pairs in down]
        self._reset()

    def _reset(self):
        self.j = 1
        self.i = 0
        self.total = 0

    def value(self, j: int, i: int) -> int:
        if i < self.i or j < self.j:
            self._reset()
        total, cur_i, cur_j = self.total, self.i, self.j
        up_lo, up_sum = self.up_lo, self.up_sum
        while cur_i < i:
            cur_i += 1
            total += up_sum[cur_i][bisect_left(up_lo[cur_i], cur_j)]
        down_hi, down_sum = self.down_hi, self.down_sum
        while cur_j < j:
            total -= down_sum[cur_j][bisect_right(down_hi[cur_j], cur_i)]
            cur_j += 1
        self.total, self.i, self.j = total, cur_i, cur_j
        return total


def _layer_data(g: WeightedDigraph):
    layers, inter = condensation_layers(g)
    layer_of = [0] * g.n
    for li, verts in enumerate(layers):
        for v in verts:
            layer_of[v] = li
    # an intra-layer edge lies inside one component, so none joins two roots
    builder = SplitTreeBuilder(g.n, [e for e in g.edges if layer_of[e[0]] == layer_of[e[1]]])
    trees: list[SplitTree] = [builder.tree(verts) for verts in layers]
    del builder  # its arrays are freed before the 1-based triples are made
    inter_1based = [(layer_of[u] + 1, layer_of[v] + 1, w) for u, v, w in inter]
    return layers, trees, inter_1based


def scc_layer_heuristic(g: WeightedDigraph, k: Optional[int] = None) -> list[int]:
    """Layered heuristic: per-layer split trees stacked in layer order.

    Unconstrained, every inter-layer edge is forward.  With a budget k the
    layers receive budgets k_i, and runs of layers may be merged onto one
    shared rank; both are chosen optimally by the lopt dynamic program.
    """
    if not g.is_normalized():
        raise ValueError("graph must be normalized first (see agony.graph.normalize)")
    layers, trees, inter = _layer_data(g)
    n_layers = len(layers)
    ranks = [0] * g.n
    if n_layers == 0:
        return ranks

    n_leaves = [len(t.leaves()) for t in trees]
    if k is None or k >= sum(n_leaves):
        base = 0
        for tree in trees:
            for leaf in tree.leaves():
                for v in leaf.vertices:
                    ranks[v] = base
                base += 1
        return ranks
    dps = [PruneDP(t, k) for t in trees]
    # gains[i - 1][l]: best gain of layer i alone on l ranks; it stops
    # improving at the layer's leaf count, so the list stops there too
    gains = [[dp.value(l) for l in range(min(k, c) + 1)] for dp, c in zip(dps, n_leaves)]

    # lopt[i][h]: best gain of layers 1..i on h ranks; merge runs share one
    # rank.  Column 0 is read only for i = 0: every earlier layer needs a rank.
    window = _LayerWindow(n_layers, inter)
    lopt = [[0] * (k + 1) for _ in range(n_layers + 1)]
    # choice[i][h]: the start j > 0 of the run that layer i merges into, or
    # -l when layer i spends l ranks alone; one int per cell, not a tuple
    choice = [[1] * (k + 1) for _ in range(n_layers + 1)]
    for i in range(1, n_layers + 1):
        lopt[i][1] = window.value(1, i)
    # the window weight does not depend on h, and consecutive searches ask
    # for mostly the same (j, i) pairs: each search records the weights it
    # read, keyed j * stride + i, and the next one looks there first
    stride = n_layers + 1
    seen: dict[int, int] = {}
    for h in range(2, k + 1):
        prev = [lopt[j][h - 1] for j in range(n_layers + 1)]
        last, seen = seen, {}

        def f(j, i, _prev=prev, _last=last, _seen=seen, _win=window):
            key = j * stride + i
            w = _last.get(key)
            if w is None:
                w = _win.value(j, i)
            _seen[key] = w
            return w + _prev[j - 1]

        jarr, jvals = monotone_min(n_layers, f)
        for i in range(1, n_layers + 1):
            # lopt[i - 1] does not increase with h, so past the leaf count a
            # larger l never beats the leaf count itself
            gain, before = gains[i - 1], lopt[i - 1]
            l_hi = min(h if i == 1 else h - 1, len(gain) - 1)
            spend_best, spend_l = gain[1] + before[h - 1], 1
            for l in range(2, l_hi + 1):
                val = gain[l] + before[h - l]
                if val < spend_best:
                    spend_best, spend_l = val, l
            if spend_best <= jvals[i]:
                lopt[i][h] = spend_best
                choice[i][h] = -spend_l
            else:
                lopt[i][h] = jvals[i]
                choice[i][h] = jarr[i]

    # recover the budget distribution, then assign ranks bottom layer first
    segments: list[tuple] = []
    i, h = n_layers, k
    while i >= 1:
        arg = choice[i][h]
        if arg > 0:
            segments.append(("merge", arg, i))
            i, h = arg - 1, h - 1
        else:
            segments.append(("spend", i, -arg))
            i, h = i - 1, h + arg
    segments.reverse()

    base = 0
    for seg in segments:
        if seg[0] == "merge":
            _, a, b = seg
            for li in range(a - 1, b):
                for v in layers[li]:
                    ranks[v] = base
            base += 1
        else:
            _, li, budget = seg
            groups = dps[li - 1].groups(budget)
            for gi, group in enumerate(groups):
                for v in group:
                    ranks[v] = base + gi
            base += max(len(groups), 1)
    return ranks


def heuristic_rank(
    g: WeightedDigraph, k: Optional[int] = None, variant: str = "best"
) -> tuple[list[int], int]:
    """Heuristic ranking and its agony.

    ``plain`` builds one split tree (pruned to k tiers if k is given),
    ``scc`` adds the layer decomposition, ``best`` runs both and keeps the
    lower score, preferring the SCC result on ties.  k, if given, is an int
    of at least 1 (``graph.tier_budget``).
    """
    if variant not in ("plain", "scc", "best"):
        raise ValueError(f"unknown heuristic variant {variant!r}")
    k = tier_budget(k)
    results = []
    if variant in ("plain", "best"):
        ranks = prune_tree(build_split_tree(g), k)
        results.append((score_ranking(g, ranks, LINEAR), 1, ranks))
    if variant in ("scc", "best"):
        ranks = scc_layer_heuristic(g, k)
        results.append((score_ranking(g, ranks, LINEAR), 0, ranks))
    score, _, ranks = min(results, key=lambda t: (t[0], t[1]))
    return ranks, score
