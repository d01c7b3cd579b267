"""Heuristic rankings: plain split tree, SCC layering, and their best-of.

The SCC variant packs strongly connected components into the fewest layers,
builds one split tree per layer and stacks them so every inter-layer edge
runs forward; a DAG therefore always scores 0.  Under a tier budget the
layers compete for ranks through a two-term dynamic program whose layer
merging term is minimized by an interleaved totally-monotone search with an
incrementally maintained window weight.
"""
from __future__ import annotations

from typing import Callable, Optional

from .graph import WeightedDigraph, condensation_layers, score_ranking, split_by_part
from .penalties import LINEAR
from .splittree import PruneDP, SplitTree, build_split_tree, prune_tree

_INF = float("inf")


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

    Both pointers only move right within one scan; a query behind either
    pointer resets the window (once per interleaving level).
    """

    def __init__(self, n_layers: int, edges: list[tuple[int, int, int]]):
        self.by_hi: list[list[tuple[int, int, int]]] = [[] for _ in range(n_layers + 1)]
        self.by_lo: list[list[tuple[int, int, int]]] = [[] for _ in range(n_layers + 1)]
        for eid, (lo, hi, w) in enumerate(edges):
            self.by_hi[hi].append((lo, w, eid))
            self.by_lo[lo].append((hi, w, eid))
        self.n_edges = len(edges)
        self._reset()

    def _reset(self):
        self.j = 1
        self.i = 0
        self.total = 0
        self.in_win = bytearray(self.n_edges)

    def value(self, j: int, i: int) -> int:
        if i < self.i or j < self.j:
            self._reset()
        while self.i < i:
            self.i += 1
            cur_j = self.j
            for lo, w, eid in self.by_hi[self.i]:
                if lo >= cur_j:
                    self.total += w
                    self.in_win[eid] = 1
        while self.j < j:
            for hi, w, eid in self.by_lo[self.j]:
                if self.in_win[eid]:
                    self.total -= w
                    self.in_win[eid] = 0
            self.j += 1
        return self.total


def _layer_data(g: WeightedDigraph):
    layers, inter = condensation_layers(g)
    layer_of = [0] * g.n
    for li, verts in enumerate(layers):
        for v in verts:
            layer_of[v] = li
    subs = split_by_part(g, layers)
    subs.reverse()  # pop() hands out each subgraph in order, then drops it
    trees: list[SplitTree] = [build_split_tree(subs.pop()) for _ in layers]
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

    total_leaves = sum(len(t.leaves()) for t in trees)
    if k is None or k >= total_leaves:
        base = 0
        for verts, tree in zip(layers, trees):
            local_ranks = tree.ranking()
            for v, lr in zip(verts, local_ranks):
                ranks[v] = base + lr
            base += max(len(tree.leaves()), 1)
        return ranks
    if k < 1:
        raise ValueError(f"tier budget must be >= 1, got {k}")
    dps = [PruneDP(t, k) for t in trees]
    # gains[i - 1][l]: best gain of layer i alone on l ranks
    gains = [[dp.value(l) for l in range(k + 1)] for dp in dps]

    # lopt[i][h]: best gain of layers 1..i on h ranks; merge runs share one rank
    window = _LayerWindow(n_layers, inter)
    cum = [0] * (n_layers + 1)
    for lo, hi, w in inter:
        cum[hi] += w
    for i in range(1, n_layers + 1):
        cum[i] += cum[i - 1]

    lopt = [[_INF] * (k + 1) for _ in range(n_layers + 1)]
    choice: list[list] = [[None] * (k + 1) for _ in range(n_layers + 1)]
    for h in range(k + 1):
        lopt[0][h] = 0
    for h in range(1, k + 1):
        if h == 1:
            for i in range(1, n_layers + 1):
                lopt[i][1] = cum[i]
                choice[i][1] = ("merge", 1)
            continue
        prev = [lopt[j][h - 1] for j in range(n_layers + 1)]

        def f(j, i, _prev=prev, _win=window):
            return _win.value(j, i) + _prev[j - 1]

        jarr, jvals = monotone_min(n_layers, f)
        for i in range(1, n_layers + 1):
            spend_best = None
            spend_l = None
            l_hi = h if i == 1 else h - 1
            gain, before = gains[i - 1], lopt[i - 1]
            for l in range(1, l_hi + 1):
                rest = before[h - l]
                if rest == _INF:
                    continue
                val = gain[l] + rest
                if spend_best is None or val < spend_best:
                    spend_best, spend_l = val, l
            merge_val = jvals[i]
            if spend_best is not None and spend_best <= merge_val:
                lopt[i][h] = spend_best
                choice[i][h] = ("spend", spend_l)
            else:
                lopt[i][h] = merge_val
                choice[i][h] = ("merge", jarr[i])

    # recover the budget distribution, then assign ranks bottom layer first
    segments: list[tuple] = []
    i, h = n_layers, k
    while i >= 1:
        kind, arg = choice[i][h]
        if kind == "merge":
            segments.append(("merge", arg, i))
            i, h = arg - 1, h - 1
        else:
            segments.append(("spend", i, arg))
            i, h = i - 1, h - arg
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
                for lv in group:
                    ranks[layers[li - 1][lv]] = base + gi
            base += max(len(groups), 1)
    return ranks


def heuristic_rank(
    g: WeightedDigraph, k: Optional[int] = None, variant: str = "best"
) -> tuple[list[int], int]:
    """Heuristic ranking and its agony.

    ``plain`` builds one split tree (pruned to k tiers if k is given),
    ``scc`` adds the layer decomposition, ``best`` runs both and keeps the
    lower score, preferring the SCC result on ties.
    """
    if variant not in ("plain", "scc", "best"):
        raise ValueError(f"unknown heuristic variant {variant!r}")
    results = []
    if variant in ("plain", "best"):
        tree = build_split_tree(g)
        ranks = tree.ranking() if k is None else prune_tree(tree, k)
        results.append((score_ranking(g, ranks, LINEAR), 1, ranks))
    if variant in ("scc", "best"):
        ranks = scc_layer_heuristic(g, k)
        results.append((score_ranking(g, ranks, LINEAR), 0, ranks))
    score, _, ranks = min(results, key=lambda t: (t[0], t[1]))
    return ranks, score
