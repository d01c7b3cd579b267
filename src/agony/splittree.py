"""Divide-and-conquer split tree for fast agony heuristics.

One leaf holds a root's whole vertex set; any leaf whose best bipartition
has negative gain is split, left half below right half, until no split
pays off.  A split deletes no edge and marks none: the edges between its
halves stay in place, and every scan skips them because their ends lie in
different leaves.  All counters are maintained incrementally, so the whole
build costs O(m log n).  Every split enumerates only the side with fewer
adjacent live edges (edges inside the leaf), and zero-degree vertices ride
along in starred sets whose contributions are tracked as O(1) aggregates.
A vertex that drives a split stays in a half with at most half its leaf's
live edges, so it drives O(log m) times, and scanning past its cut edges
on those occasions costs O(m log m) in all.  The one check a build makes
is that no split leaves a half empty.

One builder lays out a graph's edges once and grows a tree from each of
several disjoint roots, such as the layers of the SCC heuristic; no edge
may join two roots.  Leaves in left-to-right order induce the ranking; a
dynamic program prunes the tree to at most k leaves when a tier budget is
given.
"""
from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from operator import add
from typing import Iterator, Optional, Sequence

from .graph import WeightedDigraph


class TreeNode:
    """Node of the split tree.

    Leaves carry their vertex list; internal nodes carry the split gain,
    which is always negative.  ``leaf`` points at the working leaf state
    while a build is in progress and is dropped when the tree freezes.
    """

    __slots__ = ("left", "right", "gain", "vertices", "leaf")

    def __init__(self):
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.gain: int = 0
        self.vertices: Optional[list[int]] = None
        self.leaf = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _preorder(node: Optional[TreeNode]) -> Iterator[TreeNode]:
    """Every node of the subtree at ``node``, parents first, left to right."""
    stack = [node] if node is not None else []
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)


class SplitTree:
    """Result of a build: an ordered binary tree.

    Leaves hold the builder's vertex ids, and ``ranking()`` is sized by the
    builder's n (rank 0 outside the root).  The ranking scores the weight
    of the edges inside the root plus the sum of the (negative) split gains.
    """

    def __init__(self, root: Optional[TreeNode], n: int):
        self.root = root
        self.n = n

    def leaves(self) -> list[TreeNode]:
        return [node for node in _preorder(self.root) if node.is_leaf]

    def ranking(self) -> list[int]:
        ranks = [0] * self.n
        for i, leaf in enumerate(self.leaves()):
            for v in leaf.vertices:
                ranks[v] = i
        return ranks


class LeafState:
    """Mutable per-leaf working state during a build.

    N/P hold live (positive intra-leaf degree) vertices by the sign of
    diff(y) = flux(y) + inback(y) - outback(y); the starred sets hold the
    zero-degree ones, with their inback/outback sums kept as aggregates so
    a split never has to enumerate them.
    """

    __slots__ = (
        "N", "P", "Ns", "Ps", "back", "in_total", "out_total",
        "sin_ns", "sout_ns", "sin_ps", "sout_ps", "node",
    )

    def __init__(self):
        self.N: dict[int, None] = {}
        self.P: dict[int, None] = {}
        self.Ns: dict[int, None] = {}
        self.Ps: dict[int, None] = {}
        self.back = 0
        self.in_total = 0
        self.out_total = 0
        self.sin_ns = 0
        self.sout_ns = 0
        self.sin_ps = 0
        self.sout_ps = 0
        self.node: Optional[TreeNode] = None

    def members(self) -> list[int]:
        out = list(self.N)
        out += list(self.P)
        out += list(self.Ns)
        out += list(self.Ps)
        return out


class SplitTreeBuilder:
    """Incremental split-tree construction over the edges of n vertices.

    The edges sit in flat arrays, grouped by source with a counting sort
    that keeps the order of ``edges`` within a group: edge e runs from
    ``src[e]`` to ``dst[e]`` with weight ``wt[e]``, and vertex x sends
    edges ``out_start[x]`` to ``out_start[x + 1] - 1``.  Its in-edges are
    ``in_ids[in_start[x]:in_start[x + 1]]``, grouped by a second counting
    sort.  The arrays never change: a split leaves its cross edges in
    place, and a scan skips them because their ends lie in different
    leaves.  The builder keeps n, not the edge list.

    ``tree(vertices)`` grows one tree per call and may be called for
    several disjoint roots.  No edge may join two roots, and the edges
    must hold no self-loop and no parallel pair, as in a normalized graph:
    the counters of every vertex then read only its own root's edges.
    Every split checks that neither half is empty.  ``tree`` looks up
    ``root`` and ``split_leaf`` on the builder at each call, so a wrapper
    around them sees every leaf as it is made and can audit the counters.
    """

    def __init__(self, n: int, edges: list[tuple[int, int, int]]):
        m = len(edges)
        self.n = n
        self.flux = flux = [0] * n
        n_out = [0] * n
        n_in = [0] * n
        for u, v, w in edges:
            flux[u] -= w
            flux[v] += w
            n_out[u] += 1
            n_in[v] += 1
        self.deg = list(map(add, n_out, n_in))
        self.inb = [0] * n
        self.outb = [0] * n
        # each cursor walks from its vertex's first slot to one past its last
        out_pos = list(accumulate(n_out, initial=0))
        in_pos = list(accumulate(n_in, initial=0))
        self.out_start = array("i", out_pos)
        self.in_start = array("i", in_pos)
        self.src = array("i", list(chain.from_iterable(map(repeat, range(n), n_out))))
        self.dst = dst = array("i", [0]) * m
        self.wt = wt = [0] * m
        self.in_ids = in_ids = array("i", [0]) * m
        for u, v, w in edges:
            p = out_pos[u]
            out_pos[u] = p + 1
            dst[p] = v
            wt[p] = w
            q = in_pos[v]
            in_pos[v] = q + 1
            in_ids[q] = p

    def root(self, vertices: Sequence[int]) -> LeafState:
        """The unsplit leaf of ``vertices``, filed in the order given, and its node."""
        flux, deg = self.flux, self.deg
        leaf = LeafState()
        for v in vertices:
            if deg[v] > 0:
                (leaf.N if flux[v] < 0 else leaf.P)[v] = None
            else:
                leaf.Ps[v] = None  # diff = 0 counts as P-side
        node = TreeNode()
        leaf.node = node
        node.leaf = leaf
        return leaf

    # -- split decision ----------------------------------------------------

    def left_smaller(self, leaf: LeafState) -> bool:
        """True iff N's adjacent edge count is <= P's, in O(min) time.

        Interleaved accumulation: cross edges count once on each side and
        intra-side edges twice, so comparing degree sums is exact.
        """
        deg = self.deg
        it1 = iter(leaf.N)
        it2 = iter(leaf.P)
        y1 = next(it1, -1)
        y2 = next(it2, -1)
        c1 = c2 = 0
        while True:
            if y1 < 0 and c1 <= c2:
                return True
            if y2 < 0 and c1 >= c2:
                return False
            if c1 <= c2:
                c1 += deg[y1]
                y1 = next(it1, -1)
            else:
                c2 += deg[y2]
                y2 = next(it2, -1)

    def split_gain(self, leaf: LeafState) -> tuple[int, bool]:
        """Score change of the best split, computed from the cheaper side."""
        flux, inb, outb = self.flux, self.inb, self.outb
        left_driven = self.left_smaller(leaf)
        if left_driven:
            s = sum(flux[y] + inb[y] - outb[y] for y in leaf.N)
            gain = leaf.back + leaf.out_total + (leaf.sin_ns - leaf.sout_ns) + s
        else:
            s = sum(flux[y] + inb[y] - outb[y] for y in leaf.P)
            gain = leaf.back + leaf.in_total - (leaf.sin_ps - leaf.sout_ps) - s
        return gain, left_driven

    # -- split execution -----------------------------------------------------

    def split_leaf(self, leaf: LeafState, left_driven: bool) -> tuple[LeafState, LeafState]:
        """Split a leaf into (N u N*, P u P*), enumerating only one side.

        Updates the per-vertex counters for the cross edges between the
        halves, recomputes the leaf totals from the driving side's
        snapshots, and re-files every vertex that lost an edge.
        """
        flux, inb, outb, deg = self.flux, self.inb, self.outb, self.deg
        src, dst, wt = self.src, self.dst, self.wt
        out_start = self.out_start
        in_start, in_ids = self.in_start, self.in_ids
        drive = leaf.N if left_driven else leaf.P
        other = leaf.P if left_driven else leaf.N

        s_in = sum(inb[x] for x in drive)
        s_out = sum(outb[x] for x in drive)
        snap_back, snap_in, snap_out = leaf.back, leaf.in_total, leaf.out_total

        cross_rl = 0
        touched: dict[int, None] = {}
        for x in drive:
            for e in range(out_start[x], out_start[x + 1]):
                z = dst[e]
                if z not in other:
                    continue
                w = wt[e]
                deg[x] -= 1
                deg[z] -= 1
                flux[x] += w
                flux[z] -= w
                if not left_driven:  # x in P, z in N: a new right-to-left edge
                    outb[x] += w
                    inb[z] += w
                    cross_rl += w
                touched[x] = None
                touched[z] = None
            for e in in_ids[in_start[x]:in_start[x + 1]]:
                z = src[e]
                if z not in other:
                    continue
                w = wt[e]
                deg[x] -= 1
                deg[z] -= 1
                flux[x] -= w
                flux[z] += w
                if left_driven:  # z in P, x in N: a new right-to-left edge
                    outb[z] += w
                    inb[x] += w
                    cross_rl += w
                touched[x] = None
                touched[z] = None

        left = LeafState()
        right = LeafState()
        left.N, left.Ns = leaf.N, leaf.Ns
        right.P, right.Ps = leaf.P, leaf.Ps
        left.sin_ns, left.sout_ns = leaf.sin_ns, leaf.sout_ns
        right.sin_ps, right.sout_ps = leaf.sin_ps, leaf.sout_ps
        if left_driven:
            left.back = snap_back + snap_out - s_out - leaf.sout_ns
            right.back = snap_back + s_in + leaf.sin_ns
            left.in_total = s_in + leaf.sin_ns + cross_rl
            left.out_total = s_out + leaf.sout_ns
            right.in_total = snap_in - s_in - leaf.sin_ns
            right.out_total = snap_out - s_out - leaf.sout_ns + cross_rl
        else:
            left.back = snap_back + s_out + leaf.sout_ps
            right.back = snap_back + snap_in - s_in - leaf.sin_ps
            left.in_total = snap_in - s_in - leaf.sin_ps + cross_rl
            left.out_total = snap_out - s_out - leaf.sout_ps
            right.in_total = s_in + leaf.sin_ps
            right.out_total = s_out + leaf.sout_ps + cross_rl

        for y in touched:
            if y in left.N:
                del left.N[y]
                target = left
            else:
                del right.P[y]
                target = right
            d = flux[y] + inb[y] - outb[y]
            if deg[y] == 0:
                if d < 0:
                    target.Ns[y] = None
                    target.sin_ns += inb[y]
                    target.sout_ns += outb[y]
                else:
                    target.Ps[y] = None
                    target.sin_ps += inb[y]
                    target.sout_ps += outb[y]
            elif d < 0:
                target.N[y] = None
            else:
                target.P[y] = None
        # a one-sided split has gain back + in_total >= 0 and is never taken
        if not (left.N or left.Ns or left.P or left.Ps) or not (
            right.N or right.Ns or right.P or right.Ps
        ):
            raise AssertionError("profitable split produced an empty half")
        return left, right

    # -- driving loop ----------------------------------------------------------

    def tree(self, vertices: Sequence[int]) -> SplitTree:
        """Grow the split tree of the root that holds ``vertices``."""
        leaf = self.root(vertices)
        top = leaf.node
        stack = [leaf]
        while stack:
            leaf = stack.pop()
            gain, left_driven = self.split_gain(leaf)
            if gain >= 0:
                continue
            left, right = self.split_leaf(leaf, left_driven)
            node = leaf.node
            node.gain = gain
            node.left = TreeNode()
            node.right = TreeNode()
            node.leaf = None
            left.node = node.left
            right.node = node.right
            node.left.leaf = left
            node.right.leaf = right
            stack.append(right)
            stack.append(left)
        for node in _preorder(top):
            if node.is_leaf:
                node.vertices = sorted(node.leaf.members())
                node.leaf = None
        return SplitTree(top, self.n)


def build_split_tree(g: WeightedDigraph) -> SplitTree:
    """Build the full split tree of a normalized graph."""
    if not g.is_normalized():
        raise ValueError("graph must be normalized first (see agony.graph.normalize)")
    return SplitTreeBuilder(g.n, g.edges).tree(range(g.n))


# ---------------------------------------------------------------------------
# pruning to a tier budget
# ---------------------------------------------------------------------------

class PruneDP:
    """Budgeted pruning of a split tree by dynamic programming.

    opt(node; h) is the best achievable gain sum in the subtree using at
    most h tiers: 0 for leaves or h = 1, otherwise the node's gain plus the
    best budget split between the children.  Ties prefer the smallest
    left-child budget.
    """

    def __init__(self, tree: SplitTree, kmax: int):
        if kmax < 1:
            raise ValueError(f"tier budget must be >= 1, got {kmax}")
        self.tree = tree
        self.kmax = kmax
        # per node, opt[h] for h up to min(kmax, leaves of the subtree)
        self._opt: dict[int, list] = {}
        self._choice: dict[int, list] = {}
        if tree.root is not None:
            self._compute()

    def _compute(self):
        kmax = self.kmax
        opt, choice = self._opt, self._choice
        # reversed preorder: children before their parent
        for node in reversed(list(_preorder(self.tree.root))):
            key = id(node)
            if node.is_leaf:
                opt[key] = [0, 0]
                choice[key] = [None, None]
                continue
            lopt, ropt = opt[id(node.left)], opt[id(node.right)]
            cap_l, cap_r = len(lopt) - 1, len(ropt) - 1
            cap = min(kmax, cap_l + cap_r)
            arr = [None] * (cap + 1)
            ch = [None] * (cap + 1)
            arr[1] = 0
            for h in range(2, cap + 1):
                best = None
                best_l = None
                lo = max(1, h - cap_r)
                hi = min(cap_l, h - 1)
                for l in range(lo, hi + 1):
                    val = lopt[l] + ropt[h - l]
                    if best is None or val < best:
                        best, best_l = val, l
                arr[h] = node.gain + best
                ch[h] = best_l
            opt[key] = arr
            choice[key] = ch

    def value(self, h: int) -> int:
        """Best gain sum for the whole tree with at most h tiers."""
        if self.tree.root is None:
            return 0
        arr = self._opt[id(self.tree.root)]
        return arr[min(h, len(arr) - 1)]

    def groups(self, h: int) -> list[list[int]]:
        """Vertex groups of the optimal pruning, left to right."""
        if self.tree.root is None:
            return []
        out: list[list[int]] = []
        stack = [(self.tree.root, h)]
        while stack:
            node, budget = stack.pop()
            budget = min(budget, len(self._opt[id(node)]) - 1)
            if node.is_leaf or budget <= 1:
                out.append([v for x in _preorder(node) if x.is_leaf for v in x.vertices])
                continue
            l = self._choice[id(node)][budget]
            # right pushed first so the left group comes out first
            stack.append((node.right, budget - l))
            stack.append((node.left, l))
        return out


def prune_tree(tree: SplitTree, k: Optional[int]) -> list[int]:
    """Ranking with at most k tiers minimizing total weight plus gains.

    Every split gain is negative, so with k = None or at least one tier per
    leaf the whole tree is the optimum and no pruning runs.
    """
    if k is not None and k < 1:
        raise ValueError(f"tier budget must be >= 1, got {k}")
    if k is None or k >= len(tree.leaves()):
        return tree.ranking()
    ranks = [0] * tree.n
    for i, group in enumerate(PruneDP(tree, k).groups(k)):
        for v in group:
            ranks[v] = i
    return ranks
