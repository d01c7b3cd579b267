"""Directed weighted graph representation, ingestion and scoring.

Vertices are dense integer indices; external string labels are interned in a
``VertexTable`` in first-appearance order so that all downstream output is
deterministic for a given input file.
"""
from __future__ import annotations

import logging
import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import islice, pairwise
from typing import Iterable, Optional, Sequence, TextIO, Union

from .penalties import PenaltySpec, hinge_total

log = logging.getLogger(__name__)

Ranks = Sequence[int]
Score = Union[int, Fraction]


class ParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class VertexTable:
    """Bijection between external vertex labels and dense indices."""

    def __init__(self):
        self._labels: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def label(self, idx: int) -> str:
        return self._labels[idx]

    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


def tier_budget(k: Optional[int]) -> Optional[int]:
    """k, None or an ``operator.index`` value of at least 1, else ``ValueError``."""
    if k is None:
        return None
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


class WeightedDigraph:
    """Immutable directed graph with positive integer edge weights.

    ``edges``, a list of (source, target, weight) triples, is all it stores
    besides the ``is_normalized`` flag; an algorithm that needs adjacency
    builds it for one call.  A normalized graph has no self-loops and no
    parallel edges; ``normalize`` produces one.  Endpoints and weights are
    whatever ``operator.index`` accepts; a float or a string raises
    ``ValueError`` rather than being truncated or parsed.
    """

    __slots__ = ("n", "edges", "_normalized")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        self.n = n
        self.edges = []
        for edge in edges:
            try:
                u, v, w = map(operator.index, edge)
            except TypeError:
                raise ValueError(f"edge {edge!r} has a non-integer endpoint or weight") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if w < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            self.edges.append((u, v, w))
        self._normalized = None

    @classmethod
    def _adopt(
        cls, n: int, edges: list[tuple[int, int, int]], normalized: Optional[bool] = None
    ) -> WeightedDigraph:
        """Wrap edges already valid for n vertices, without the copy and checks.

        ``normalized`` is True when the caller knows the edges are; None
        leaves ``is_normalized`` to scan them.  The graph keeps ``edges``
        itself, which may be another graph's list: safe only because a
        ``WeightedDigraph`` is never mutated.
        """
        g = cls.__new__(cls)
        g.n, g.edges, g._normalized = n, edges, normalized
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def is_normalized(self) -> bool:
        """No self-loops and no parallel edges; scanned once, then cached."""
        if self._normalized is None:
            pairs = {(u, v) for u, v, _ in self.edges}
            self._normalized = len(pairs) == len(self.edges) and all(u != v for u, v in pairs)
        return self._normalized

    def __repr__(self):
        return f"WeightedDigraph(n={self.n}, m={self.m})"


def parse_edge_list(stream: TextIO) -> tuple[WeightedDigraph, VertexTable]:
    """Read lines "source target [weight]"; '#' lines and blanks are skipped.

    Labels are interned in first-appearance order.  Duplicate edges and
    self-loops are kept verbatim here; ``normalize`` merges and drops them.
    The stream is read one line at a time and only the edges and labels
    are kept, so parsing holds no more than its result and one line.
    """
    table = VertexTable()
    index = table._index
    edges: list[tuple[int, int, int]] = []
    append = edges.append
    for lineno, parts in enumerate(map(str.split, stream), start=1):
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) == 3:
            a, b, weight = parts
            if weight == "1":
                w = 1
            else:
                try:
                    w = int(weight)
                except ValueError:
                    raise ParseError(lineno, f"weight {weight!r} is not an integer") from None
                if w < 1:
                    raise ParseError(lineno, f"weight must be positive, got {w}")
        elif len(parts) == 2:
            a, b = parts
            w = 1
        else:
            raise ParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
        u = index.get(a)
        if u is None:
            u = index[a] = len(index)
        v = index.get(b)
        if v is None:
            v = index[b] = len(index)
        append((u, v, w))
    table._labels = list(index)  # a dict keeps first-appearance order
    return WeightedDigraph._adopt(len(index), edges), table


def normalize(g: WeightedDigraph) -> WeightedDigraph:
    """Drop self-loops and merge parallel edges by summing weights.

    Merging keeps every ranking's score.  A self-loop of weight w costs
    w * p(0) under every ranking, so dropping the loops lowers every score
    by the same constant and keeps the optimal rankings.

    Loops and parallel pairs are found from one sorted list of int keys,
    u * n + v for an edge and -1 for a loop.  Edges keep their
    first-appearance order, and only a merged pair gets a new tuple.  An
    input with neither shares its edge list with the result instead of
    copying it; that is safe only because a ``WeightedDigraph`` is never
    mutated.
    """
    n, edges = g.n, g.edges
    keys = [u * n + v if u != v else -1 for u, v, _ in edges]
    keys.sort()
    loops = bisect_left(keys, 0)  # a loop's key, -1, sorts first
    if not loops and not any(map(operator.eq, keys, islice(keys, 1, None))):
        return WeightedDigraph._adopt(n, edges, True)
    # a repeated key's weights are summed here; 0 marks a pair already written
    sums = dict.fromkeys((a for a, b in pairwise(islice(keys, loops, None)) if a == b), 0)
    del keys
    for u, v, w in edges:
        key = u * n + v
        if key in sums:
            sums[key] += w
    kept = []
    for edge in edges:
        u, v, _ = edge
        if u == v:
            continue
        total = sums.get(u * n + v)
        if total is None:
            kept.append(edge)
        elif total:
            kept.append((u, v, total))
            sums[u * n + v] = 0
    if loops:
        log.info("normalize: dropped %d self-loop(s)", loops)
    dupes = len(edges) - loops - len(kept)
    if dupes:
        log.info("normalize: merged %d parallel edge(s)", dupes)
    return WeightedDigraph._adopt(n, kept, True)


def score_ranking(g: WeightedDigraph, ranks: Ranks, penalty: PenaltySpec) -> Score:
    """Total weighted penalty sum over edges of w(u,v) * p(r(u) - r(v))."""
    if len(ranks) != g.n:
        raise ValueError(f"ranking covers {len(ranks)} vertices, graph has {g.n}")
    if penalty.solvable:
        return penalty.unscale(hinge_total(g.edges, ranks, penalty.integer_terms()))
    total = 0
    for u, v, w in g.edges:
        total += w * penalty(ranks[u] - ranks[v])
    if isinstance(total, Fraction) and total.denominator == 1:
        return int(total)
    return total


def strongly_connected_components(g: WeightedDigraph) -> list[list[int]]:
    """SCCs in topological order: every inter-component edge goes forward.

    Iterative Tarjan; safe on deep graphs with millions of edges.
    """
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, pos = frame
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            succ = adj[v]
            while pos < len(succ):
                w = succ[pos]
                pos += 1
                if index[w] == -1:
                    frame[1] = pos
                    work.append([w, 0])
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    comps.reverse()
    return comps


def split_by_part(g: WeightedDigraph, parts: Sequence[Sequence[int]]) -> list[WeightedDigraph]:
    """Subgraph induced by each part, from one pass over the edges.

    Part i's subgraph numbers its vertices by their position in parts[i]
    and keeps the edges of g with both endpoints in parts[i], in g.edges
    order.  Parts must be disjoint; vertices in no part are dropped.  The
    subgraphs of a graph known to be normalized are known to be too.
    """
    part_of = [-1] * g.n
    local = [0] * g.n
    for pi, verts in enumerate(parts):
        for i, v in enumerate(verts):
            part_of[v] = pi
            local[v] = i
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in parts]
    for u, v, w in g.edges:
        pu = part_of[u]
        if pu >= 0 and pu == part_of[v]:
            buckets[pu].append((local[u], local[v], w))
    normalized = g._normalized or None
    return [
        WeightedDigraph._adopt(len(verts), edges, normalized)
        for verts, edges in zip(parts, buckets)
    ]


def condensation_layers(
    g: WeightedDigraph,
) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Pack SCCs into the minimal number of layers.

    Layer 0 holds the source components; each later layer holds the
    components whose in-edges all come from strictly earlier layers, with at
    least one from the layer directly below.  Returns the layers as vertex
    lists plus the list of inter-component edges (u, v, w), which are the
    tuples of ``g.edges`` themselves, shared rather than copied.
    """
    comps = strongly_connected_components(g)
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    inter_edges: list[tuple[int, int, int]] = []
    preds: list[list[int]] = [[] for _ in comps]
    for e in g.edges:
        cu, cv = comp_of[e[0]], comp_of[e[1]]
        if cu != cv:
            inter_edges.append(e)
            preds[cv].append(cu)

    # component indices are topological (cu < cv for every inter edge), so a
    # single sweep in index order computes the longest-path layering
    layer_of_comp = [0] * len(comps)
    for ci in range(len(comps)):
        for cu in preds[ci]:
            if layer_of_comp[cu] + 1 > layer_of_comp[ci]:
                layer_of_comp[ci] = layer_of_comp[cu] + 1

    n_layers = 1 + max(layer_of_comp) if comps else 0
    layers: list[list[int]] = [[] for _ in range(n_layers)]
    for ci, comp in enumerate(comps):
        layers[layer_of_comp[ci]].extend(comp)
    return layers, inter_edges
