"""Directed weighted graph representation, ingestion and scoring.

Vertices are dense integer indices; external string labels are interned in a
``VertexTable`` in first-appearance order so that all downstream output is
deterministic for a given input file.
"""
from __future__ import annotations

import logging
from fractions import Fraction
from typing import Iterable, Sequence, TextIO, Union

from .penalties import PenaltySpec

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

    def index_of(self, label: str) -> int:
        return self._index[label]

    def label(self, idx: int) -> str:
        return self._labels[idx]

    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index


class WeightedDigraph:
    """Immutable directed graph with positive integer edge weights.

    ``edges`` is a list of (source, target, weight) triples.  A normalized
    graph has no self-loops and no parallel edges; ``normalize`` produces one.
    """

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        self.n = n
        self.edges = [(int(u), int(v), int(w)) for u, v, w in edges]
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if w < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
        self._out = None
        self._in = None

    @classmethod
    def _adopt(cls, n: int, edges: list[tuple[int, int, int]]) -> WeightedDigraph:
        """Wrap edges already valid for n vertices, without the copy and checks."""
        g = cls.__new__(cls)
        g.n, g.edges, g._out, g._in = n, edges, None, None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def out_adj(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (target, weight), built on first use."""
        if self._out is None:
            out = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                out[u].append((v, w))
            self._out = out
        return self._out

    def in_adj(self) -> list[list[tuple[int, int]]]:
        if self._in is None:
            inn = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                inn[v].append((u, w))
            self._in = inn
        return self._in

    def is_normalized(self) -> bool:
        seen = set()
        for u, v, _ in self.edges:
            if u == v or (u, v) in seen:
                return False
            seen.add((u, v))
        return True

    def __repr__(self):
        return f"WeightedDigraph(n={self.n}, m={self.m})"


def parse_edge_list(stream: TextIO) -> tuple[WeightedDigraph, VertexTable]:
    """Read lines "source target [weight]"; '#' lines and blanks are skipped.

    Labels are interned in first-appearance order.  Duplicate edges and
    self-loops are kept verbatim here; ``normalize`` merges and drops them.
    """
    table = VertexTable()
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
        u = table.intern(parts[0])
        v = table.intern(parts[1])
        if len(parts) == 3:
            try:
                w = int(parts[2])
            except ValueError:
                raise ParseError(lineno, f"weight {parts[2]!r} is not an integer") from None
            if w < 1:
                raise ParseError(lineno, f"weight must be positive, got {w}")
        else:
            w = 1
        edges.append((u, v, w))
    return WeightedDigraph(len(table), edges), table


def normalize(g: WeightedDigraph) -> WeightedDigraph:
    """Drop self-loops and merge parallel edges by summing weights.

    Both transformations leave every ranking's score unchanged.
    """
    merged: dict[tuple[int, int], int] = {}
    loops = 0
    for u, v, w in g.edges:
        if u == v:
            loops += 1
            continue
        key = (u, v)
        merged[key] = merged.get(key, 0) + w
    if loops:
        log.info("normalize: dropped %d self-loop(s)", loops)
    dupes = g.m - loops - len(merged)
    if dupes:
        log.info("normalize: merged %d parallel edge(s)", dupes)
    return WeightedDigraph(g.n, [(u, v, w) for (u, v), w in merged.items()])


def score_ranking(g: WeightedDigraph, ranks: Ranks, penalty: PenaltySpec) -> Score:
    """Total weighted penalty sum over edges of w(u,v) * p(r(u) - r(v))."""
    if len(ranks) != g.n:
        raise ValueError(f"ranking covers {len(ranks)} vertices, graph has {g.n}")
    if penalty.kind == "linear":
        # fast integer path for the common case
        total = 0
        for u, v, w in g.edges:
            d = ranks[u] - ranks[v] + 1
            if d > 0:
                total += w * d
        return total
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
    adj = [[v for v, _ in lst] for lst in g.out_adj()]
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
    order.  Parts must be disjoint; vertices in no part are dropped.
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
    return [WeightedDigraph._adopt(len(verts), edges) for verts, edges in zip(parts, buckets)]


def condensation_layers(
    g: WeightedDigraph,
) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Pack SCCs into the minimal number of layers.

    Layer 0 holds the source components; each later layer holds the
    components whose in-edges all come from strictly earlier layers, with at
    least one from the layer directly below.  Returns the layers as vertex
    lists plus the list of inter-component edges (u, v, w).
    """
    comps = strongly_connected_components(g)
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    inter_edges: list[tuple[int, int, int]] = []
    preds: list[list[int]] = [[] for _ in comps]
    for u, v, w in g.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            inter_edges.append((u, v, w))
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
