"""Seeded graph generators for the benchmark workloads, linear in the edge count.

Every generator takes a seed (an integer or a string key) and returns
``(n, edges)`` with vertices 0..n-1 and ``edges`` a list of distinct
``(u, v, w)`` triples without self-loops, in a seed-shuffled order.  Only
``random.Random.random`` is drawn from, so a seed gives the same graph
across Python versions.
"""
from __future__ import annotations

import random

# Degree exponent of the power-law graphs.  Web and citation graphs, the
# paper's large inputs, lie around 2.1; at that exponent the hubs are heavy
# enough that a 500-vertex graph with 5 edges per vertex has one giant SCC.
GAMMA = 2.1
# How many preceding components a many-SCC component may receive edges from.
# A short window keeps the condensation deep (hundreds of layers), which is
# what makes the per-layer edge scans of the heuristic quadratic.
WINDOW = 8


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _shuffled(rng: random.Random, items: list) -> list:
    return [items[i] for i in _permutation(rng, len(items))]


def _weight(rng: random.Random, max_weight: int) -> int:
    return 1 + int(rng.random() * max_weight) if max_weight > 1 else 1


def _alias_table(weights: list[float]) -> tuple[list[float], list[int]]:
    """Walker's alias table: slot i keeps i with probability prob[i], else alias[i]."""
    n = len(weights)
    total = sum(weights)
    prob = [w * n / total for w in weights]
    alias = list(range(n))
    small = [i for i, p in enumerate(prob) if p < 1.0]
    large = [i for i, p in enumerate(prob) if p >= 1.0]
    while small and large:
        s, big = small.pop(), large.pop()
        alias[s] = big
        prob[big] -= 1.0 - prob[s]
        (small if prob[big] < 1.0 else large).append(big)
    for i in small + large:  # rounding leftovers keep themselves
        prob[i] = 1.0
    return prob, alias


def power_law(seed: int | str, n: int, m: int, max_weight: int = 1,
              acyclic: bool = False) -> tuple[int, list[tuple[int, int, int]]]:
    """Chung-Lu digraph with exactly m edges and expected degrees ~ i^(-1/(GAMMA-1)).

    Vertices that draw no edge are dropped, so the result has at most n.

    Both endpoints of an edge are drawn from the same degree weights, so
    hubs are both heavy senders and heavy receivers and the graph has one
    giant strongly connected component.  With ``acyclic`` every edge is
    oriented along a random vertex order instead, which leaves a DAG with
    the same degree profile.
    """
    if m > n * (n - 1) // 4:
        raise ValueError(f"m={m} too dense for n={n}")
    rng = random.Random(seed)
    prob, alias = _alias_table([(i + 1) ** (-1.0 / (GAMMA - 1.0)) for i in range(n)])
    label = _permutation(rng, n)

    def vertex() -> int:
        x = rng.random() * n
        i = min(int(x), n - 1)
        return label[i if x - i < prob[i] else alias[i]]

    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = vertex(), vertex()
        if u == v:
            continue
        if acyclic and u > v:
            u, v = v, u
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, _weight(rng, max_weight)))
    if acyclic:
        order = _permutation(rng, n)
        edges = [(order[u], order[v], w) for u, v, w in edges]
    return _compact(edges, n, rng)


def _compact(edges, n: int, rng: random.Random):
    """Drop isolated vertices (an edge list cannot name them) and shuffle."""
    index = [-1] * n
    for u, v, _ in edges:
        index[u] = index[v] = 0
    used = 0
    for x in range(n):
        if index[x] == 0:
            index[x] = used
            used += 1
    return used, _shuffled(rng, [(index[u], index[v], w) for u, v, w in edges])


def many_scc(seed: int | str, components: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Chain of small strongly connected components, each linked forward.

    Component i is a directed cycle over 2..6 vertices plus about half as
    many chords; it receives 1..3 edges from components in the ``WINDOW``
    before it, so the components stay strongly connected and distinct.
    """
    rng = random.Random(seed)
    edges = []
    comps: list[list[int]] = []
    n = 0
    for ci in range(components):
        size = 2 + int(rng.random() * 5)
        verts = list(range(n, n + size))
        n += size
        local = {(verts[i], verts[(i + 1) % size]) for i in range(size)}
        for _ in range(size // 2):
            a, b = verts[int(rng.random() * size)], verts[int(rng.random() * size)]
            if a != b:
                local.add((a, b))
        edges.extend((u, v, 1) for u, v in sorted(local))
        if comps:
            links = set()
            for _ in range(1 + int(rng.random() * 3)):
                src = comps[-1 - int(rng.random() * min(WINDOW, len(comps)))]
                links.add((src[int(rng.random() * len(src))], verts[int(rng.random() * size)]))
            edges.extend((u, v, 1) for u, v in sorted(links))
        comps.append(verts)
    label = _permutation(rng, n)
    edges = [(label[u], label[v], w) for u, v, w in edges]
    return n, _shuffled(rng, edges)


def write_edge_list(path: str, edges) -> None:
    """Write ``v<u> v<v> w`` lines, the program's edge-list input format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"v{u} v{v} {w}\n" for u, v, w in edges))
