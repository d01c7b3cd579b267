"""Output checker that shares no code with ``agony``.

It re-reads the ranking files the CLI writes, rescores them under the
hinge penalty named on the command line, counts tiers, and computes the
optimum of an instance independently: zero for an acyclic graph (found by
Kahn's algorithm), otherwise the rank linear program solved with HiGHS.
The rank LP is the dual of a network flow, so its basic optimum is
integral; the oracle rounds it and rescores it exactly.
"""
from __future__ import annotations

from fractions import Fraction

LINEAR = ((Fraction(1), -1),)


class CheckError(ValueError):
    """A ranking file is malformed or does not cover the graph."""


def parse_hinges(text: str) -> tuple[tuple[Fraction, int], ...]:
    """Hinge terms (a, b) of ``linear`` or ``sum:a,b;a,b``: sum a*max(0, d-b)."""
    if text == "linear":
        return LINEAR
    if not text.startswith("sum:"):
        raise ValueError(f"penalty {text!r} is not a hinge sum")
    terms = []
    for chunk in filter(None, (c.strip() for c in text[4:].split(";"))):
        a, b = chunk.split(",")
        terms.append((Fraction(a), int(b)))
    return tuple(terms)


def read_ranking(path: str, labels: list[str]) -> list[int]:
    """Ranks of vertices 0..n-1 from ``label<TAB>rank`` lines."""
    got: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise CheckError(f"{path}: bad line {line!r}")
            if parts[0] in got:
                raise CheckError(f"{path}: vertex {parts[0]} ranked twice")
            got[parts[0]] = int(parts[1])
    if len(got) != len(labels):
        raise CheckError(f"{path}: {len(got)} vertices ranked, graph has {len(labels)}")
    try:
        return [got[label] for label in labels]
    except KeyError as exc:
        raise CheckError(f"{path}: vertex {exc.args[0]} missing") from None


def score(edges, ranks, hinges=LINEAR):
    """sum over edges of w * sum_i a_i * max(0, r(u) - r(v) - b_i)."""
    total = Fraction(0)
    for u, v, w in edges:
        d = ranks[u] - ranks[v]
        for a, b in hinges:
            if d > b:
                total += w * a * (d - b)
    return int(total) if total.denominator == 1 else total


def tiers(ranks) -> int:
    return len(set(ranks))


def is_acyclic(n: int, edges) -> bool:
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        succ[u].append(v)
        indeg[v] += 1
    todo = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while todo:
        u = todo.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                todo.append(v)
    return seen == n


def optimum(n: int, edges, hinges=LINEAR, k=None):
    """Minimum penalty over rankings into [0, k-1] (k defaults to n)."""
    if is_acyclic(n, edges):
        return 0
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    k = n if k is None else k
    m, h = len(edges), len(hinges)
    # variables: r_0..r_{n-1}, then s_{e,i} at n + e*h + i
    # rows: r_u - r_v - s_{e,i} <= b_i
    rows, cols, vals, rhs = [], [], [], []
    cost = np.zeros(n + m * h)
    for e, (u, v, w) in enumerate(edges):
        for i, (a, b) in enumerate(hinges):
            row = e * h + i
            rows += [row, row, row]
            cols += [u, v, n + row]
            vals += [1.0, -1.0, -1.0]
            rhs.append(b)
            cost[n + row] = float(a * w)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(m * h, n + m * h)).tocsr()
    bounds = [(0, k - 1)] * n + [(0, None)] * (m * h)
    res = linprog(cost, A_ub=a_ub, b_ub=rhs, bounds=bounds, method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"rank LP failed: {res.message}")
    ranks = [round(x) for x in res.x[:n]]
    value = score(edges, ranks, hinges)
    if abs(float(value) - res.fun) > 1e-6 * max(1.0, abs(res.fun)):
        raise RuntimeError(f"rank LP optimum {res.fun} is not integral ({value})")
    return value
