"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with:  pytest tests/test_acceptance.py -v -s

Criteria 3 and 8 need the public SNAP datasets (scripts/fetch_snap.py) and
skip when the files are absent.
"""
from __future__ import annotations

import dataclasses
import os
import random
import time
from pathlib import Path

import pytest

from agony.canonical import canonical_ranking, distinct_rank_count
from agony.circulation import residual_distances
from agony.exact import min_agony, verify_certificate
from agony.graph import normalize, parse_edge_list, score_ranking
from agony.heuristic import _LayerWindow, heuristic_rank, monotone_min, scc_layer_heuristic
from agony.penalties import LINEAR
from agony.splittree import PruneDP, build_split_tree, prune_tree

from conftest import (
    brute_min_linear,
    brute_optima,
    global_result,
    graph_from_text,
    random_dag,
    random_graph,
    reference_result,
    root_value,
    split_gains,
    split_score,
)
from test_splittree import _all_prunings, _random_gain_tree, audit_counters

TOY = "a b\nb c\nc a 2\nb d\n"
TWO_CLUSTERS = "a c\nc d\nd b\nb a\ni a\nf e\ne g\ng f\ng h\ne h\na e\n"
R1 = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 1, "f": 0, "g": 1, "h": 2, "i": 0}
R2 = {"a": 1, "b": 1, "c": 2, "d": 3, "e": 2, "f": 1, "g": 1, "h": 3, "i": 0}

DATA_DIR = Path(os.environ.get("AGONY_DATA", Path(__file__).resolve().parent.parent / "data"))
WIKI = DATA_DIR / "wiki-Vote.txt"
GNUTELLA = DATA_DIR / "p2p-Gnutella31.txt"


def _report(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} {detail}".rstrip())
    assert ok


class Suite1Record:
    __slots__ = ("graph", "per_k")

    def __init__(self, graph, per_k):
        self.graph = graph
        self.per_k = per_k  # k -> (brute, fast_result, global_result, reference_result)


@pytest.fixture(scope="module")
def suite1():
    """200 random graphs, every k in [2, n]: ``min_agony``, one global
    ``solve_fast`` instance, the reference solver and the oracle."""
    rng = random.Random(2024)
    records = []
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, 0.4, 3)
        per_k = {}
        for k in range(2, n + 1):
            brute = brute_min_linear(g, k)
            fast = min_agony(g, k)
            per_k[k] = (brute, fast, global_result(g, k), reference_result(g, k))
        records.append(Suite1Record(g, per_k))
    elapsed = time.perf_counter() - t0
    print(f"\nsuite1 built in {elapsed:.1f}s")
    return records, elapsed


def _load_snap(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        g, table = parse_edge_list(fh)
    return normalize(g), table


def test_criterion_1_oracle_equivalence(suite1):
    records, elapsed = suite1
    checked = 0
    for rec in records:
        for k, (brute, fast, _, _) in rec.per_k.items():
            assert fast.agony == brute, (rec.graph.edges, k, fast.agony, brute)
            checked += 1
    _report(1, True, f"{checked} (graph, k) pairs match exhaustive minimum; {elapsed:.1f}s")


def test_criterion_2_toy_regressions():
    from io import StringIO

    from agony.penalties import PenaltySpec

    graph, table = parse_edge_list(StringIO(TWO_CLUSTERS))
    r1 = [R1[table.label(v)] for v in range(len(table))]
    r2 = [R2[table.label(v)] for v in range(len(table))]
    # per-edge linear penalties of r1 itemize as 1+1+2+2+3
    lin_r1 = score_ranking(graph, r1, LINEAR)
    lin_r2 = score_ranking(graph, r2, LINEAR)
    cons_r1 = score_ranking(graph, r1, PenaltySpec.constant())
    ok = (lin_r1, lin_r2, cons_r1) == (9, 7, 5)

    toy = graph_from_text(TOY)
    toy_vals = []
    for k in (3, 4):
        expect = brute_min_linear(toy, k)
        res = min_agony(toy, k)
        toy_vals.append((expect, res.agony))
        ok = ok and expect == res.agony == 3
        ok = ok and verify_certificate(res)
    _report(2, ok, f"toy scores (9, 7, 5) and 4-vertex optimum {toy_vals}")


needs_wiki = pytest.mark.skipif(
    not WIKI.exists(), reason=f"{WIKI} missing; run scripts/fetch_snap.py"
)
needs_gnutella = pytest.mark.skipif(
    not GNUTELLA.exists(), reason=f"{GNUTELLA} missing; run scripts/fetch_snap.py"
)


@needs_wiki
@needs_gnutella
def test_criterion_3_public_dataset_regression():
    details = []
    certs = True
    for path, expect_agony, expect_groups in (
        (WIKI, 17_676, 12),
        (GNUTELLA, 18_964, 24),
    ):
        g, _ = _load_snap(path)
        res = min_agony(g)  # SCC decomposition, unconstrained
        assert res.agony == expect_agony, (path.name, res.agony, expect_agony)
        certs = certs and verify_certificate(res)
        canon = canonical_ranking(res)
        groups = distinct_rank_count(canon)
        soft = "==" if groups == expect_groups else f"!= expected {expect_groups} (soft)"
        details.append(f"{path.name}: agony {res.agony}, groups {groups} {soft}")
    _report(3, certs, "; ".join(details))


def test_criterion_4_duality_certificates(suite1):
    records, _ = suite1
    count = 0
    for rec in records:
        for k, (_, fast, whole, _) in rec.per_k.items():
            assert verify_certificate(fast)
            assert verify_certificate(whole)
            count += 2
    _report(4, True, f"{count} certificates verified")


def test_criterion_5_solver_equivalence(suite1):
    records, _ = suite1
    count = 0
    for rec in records:
        for k, (_, fast, whole, ref) in rec.per_k.items():
            assert fast.agony == whole.agony == ref.agony
            assert fast.objective == whole.objective == ref.objective
            count += 1
    _report(5, True, f"{count} instances, fast == reference objective")


def test_criterion_6_canonicality():
    rng = random.Random(66)
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(2, 6), 0.4, 2)
        k = rng.randint(2, min(g.n, 3))
        best, optima = brute_optima(g, k)
        res = global_result(g, k)
        canon = canonical_ranking(res)
        # optimal, pointwise minimal, fewest groups, idempotent
        assert score_ranking(g, canon, LINEAR) == best
        pointwise = [min(o[v] for o in optima) for v in range(g.n)]
        assert canon == pointwise
        assert distinct_rank_count(canon) == min(len(set(o)) for o in optima)
        # idempotence: shift the duals onto the canonical solution and redo
        state = res.components[0].state
        dist = residual_distances(state, [(r, v) for v, r in enumerate(res.ranks)])
        state.potentials = [p - d for p, d in zip(state.potentials, dist)]
        assert canonical_ranking(dataclasses.replace(res, ranks=canon)) == canon
        checked += 1
    _report(6, True, f"{checked} enumerable instances")


def test_criterion_7_heuristic_guarantees(suite1):
    records, _ = suite1
    rng = random.Random(77)
    for rec in records:
        g = rec.graph
        tree = build_split_tree(g)
        assert split_score(tree, g.edges) == score_ranking(g, prune_tree(tree, None), LINEAR)
        ranks2, score2 = heuristic_rank(g, 2, "plain")
        assert score2 == rec.per_k[2][0]  # optimal at k = 2
        for k, (brute, _, _, _) in rec.per_k.items():
            _, s = heuristic_rank(g, k, "best")
            assert s >= brute
    dags = 0
    for _ in range(50):
        g = random_dag(rng, rng.randint(1, 10), 0.4, 3)
        ranks = scc_layer_heuristic(g)
        assert score_ranking(g, ranks, LINEAR) == 0
        dags += 1
    _report(7, True, f"k=2 optimality, dominance, tree identity on 200 graphs; {dags} DAGs at 0")


@needs_wiki
def test_criterion_8_heuristic_quality_report_only():
    g, _ = _load_snap(WIKI)
    _, score = heuristic_rank(g, None, "best")
    optimal = min_agony(g).agony
    ratio = score / optimal
    note = "within 1.15" if ratio <= 1.15 else "ABOVE 1.15 (report-only, not failing)"
    assert ratio >= 1.0
    _report(8, True, f"best-heuristic/optimal = {ratio:.3f} {note}")


def test_criterion_9_dp_and_monotone_oracles():
    rng = random.Random(99)
    for _ in range(100):
        tree, n_leaves = _random_gain_tree(rng, 12)
        prunings, _ = _all_prunings(tree.gains)
        for k in range(1, n_leaves + 1):
            best = min(gain for leaves, gain in prunings if leaves <= k)
            assert root_value(PruneDP(tree, k), k) == best
    for _ in range(100):
        ell = rng.randint(1, 14)
        edges = []
        for _ in range(rng.randint(0, 30)):
            lo, hi = rng.randint(1, ell), rng.randint(1, ell)
            if lo < hi:
                edges.append((lo, hi, rng.randint(1, 6)))
        prev = [rng.randint(0, 25) for _ in range(ell + 1)]

        def w_naive(j, i):
            return sum(w for lo, hi, w in edges if j <= lo and hi <= i)

        expected = [
            min(range(1, i + 1), key=lambda j: (w_naive(j, i) + prev[j - 1], j))
            for i in range(1, ell + 1)
        ]
        win = _LayerWindow(ell, edges)
        jarr, _ = monotone_min(ell, lambda j, i: win.value(j, i) + prev[j - 1])
        assert jarr[1:] == expected
    _report(9, True, "100 pruning cases and 100 layered argmin cases")


def test_criterion_10_monotone_in_k(suite1):
    records, _ = suite1
    for rec in records:
        ks = sorted(rec.per_k)
        values = [rec.per_k[k][1].agony for k in ks]
        assert all(a >= b for a, b in zip(values, values[1:])), (rec.graph.edges, values)
    _report(10, True, "agony non-increasing in k on all 200 graphs")


def test_criterion_11_counter_consistency():
    rng = random.Random(1111)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 14), 0.3, 3)
        with audit_counters(g) as audit:
            tree = build_split_tree(g)
        assert audit.splits == len(split_gains(tree))
    _report(11, True, "50 builds audited against from-scratch recomputation")
