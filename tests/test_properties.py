"""End-to-end property tests tying the independent paths together."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agony.exact import min_agony, verify_certificate
from agony.graph import WeightedDigraph, normalize, score_ranking
from agony.heuristic import heuristic_rank
from agony.penalties import LINEAR, PenaltySpec
from agony.splittree import build_split_tree, prune_tree

from conftest import global_result, reference_result, split_score


@st.composite
def small_graphs(draw, max_n=5, max_w=3):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(u, v, draw(st.integers(1, max_w))) for u, v in chosen]
    return WeightedDigraph(n, edges)


def _brute(g, k):
    return min(
        score_ranking(g, r, LINEAR) for r in itertools.product(range(k), repeat=g.n)
    )


@given(small_graphs(), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_exact_equals_enumeration(g, k):
    k = min(k, max(g.n, 2))
    res = min_agony(g, k)
    assert res.agony == _brute(g, k)
    assert verify_certificate(res)


@given(small_graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_solvers_agree_and_heuristic_dominates(g):
    fast = global_result(g)
    base = reference_result(g)
    assert fast.agony == base.agony
    _, h = heuristic_rank(g, None, "best")
    assert h >= fast.agony


@given(small_graphs(max_n=8))
@settings(max_examples=80, deadline=None)
def test_tree_score_identity(g):
    tree = build_split_tree(g)
    assert split_score(tree, g.edges) == score_ranking(g, tree.ranking(), LINEAR)


@given(small_graphs(max_n=8), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_prune_monotone_in_budget(g, k):
    tree = build_split_tree(g)
    tighter = score_ranking(g, prune_tree(tree, k), LINEAR)
    looser = score_ranking(g, prune_tree(tree, k + 1), LINEAR)
    assert looser <= tighter


@given(small_graphs(max_n=6, max_w=4))
@settings(max_examples=60, deadline=None)
def test_normalize_preserves_scores(g):
    doubled = WeightedDigraph(g.n, list(g.edges) + list(g.edges) + [(v, v, 2) for v in range(g.n)])
    ng = normalize(doubled)
    for r in itertools.product(range(2), repeat=g.n):
        assert score_ranking(ng, r, LINEAR) == 2 * score_ranking(g, r, LINEAR)


@pytest.mark.parametrize(
    "penalty",
    [LINEAR, PenaltySpec.constant(), PenaltySpec.parse("sum:1/2,-1;3,1")],
    ids=lambda p: p.describe(),
)
@given(small_graphs(max_n=5, max_w=4), st.data())
@settings(max_examples=40, deadline=None)
def test_normalize_lowers_scores_by_self_loop_cost(penalty, g, data):
    """Merging parallel edges keeps every score; a self-loop of weight w
    costs w * p(0) under every ranking, which dropping it takes off."""
    loops = [(v, v, data.draw(st.integers(1, 4))) for v in range(g.n) if data.draw(st.booleans())]
    raw = WeightedDigraph(g.n, list(g.edges) * 2 + loops)
    loop_cost = sum(w for _, _, w in loops) * penalty(0)
    ng = normalize(raw)
    for r in itertools.product(range(3), repeat=g.n):
        assert score_ranking(ng, r, penalty) == score_ranking(raw, r, penalty) - loop_cost
