"""Tests of the benchmark itself: generators, checker, oracle and tracer.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import gc
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

GENERATORS = {
    "power_law": lambda seed, scale: gen.power_law(seed, 500 * scale, 2000 * scale),
    "power_law_dag": lambda seed, scale: gen.power_law(seed, 500 * scale, 2000 * scale,
                                                       acyclic=True),
    "weighted": lambda seed, scale: gen.power_law(seed, 100 * scale, 330 * scale,
                                                  max_weight=10**6),
    "many_scc": lambda seed, scale: gen.many_scc(seed, 400 * scale),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic(name):
    make = GENERATORS[name]
    assert make("a/1", 1) == make("a/1", 1)
    assert make("a/1", 1) != make("a/2", 1)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_output_is_a_simple_graph(name):
    n, edges = GENERATORS[name](7, 1)
    pairs = {(u, v) for u, v, _ in edges}
    assert len(pairs) == len(edges)
    assert all(u != v and w >= 1 for u, v, w in edges)
    assert {x for e in edges for x in e[:2]} == set(range(n))


def test_acyclic_variant_is_a_dag_and_power_law_is_not():
    assert check.is_acyclic(*gen.power_law(3, 2000, 8000, acyclic=True))
    assert not check.is_acyclic(*gen.power_law(3, 2000, 8000))


def _best_of(make, scale, repeats=9):
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.process_time()
        make(5, scale)
        best = min(best, time.process_time() - t0)
    return best


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_linear(name):
    # three doublings, so that noise at one size cannot decide the ratio
    make = GENERATORS[name]
    per_doubling = (_best_of(make, 16) / _best_of(make, 2)) ** (1 / 3)
    assert per_doubling <= 2.3, f"doubling took {per_doubling:.2f}x"


# -- checker and oracle --------------------------------------------------------

def test_score_linear_and_hinges():
    edges = [(0, 1, 2), (1, 0, 3)]
    assert check.score(edges, [0, 1]) == 3 * 2
    assert check.score(edges, [0, 0]) == 2 + 3
    hinges = check.parse_hinges("sum:1,-1;3/2,0")
    assert check.score(edges, [0, 1], hinges) == 3 * 2 + Fraction(3, 2) * 3 * 1


def test_optimum_matches_small_cases():
    assert check.optimum(3, [(0, 1, 1), (1, 2, 1)]) == 0
    assert check.optimum(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]) == 3
    # k=1 puts both ends of every edge on one tier
    assert check.optimum(2, [(0, 1, 5), (1, 0, 1)], k=1) == 6


def _bench(tmp_path, graph, exact=(), heuristic=("--variant", "best")):
    bench = run.Bench("giant-scc", -1, tmp_path)  # no recorded optima: the oracle decides
    bench.wl = run.Workload(lambda key: [run._same(graph)], tuple(exact), tuple(heuristic))
    bench.setup()
    return bench


def _write_ranking(path, ranks):
    path.write_text("".join(f"v{v}\t{r}\n" for v, r in enumerate(ranks)))


@pytest.mark.parametrize("exact", [(), ("--k", "4", "--penalty", run.CONVEX)])
def test_program_passes_the_checker(tmp_path, exact):
    bench = _bench(tmp_path, gen.power_law(1, 40, 120, max_weight=50), exact)
    bench.run(0, "exact")
    bench.run(0, "heuristic")
    bench.check_optima()
    assert bench.problems == []
    assert bench.attempted == 2 and bench.failed == 0


def test_memory_probe_checks_its_calls(tmp_path):
    bench = _bench(tmp_path, gen.power_law(1, 300, 1500))
    peaks = [bench.run(0, side, probe=True) for side in ("exact", "heuristic")]
    bench.check_optima()
    assert bench.problems == []
    assert bench.attempted == 2 and bench.failed == 0
    assert all(0 < peak < 100 for peak in peaks)
    assert (tmp_path / "r0-exact-probe.out").is_file()
    _, code, _ = bench.probe(["exact", str(tmp_path / "missing.txt")])
    assert code != 0


def test_checker_rejects_moved_vertex_and_wrong_score(tmp_path):
    n, edges = graph = gen.power_law(2, 40, 120)
    bench = _bench(tmp_path, graph)
    bench.run(0, "exact")
    assert bench.failed == 0
    out = tmp_path / "r0-exact.out"
    ranks = check.read_ranking(str(out), [f"v{v}" for v in range(n)])
    best = check.score(edges, ranks)
    moved = next(
        ranks[:v] + [ranks[v] + d] + ranks[v + 1:]
        for v in range(n) for d in (1, -1)
        if check.score(edges, ranks[:v] + [ranks[v] + d] + ranks[v + 1:]) != best
    )
    _write_ranking(out, moved)
    argv = ["exact", "graph", "--out", str(out)]
    worse = check.score(edges, moved)
    # a ranking rescored consistently still has to match the optimum
    assert bench._check(argv, n, edges, out, 0, f"score={worse}\n") == worse
    bench.exact_scores = [(0, worse)]
    bench.check_optima()
    assert bench.failed == 1
    # a reported score that the ranking does not have
    _write_ranking(out, ranks)
    assert bench._check(argv, n, edges, out, 0, f"score={best + 1}\n") is None
    assert bench.failed == 2
    # a vertex missing from the ranking file
    _write_ranking(out, ranks[:-1])
    assert bench._check(argv, n, edges, out, 0, f"score={best}\n") is None
    assert bench.failed == 3
    # a rank that is not an integer
    out.write_text("".join(f"v{v}\t{r}.5\n" for v, r in enumerate(ranks)))
    assert bench._check(argv, n, edges, out, 0, f"score={best}\n") is None
    assert bench.failed == 4


def test_checker_rejects_too_many_tiers(tmp_path):
    n, edges = graph = gen.power_law(4, 30, 90)
    bench = _bench(tmp_path, graph)
    out = tmp_path / "ranking.out"
    ranks = list(range(n))
    _write_ranking(out, ranks)
    argv = ["heuristic", "graph", "--k", "3", "--out", str(out)]
    assert bench._check(argv, n, edges, out, 0, f"score={check.score(edges, ranks)}\n") is None
    assert bench.failed == 1


# -- tracer --------------------------------------------------------------------

def test_self_times_add_up_and_attributes_are_restored(tmp_path):
    bench = _bench(tmp_path, gen.power_law(3, 60, 200))
    modules = bench.modules
    before = {id(getattr(modules[m], a)) for m, a, _, _ in run.POINTS}
    tracer = Tracer()
    for side in ("exact", "heuristic"):
        plain_first = len(tracer.spans)
        bench.run(0, side, tracer)
        spans = tracer.spans[plain_first:]
        root = [s for s in spans if s[4] == -1]
        assert len(root) == 1 and root[0][1] == "cli"
        total = sum(tracer.self_times(plain_first).values())
        assert total == pytest.approx(root[0][3] - root[0][2], rel=1e-9)
    assert {id(getattr(modules[m], a)) for m, a, _, _ in run.POINTS} == before
    names = {s[1] for s in tracer.spans}
    assert {"graph.parse", "exact", "circulation.solve", "heuristic", "splittree.build"} <= names
    assert tracer.counts["circulation.augmentations"] > 0
    assert bench.failed == 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_recorded_optima_match_the_oracle(name):
    wl = run.WORKLOADS[name]
    recorded = run.read_optima()[name, "0"]
    assert recorded == [str(run.optimum(wl, pair[0])) for pair in wl.graphs(f"{name}/0")]
