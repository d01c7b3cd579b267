"""Seeded end-to-end and per-layer benchmark of the ``agony`` command line.

    python3 perfbench/run.py --workload giant-scc --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process, one call in flight, no threads: a
closed loop that calls ``agony.cli.main`` in-process on edge-list files
generated from the seed, then checks every ranking the CLI writes.

One *round* is an ``agony exact`` call followed by an ``agony heuristic``
call; one *cycle* is a round on each of the workload's graphs.  Cycles
repeat until ``--seconds`` have passed.  With ``--trace 0`` the last line
holds the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
each round runs untraced and then traced, and the last line holds the
per-layer metrics.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from spans import POINTS, Tracer  # noqa: E402

SETUP_REPEATS = 3
CONVEX = "sum:1,-1;2,3"
PROBE_TIMEOUT_S = 60

# Runs one CLI call in a fresh interpreter and prints its exit code, its
# stderr and how far the call raised the peak resident set (VmHWM) above
# the resident set after importing the program, in KiB.  VmHWM is read
# rather than ru_maxrss, which Linux carries over from the forking parent.
PROBE = """
import contextlib, io, json, sys
def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))
sys.path.insert(0, sys.argv[1])
from agony.cli import main
before = status("VmRSS")
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        code = main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
print(json.dumps({"code": code, "err": err.getvalue(), "kib": status("VmHWM") - before}))
"""

Graph = tuple  # (n, [(u, v, w), ...])


@dataclass(frozen=True)
class Workload:
    """Graphs made from a seed key, and the two commands run on each."""

    graphs: Callable[[str], list[tuple[Graph, Graph]]]  # (exact input, heuristic input)
    exact: tuple[str, ...]
    heuristic: tuple[str, ...]


def _same(graph: Graph) -> tuple[Graph, Graph]:
    return graph, graph


WORKLOADS = {
    "giant-scc": Workload(
        lambda key: [_same(gen.power_law(f"{key}/{i}", 500, 2500)) for i in range(6)],
        (), ("--variant", "best"),
    ),
    "many-scc": Workload(
        lambda key: [_same(gen.many_scc(key, 1500))],
        (), ("--variant", "scc", "--k", "50"),
    ),
    "budget-convex": Workload(
        lambda key: [(gen.power_law(f"{key}/{i}", 50, 165, max_weight=10**6),
                      gen.power_law(f"{key}/{i}/h", 1000, 3300, max_weight=10**6))
                     for i in range(12)],
        ("--k", "8", "--penalty", CONVEX, "--canonical"), ("--k", "8", "--variant", "best"),
    ),
    "large-heuristic": Workload(
        lambda key: [(gen.power_law(f"{key}/dag", 20000, 90000, acyclic=True),
                      gen.power_law(key, 20000, 90000))],
        (), ("--variant", "best", "--k", "50"),
    ),
}


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _load_program():
    """Import ``agony`` afresh from the checkout; returns its modules."""
    if not (SRC / "agony" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'agony'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "agony" or m.startswith("agony.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name, _, _, _ in POINTS}
    if not Path(modules["agony.cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: agony was imported from outside {SRC}")
    return modules


class Bench:
    """One workload at one seed: its graphs, the program, and the tally of checked calls."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact_scores: list[tuple[int, object]] = []  # (round, recomputed score)
        self.heuristic_scores: dict[int, object] = {}
        self.rounds: list[tuple[Graph, Graph]] = []

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Import the program, generate and write the graphs; returns seconds."""
        self.rounds = []  # free the previous set before making the next
        gc.collect()
        t0 = time.process_time()
        self.modules = _load_program()
        self.rounds = self.wl.graphs(f"{self.name}/{self.seed}")
        self.files = []
        for r, (exact_graph, heuristic_graph) in enumerate(self.rounds):
            exact_path = heuristic_path = self.workdir / f"r{r}-exact.txt"
            gen.write_edge_list(str(exact_path), exact_graph[1])
            if heuristic_graph is not exact_graph:
                heuristic_path = self.workdir / f"r{r}-heuristic.txt"
                gen.write_edge_list(str(heuristic_path), heuristic_graph[1])
            self.files.append((exact_path, heuristic_path))
        return time.process_time() - t0

    # -- one CLI call -------------------------------------------------------

    def call(self, argv: list[str], tracer: Tracer | None = None):
        """Run ``agony.cli.main(argv)``; returns (seconds, exit code, stderr)."""
        main = self.modules["agony.cli"].main
        if tracer is not None:
            tracer.call += 1
            tracer.install(self.modules)
            main = tracer.wrap("cli", main)
        gc.collect()
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                t0 = time.process_time()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed call; keep measuring
                    traceback.print_exc()
                    code = -1
                seconds = time.process_time() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        return seconds, code, err.getvalue()

    def probe(self, argv: list[str]):
        """Run the call in a fresh interpreter; returns (MiB it adds to the peak RSS, code, stderr)."""
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), *argv], cwd=ROOT,
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return 0.0, -1, f"no exit within {PROBE_TIMEOUT_S} s"
        if proc.returncode != 0:
            return 0.0, -1, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        return result["kib"] / 1024, result["code"], result["err"]

    def run(self, r: int, side: str, tracer: Tracer | None = None, probe: bool = False) -> float:
        """One checked call of ``side`` on round r's graph.

        Returns its seconds, or with ``probe`` the MiB it adds to the peak
        resident set of a fresh process.
        """
        i = 0 if side == "exact" else 1
        extra = self.wl.exact if side == "exact" else self.wl.heuristic
        suffix = "-traced" if tracer else "-probe" if probe else ""
        out = self.workdir / f"r{r}-{side}{suffix}.out"
        argv = [side, str(self.files[r][i]), *extra, "--out", str(out)]
        seconds, code, err = self.probe(argv) if probe else self.call(argv, tracer)
        n, edges = self.rounds[r][i]
        score = self._check(argv, n, edges, out, code, err)
        if score is not None:
            if side == "exact":
                self.exact_scores.append((r, score))
            else:
                self.heuristic_scores[r] = score
        return seconds

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _check(self, argv, n, edges, out: Path, code: int, err: str):
        """Rescore the ranking file; returns the score, or None on failure."""
        where = " ".join(argv[:1] + argv[2:-2])
        if code != 0:
            self._fail(f"{where}: exit code {code}: {err.strip()[-500:]}")
            return None
        reported = [line[6:] for line in err.splitlines() if line.startswith("score=")]
        try:
            ranks = check.read_ranking(str(out), [f"v{v}" for v in range(n)])
        except (OSError, check.CheckError) as exc:
            self._fail(f"{where}: {exc}")
            return None
        hinges = check.parse_hinges(_option(argv, "--penalty", "linear"))
        score = check.score(edges, ranks, hinges)
        k = _option(argv, "--k")
        if reported != [str(score)]:
            self._fail(f"{where}: reported score {reported} != recomputed {score}")
            return None
        if k is not None and check.tiers(ranks) > int(k):
            self._fail(f"{where}: {check.tiers(ranks)} tiers > k={k}")
            return None
        return score

    def check_optima(self) -> None:
        """Compare every exact score with the recorded (or oracle) optimum."""
        recorded = read_optima().get((self.name, str(self.seed)))
        if recorded is None:
            recorded = [str(optimum(self.wl, pair[0])) for pair in self.rounds]
        for r, score in self.exact_scores:
            if recorded[r] != str(score):
                self._fail(f"exact round {r}: agony {score} != optimum {recorded[r]}")

    def heuristic_agony(self) -> float:
        """Mean recomputed agony of the heuristic rankings, over the graphs."""
        scores = list(self.heuristic_scores.values())
        return float(sum(scores)) / len(scores) if scores else 0.0


def read_optima() -> dict[tuple[str, str], list[str]]:
    """optima.tsv: ``workload seed optimum-of-round-0 optimum-of-round-1 ...`` lines."""
    rows = (line.split("\t") for line in (HERE / "optima.tsv").read_text().splitlines())
    return {(row[0], row[1]): row[2:] for row in rows}


def optimum(wl: Workload, graph: Graph):
    """Optimum of the workload's exact call on graph, from the independent oracle."""
    n, edges = graph
    k = _option(wl.exact, "--k")
    return check.optimum(n, edges, check.parse_hinges(_option(wl.exact, "--penalty", "linear")),
                         None if k is None else int(k))


def _median_per_call(cycles: list[list[float]]) -> float:
    """Median over cycles of the mean per-call value within a cycle."""
    return statistics.median(sum(c) / len(c) for c in cycles)


def measure(bench: Bench, seconds: float) -> dict:
    times = {"exact": [], "heuristic": []}
    deadline = time.perf_counter() + seconds
    while True:
        cycle = {"exact": [], "heuristic": []}
        for r in range(len(bench.rounds)):
            for side in cycle:
                cycle[side].append(bench.run(r, side))
        for side in cycle:
            times[side].append(cycle[side])
        if time.perf_counter() >= deadline:
            break
    print(f"# {len(times['exact'])} cycles x {len(bench.rounds)} rounds, "
          f"{bench.attempted} calls", flush=True)
    # untimed: each call of the first round once more, alone in a fresh process
    peak = max(bench.run(0, side, probe=True) for side in ("exact", "heuristic"))
    return {
        "exact_s": _median_per_call(times["exact"]),
        "heuristic_s": _median_per_call(times["heuristic"]),
        "peak_rss_mib": peak,
        "heuristic_agony": bench.heuristic_agony(),
    }


def _span_metric(name: str) -> str:
    # a plain layer name ("exact", "cli") marks a span with children: its self time
    return f"{name}.self_s" if "." not in name else f"{name}_s"


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    cycles: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        first = len(tracer.spans)
        tracer.counts.clear()
        values: dict[str, float] = {}
        for r in range(len(bench.rounds)):
            for side in ("exact", "heuristic"):
                # alternate which call goes first, so that order does not pass for overhead
                if len(cycles) % 2:
                    root = len(tracer.spans)
                    traced = bench.run(r, side, tracer)
                    plain = bench.run(r, side)
                else:
                    plain = bench.run(r, side)
                    root = len(tracer.spans)
                    traced = bench.run(r, side, tracer)
                _, _, start, end, _ = tracer.spans[root]  # the call's "cli" span
                for key, val in ((f"trace.{side}_overhead_s", traced - plain),
                                 (f"untraced.{side}", plain), (f"layer_sum.{side}", end - start)):
                    values[key] = values.get(key, 0.0) + val
                _compare_outputs(bench, r, side)
        for name, secs in tracer.self_times(first).items():
            values[_span_metric(name)] = secs
        values.update(tracer.counts)
        rounds = len(bench.rounds)
        cycles.append({key: val / rounds for key, val in values.items()})
        if time.perf_counter() >= deadline:
            break
    spans_path.write_text(json.dumps(
        {"fields": ["call", "name", "start", "end", "parent"], "spans": tracer.spans}))
    print(f"# {len(cycles)} traced cycles, spans in {spans_path}", flush=True)
    out = {key: statistics.median(c.get(key, 0.0) for c in cycles) for key in set().union(*cycles)}
    for side in ("exact", "heuristic"):
        untraced, layers = out.pop(f"untraced.{side}"), out.pop(f"layer_sum.{side}")
        overhead = out[f"trace.{side}_overhead_s"]
        print(f"# {side} call: layer self times {layers:.4g} s, untraced {untraced:.4g} s, "
              f"difference {layers - untraced:.4g} s ({(layers - untraced) / untraced:+.1%}), "
              f"overhead {overhead:.4g} s", flush=True)
    augs = out.get("circulation.augmentations", 0)
    out["circulation.repairs_per_aug"] = out.get("circulation.repairs", 0) / augs if augs else 0.0
    out["circulation.ms_per_aug"] = out.get("circulation.solve_s", 0.0) * 1e3 / augs if augs else 0.0
    return out


def _compare_outputs(bench: Bench, r: int, side: str) -> None:
    plain = bench.workdir / f"r{r}-{side}.out"
    traced = bench.workdir / f"r{r}-{side}-traced.out"
    if not (plain.is_file() and traced.is_file()) or plain.read_bytes() != traced.read_bytes():
        bench._fail(f"{side} round {r}: traced output differs from the untraced output")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build = ROOT / ".bench_build"
    workdir = build / f"perfbench-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, workdir)
    try:
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        # keep the benchmark's own objects out of the program's garbage collections
        gc.collect()
        gc.freeze()
        if args.trace:
            spans_path = build / f"perfbench-spans-{args.workload}-{args.seed}.json"
            values = measure_traced(bench, args.seconds, spans_path)
        else:
            values = measure(bench, args.seconds)
            values["setup_s"] = statistics.median(setups)
        bench.check_optima()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems:
        print(f"# FAILED {problem}", flush=True)
    # a layer that never ran in this workload reads 0
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
