"""Command-line front end: exact/heuristic ranking, scoring, benchmarks.

Exit codes: 0 success, 1 internal error (a ``SolverError``, or a reported
score that does not rescore from its ranking), 2 unreadable input,
unwritable output or bad flags, 3 penalty not usable for solving, 4 ranking
file does not cover the graph.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .canonical import canonical_ranking, distinct_rank_count
from .circulation import SolverError
from .exact import min_agony
from .graph import (
    ParseError,
    VertexTable,
    WeightedDigraph,
    normalize,
    parse_edge_list,
    score_ranking,
)
from .heuristic import heuristic_rank
from .penalties import PenaltySpec, UnsupportedPenaltyError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_PENALTY = 3
EXIT_RANKING = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_graph(path: str) -> tuple[WeightedDigraph, VertexTable]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            g, table = parse_edge_list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    except ParseError as exc:
        raise _CliError(EXIT_INPUT, f"{path}: {exc}") from exc
    return normalize(g), table


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _parse_penalty(text: str) -> PenaltySpec:
    try:
        return PenaltySpec.parse(text)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc


def _write_ranking(table: VertexTable, ranks: Sequence[int], out: Optional[str]):
    lines = (f"{table.label(v)}\t{ranks[v]}\n" for v in range(len(table)))
    if out is None:
        sys.stdout.writelines(lines)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise _CliError(EXIT_INPUT, f"cannot write {out}: {exc}") from exc


def _finish(table: VertexTable, ranks: Sequence[int], out: Optional[str], make_summary) -> int:
    """Write the ranking, then the summary ``make_summary()`` to stderr.

    A ranking file is written first, so it is kept when the summary cannot
    be rendered (exit 2); ranking lines for stdout wait for the summary, so
    a run that fails prints none.
    """
    if out is not None:
        _write_ranking(table, ranks, out)
    summary = make_summary()
    if out is None:
        _write_ranking(table, ranks, None)
    sys.stderr.write(summary)
    return EXIT_OK


def _render(make_text) -> str:
    """``make_text()``; a number with more digits than ``str`` converts is unwritable output."""
    try:
        return make_text()
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, "cannot write output: a number has too many digits") from exc


def _describe(penalty: PenaltySpec, text: str) -> str:
    """The penalty's description, or ``text``, the flag it was parsed from,
    when the description holds a number with more digits than ``str`` converts."""
    try:
        return penalty.describe()
    except ValueError:
        return text.strip()


def _summary(command: str, path: str, g: WeightedDigraph, k, penalty: str, score, ranks, ms,
             **extra):
    """The key=value lines of a run's summary, for stderr."""
    pairs = {
        "command": command,
        "input": path,
        "n": g.n,
        "m": g.m,
        "k": k,
        "penalty": penalty,
        **extra,
        "score": _render(lambda: str(score)),
        "groups": distinct_rank_count(ranks),
        "time_ms": f"{ms:.1f}",
    }
    return "".join(f"{key}={val}\n" for key, val in pairs.items())


def _self_check(g: WeightedDigraph, ranks: Sequence[int], penalty: PenaltySpec, score):
    recomputed = score_ranking(g, ranks, penalty)
    if recomputed != score:
        raise _CliError(
            EXIT_INTERNAL, f"internal error: reported score {score} != recomputed {recomputed}"
        )


def _check_k(k) -> None:
    if k is not None and k < 1:
        raise _CliError(EXIT_INPUT, f"--k must be >= 1, got {k}")


def _cmd_exact(args) -> int:
    g, table = _load_graph(args.input)
    _check_k(args.k)
    penalty = _parse_penalty(args.penalty)
    t0 = time.perf_counter()
    result = min_agony(g, args.k, penalty)
    ranks = canonical_ranking(result) if args.canonical else result.ranks
    ms = (time.perf_counter() - t0) * 1e3
    _self_check(g, ranks, penalty, result.agony)
    return _finish(table, ranks, args.out, lambda: _summary(
        "exact", args.input, g, result.k, _describe(penalty, args.penalty), result.agony, ranks, ms,
        scc=int(result.used_scc), canonical=int(bool(args.canonical)),
        augmentations=result.stats.augmentations, repairs=result.stats.repairs,
        settles=result.stats.settles,
    ))


def _cmd_heuristic(args) -> int:
    g, table = _load_graph(args.input)
    _check_k(args.k)
    penalty = PenaltySpec.linear()
    t0 = time.perf_counter()
    ranks, score = heuristic_rank(g, args.k, args.variant)
    ms = (time.perf_counter() - t0) * 1e3
    _self_check(g, ranks, penalty, score)
    k = args.k if args.k is not None else max(g.n, 1)
    return _finish(table, ranks, args.out, lambda: _summary(
        "heuristic", args.input, g, k, penalty.describe(), score, ranks, ms, variant=args.variant
    ))


def _read_ranking(path: str, table: VertexTable) -> list[int]:
    got: dict[str, int] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _CliError(EXIT_INPUT, f"{path} line {lineno}: expected 'label rank'")
        try:
            got[parts[0]] = int(parts[1])
        except ValueError:
            raise _CliError(EXIT_INPUT, f"{path} line {lineno}: rank {parts[1]!r} is not an integer")
    ranks = []
    for v in range(len(table)):
        label = table.label(v)
        if label not in got:
            raise _CliError(EXIT_RANKING, f"vertex {label!r} missing from ranking file")
        ranks.append(got[label])
    extra = set(got) - set(table.labels())
    if extra:
        print(f"warning: ranking file has {len(extra)} label(s) not in the graph", file=sys.stderr)
    return ranks


def _cmd_score(args) -> int:
    g, table = _load_graph(args.input)
    penalty = _parse_penalty(args.penalty)
    ranks = _read_ranking(args.ranking, table)
    score = score_ranking(g, ranks, penalty)
    print(_render(lambda: str(score)))
    return EXIT_OK


_BENCH_METHODS = ("exact", "plain", "scc", "best")


def _parse_manifest(path: str) -> list[tuple[str, str, Optional[int], list[str]]]:
    """Lines 'name path [k=INT] [methods=...]', all checked before any run."""
    entries = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path} line {lineno}"
        parts = line.split()
        if len(parts) < 2:
            raise _CliError(EXIT_INPUT, f"{where}: expected 'name path [options]'")
        k = None
        methods = ["exact", "scc", "plain"]
        for opt in parts[2:]:
            if opt.startswith("k="):
                try:
                    k = int(opt[2:])
                except ValueError:
                    raise _CliError(EXIT_INPUT, f"{where}: k {opt[2:]!r} is not an integer") from None
                if k < 1:
                    raise _CliError(EXIT_INPUT, f"{where}: k must be >= 1, got {k}")
            elif opt.startswith("methods="):
                methods = opt[8:].split(",")
                for method in methods:
                    if method not in _BENCH_METHODS:
                        raise _CliError(EXIT_INPUT, f"{where}: unknown bench method {method!r}")
            else:
                raise _CliError(EXIT_INPUT, f"{where}: unknown manifest option {opt!r}")
        entries.append((parts[0], parts[1], k, methods))
    return entries


def _cmd_bench(args) -> int:
    entries = _parse_manifest(args.manifest)
    print("dataset\tmethod\tscore\tratio\ttime_s")
    for name, path, k, methods in entries:
        try:
            g, _ = _load_graph(path)
        except _CliError:
            print(f"{name}\t-\tskipped\t-\t-")
            continue
        optimal = None
        rows = []
        for method in methods:
            t0 = time.perf_counter()
            if method == "exact":
                res = min_agony(g, k)
                score = res.agony
                optimal = score
            else:
                _, score = heuristic_rank(g, k, method)
            rows.append((method, score, time.perf_counter() - t0))
        for method, score, secs in rows:
            if optimal in (None, 0):
                ratio = "1.000" if score == optimal else "-"
            else:
                ratio = f"{score / optimal:.3f}"
            print(f"{name}\t{method}\t{_render(lambda: str(score))}\t{ratio}\t{secs:.2f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="agony",
        description="Discover tiered hierarchies in weighted directed graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="optimal ranking via min-cost circulation")
    p.add_argument("input", help="edge-list file: 'source target [weight]' per line")
    p.add_argument("--k", type=int, default=None, help="maximum number of tiers")
    p.add_argument("--penalty", default="linear", help="linear | const | sum:a,b;a,b;...")
    p.add_argument("--canonical", action="store_true", help="emit the canonical optimal ranking")
    p.add_argument("--out", default=None, help="write ranking here instead of stdout")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("heuristic", help="divide-and-conquer heuristic ranking")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=("plain", "scc", "best"), default="best")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("score", help="score a ranking file against a graph")
    p.add_argument("input")
    p.add_argument("ranking", help="file of 'label rank' lines covering every vertex")
    p.add_argument("--penalty", default="linear")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("bench", help="run a benchmark manifest")
    p.add_argument("manifest", help="lines: name path [k=INT] [methods=exact,scc,plain,best]")
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except UnsupportedPenaltyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PENALTY
    except SolverError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
