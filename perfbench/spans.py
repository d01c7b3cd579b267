"""In-memory spans around the layer entry points of ``agony``.

The tracer replaces module attributes (``agony.exact.solve_fast`` and the
like) with timing wrappers while a traced call runs and puts the originals
back afterwards, so nothing under ``src/`` changes.  Each span records
(call, name, start, end, parent); a span's self time is its duration
minus that of its direct children, so the self times of one call add up
to the call's wall time.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import process_time


def _exact_counts(counts: Counter, result) -> None:
    stats = result.stats
    counts["circulation.phases"] += stats.outer_phases
    counts["circulation.augmentations"] += stats.augmentations
    counts["circulation.contractions"] += stats.contractions
    counts["circulation.repairs"] += stats.repairs
    counts["exact.components"] += len(result.components)


def _arc_count(counts: Counter, inst) -> None:
    counts["circulation.arcs"] += inst.m


def _tree_count(counts: Counter, _tree) -> None:
    counts["splittree.trees"] += 1


def _layer_count(counts: Counter, layers_and_edges) -> None:
    counts["heuristic.layers"] += len(layers_and_edges[0])


# (module, attribute, span name, counter hook); one span name may cover
# several attributes when modules import the same function by name
POINTS = (
    ("agony.cli", "parse_edge_list", "graph.parse", None),
    ("agony.cli", "normalize", "graph.normalize", None),
    ("agony.cli", "min_agony", "exact", _exact_counts),
    ("agony.cli", "canonical_ranking", "canonical.rank", None),
    ("agony.cli", "heuristic_rank", "heuristic", None),
    ("agony.cli", "score_ranking", "graph.score", None),
    ("agony.exact", "score_ranking", "graph.score", None),
    ("agony.heuristic", "score_ranking", "graph.score", None),
    ("agony.exact", "strongly_connected_components", "graph.scc", None),
    ("agony.graph", "strongly_connected_components", "graph.scc", None),
    ("agony.heuristic", "condensation_layers", "graph.condense", _layer_count),
    ("agony.exact", "build_convex_instance", "circulation.build", None),
    ("agony.exact", "uncapacitate", "circulation.uncap", _arc_count),
    ("agony.exact", "solve_fast", "circulation.solve", None),
    ("agony.exact", "extract_ranking", "circulation.extract", None),
    ("agony.exact", "circulation_value", "circulation.extract", None),
    ("agony.heuristic", "build_split_tree", "splittree.build", _tree_count),
    ("agony.heuristic", "prune_tree", "splittree.prune", None),
    ("agony.heuristic", "PruneDP", "splittree.prune", None),
    ("agony.heuristic", "monotone_min", "heuristic.monotone", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [call, name, start, end, parent index]
        self.counts: Counter = Counter()
        self.call = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self.call, name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                spans[idx][2], spans[idx][3] = start, end
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def _counting_monotone(self, fn):
        counts = self.counts

        def monotone_min(ell, f):
            def counted(j, i):
                counts["heuristic.f_evals"] += 1
                return f(j, i)

            return fn(ell, counted)

        return monotone_min

    def install(self, modules: dict) -> None:
        for module_name, attr, name, count in POINTS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "monotone_min":
                original = self._counting_monotone(original)
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for _call, name, start, end, parent in spans[first:]:
            out[name] += end - start
            if parent >= first:
                out[spans[parent][1]] -= end - start
        return out
