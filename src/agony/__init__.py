"""Hierarchy discovery in weighted directed graphs by agony minimization.

Exact minimization goes through a min-cost circulation reduction; a
divide-and-conquer split-tree heuristic covers the very large cases.
Solver internals live in their modules (``agony.circulation``,
``agony.splittree`` and so on).
"""

from .canonical import canonical_ranking, distinct_rank_count
from .circulation import SolverError
from .exact import ExactResult, min_agony, verify_certificate
from .graph import (
    ParseError,
    VertexTable,
    WeightedDigraph,
    normalize,
    parse_edge_list,
    score_ranking,
)
from .heuristic import heuristic_rank
from .penalties import LINEAR, PenaltySpec, UnsupportedPenaltyError

__all__ = [
    "ExactResult",
    "LINEAR",
    "ParseError",
    "PenaltySpec",
    "SolverError",
    "UnsupportedPenaltyError",
    "VertexTable",
    "WeightedDigraph",
    "canonical_ranking",
    "distinct_rank_count",
    "heuristic_rank",
    "min_agony",
    "normalize",
    "parse_edge_list",
    "score_ranking",
    "verify_certificate",
]

__version__ = "0.1.0"
