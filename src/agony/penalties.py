"""Edge penalty functions for scoring rank assignments.

A penalty maps the rank difference d = r(u) - r(v) of an edge (u, v) to a
nonnegative cost.  Convex piecewise-linear penalties are represented as sums
of hinge terms sum_i max(0, a_i * (d - b_i)) and are the only kind the exact
solver accepts; the constant (feedback-arc-set) penalty and arbitrary custom
penalties are supported for scoring only.  Every hinge sum over a graph is
``hinge_total`` over the integer terms; ``PenaltySpec.unscale`` divides it
back by the slope scale.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Union

Number = Union[int, Fraction]


class UnsupportedPenaltyError(ValueError):
    """Raised when a penalty cannot be minimized by the circulation solver."""


def hinge_total(edges, ranks, terms) -> int:
    """Sum of a*w*max(0, r(u) - r(v) - b) over edges (u, v, w) and terms (a, b)."""
    total = 0
    for a, b in terms:
        part = 0
        for u, v, w in edges:
            d = ranks[u] - ranks[v] - b
            if d > 0:
                part += w * d
        total += a * part
    return total


# Fraction("1e999999999") builds a billion-digit integer: exponents are
# held to the digit count that int() and str() convert by default
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        # floats are accepted for convenience but converted through repr so
        # that "1.5" means 3/2, not the binary expansion of the double
        x = str(x)
    m = isinstance(x, str) and _EXPONENT.search(x)
    if m and abs(int(m.group(1))) > _MAX_EXPONENT:
        raise ValueError(f"exponent of {x!r} outside [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def _as_breakpoint(x) -> int:
    b = _as_fraction(x)
    if b.denominator != 1:
        raise ValueError(f"hinge breakpoint must be an integer, got {x!r}")
    return int(b)


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty function plus the metadata the solver needs.

    ``kind`` is one of ``linear``, ``convex-sum``, ``constant``, ``custom``.
    ``terms`` holds (slope, breakpoint) hinge pairs for the first two kinds.
    """

    kind: str
    terms: tuple[tuple[Fraction, int], ...] = ()
    func: Callable[[int], Number] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind in ("linear", "convex-sum"):
            if not self.terms:
                raise ValueError("hinge penalty needs at least one term")
            for a, b in self.terms:
                if a <= 0:
                    raise ValueError(f"hinge slope must be positive, got {a}")
                if not isinstance(b, int):
                    raise ValueError(f"hinge breakpoint must be an integer, got {b!r}")
        elif self.kind == "custom":
            if self.func is None:
                raise ValueError("custom penalty needs a callable")
        elif self.kind != "constant":
            raise ValueError(f"unknown penalty kind {self.kind!r}")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def linear() -> "PenaltySpec":
        """Linear agony penalty max(0, d + 1)."""
        return PenaltySpec("linear", ((Fraction(1), -1),))

    @staticmethod
    def convex_sum(terms) -> "PenaltySpec":
        """Convex penalty sum_i max(0, a_i * (d - b_i)) with a_i > 0."""
        canon = tuple((_as_fraction(a), _as_breakpoint(b)) for a, b in terms)
        return PenaltySpec("convex-sum", canon)

    @staticmethod
    def constant() -> "PenaltySpec":
        """Constant penalty: 1 for every backward edge.  Scoring only."""
        return PenaltySpec("constant")

    @staticmethod
    def custom(func: Callable[[int], Number]) -> "PenaltySpec":
        """Arbitrary user penalty.  Scoring only."""
        return PenaltySpec("custom", func=func)

    @staticmethod
    def parse(text: str) -> "PenaltySpec":
        """Parse "linear", "const" or "sum:a1,b1;a2,b2;..." mini-language."""
        text = text.strip()
        if text == "linear":
            return PenaltySpec.linear()
        if text in ("const", "constant"):
            return PenaltySpec.constant()
        if text.startswith("sum:"):
            terms = []
            for chunk in text[4:].split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                parts = chunk.split(",")
                if len(parts) != 2:
                    raise ValueError(f"bad penalty term {chunk!r}, expected 'slope,breakpoint'")
                terms.append((_as_fraction(parts[0]), int(parts[1])))
            if not terms:
                raise ValueError("empty term list in penalty spec")
            return PenaltySpec.convex_sum(terms)
        raise ValueError(f"unknown penalty spec {text!r}")

    # -- evaluation ------------------------------------------------------

    def __call__(self, d: int) -> Number:
        if self.solvable:
            return self.unscale(sum(a * (d - b) for a, b in self.integer_terms() if d > b))
        if self.kind == "constant":
            return 1 if d >= 0 else 0
        return self.func(d)

    # -- solver support --------------------------------------------------

    @property
    def solvable(self) -> bool:
        return self.kind in ("linear", "convex-sum")

    @property
    def scale(self) -> int:
        """LCM of slope denominators; capacities are scaled by this."""
        if not self.terms:
            return 1
        return math.lcm(*(a.denominator for a, _ in self.terms))

    def unscale(self, value: int) -> Number:
        """value / scale, a sum over ``integer_terms`` in penalty units: int when whole."""
        frac = Fraction(value, self.scale)
        return int(frac) if frac.denominator == 1 else frac

    def integer_terms(self) -> tuple[tuple[int, int], ...]:
        """Hinge terms with slopes cleared to integers by ``scale``, cached."""
        return self._integer_terms

    @cached_property
    def _integer_terms(self) -> tuple[tuple[int, int], ...]:
        if not self.solvable:  # the package's one solvability check
            raise UnsupportedPenaltyError(
                f"penalty kind {self.kind!r} cannot be minimized, only scored"
            )
        s = self.scale
        return tuple((int(a * s), b) for a, b in self.terms)

    def describe(self) -> str:
        if self.kind == "linear":
            return "linear"
        if self.kind == "constant":
            return "const"
        if self.kind == "convex-sum":
            return "sum:" + ";".join(f"{a},{b}" for a, b in self.terms)
        return "custom"


LINEAR = PenaltySpec.linear()
