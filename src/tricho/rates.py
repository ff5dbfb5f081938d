"""Growth rates: nondecreasing maps from the nonnegative reals into [1, inf).

Three kinds are supported: exponential ``e^(a*t)``, polynomial ``(t+1)^a``
(both with positive exponent ``a``), and tabulated rates interpolated
linearly between knots. Divergence at infinity is not decidable from finite
data, so grid validation reports it only as a heuristic flag.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import DomainError, ExtrapolationError
from .reports import ValidationReport

KINDS = ("exponential", "polynomial", "tabulated")


@dataclass(frozen=True)
class GrowthRate:
    kind: str
    exponent: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind in ("exponential", "polynomial"):
            if not self.exponent > 0:
                raise ValueError("exponent must be positive")
        else:
            if not self.table:
                raise ValueError("tabulated rate needs at least one knot")
            times = [t for t, _ in self.table]
            if times[0] < 0:
                raise ValueError("tabulated times must be nonnegative")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("tabulated times must be strictly increasing")

    @classmethod
    def exponential(cls, exponent: float) -> "GrowthRate":
        return cls("exponential", exponent)

    @classmethod
    def polynomial(cls, exponent: float) -> "GrowthRate":
        return cls("polynomial", exponent)

    @classmethod
    def tabulated(cls, points) -> "GrowthRate":
        return cls("tabulated", table=tuple((float(t), float(v)) for t, v in points))

    @classmethod
    def constant(cls, span: float, value: float = 1.0) -> "GrowthRate":
        """Tabulated rate holding ``value`` on [0, span]."""
        return cls.tabulated([(0.0, value), (span, value)])

    @property
    def span(self) -> tuple[float, float] | None:
        """Domain of a tabulated rate, None for closed-form kinds."""
        if self.kind != "tabulated":
            return None
        return self.table[0][0], self.table[-1][0]

    def evaluate(self, t: float) -> float:
        if t < 0:
            raise DomainError(f"rate evaluated at negative time {t}")
        if self.kind == "exponential":
            return math.exp(self.exponent * t)
        if self.kind == "polynomial":
            return (t + 1.0) ** self.exponent
        lo, hi = self.span
        if t < lo or t > hi:
            raise ExtrapolationError(
                f"time {t} outside tabulated span [{lo}, {hi}]")
        times = [p[0] for p in self.table]
        i = bisect.bisect_right(times, t) - 1
        if i == len(self.table) - 1:
            return self.table[-1][1]
        (t0, v0), (t1, v1) = self.table[i], self.table[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    __call__ = evaluate

    def ratio(self, a: float, b: float) -> float:
        """evaluate(a) / evaluate(b), computed stably; exactly 1 when a == b.

        Exponential ratios go through exp(exponent*(a-b)) so that large
        times never overflow the individual values.
        """
        if a < 0 or b < 0:
            raise DomainError("rate ratio needs nonnegative times")
        if a == b:
            return 1.0
        if self.kind == "exponential":
            return math.exp(self.exponent * (a - b))
        if self.kind == "polynomial":
            return ((a + 1.0) / (b + 1.0)) ** self.exponent
        return self.evaluate(a) / self.evaluate(b)


def validate_on_grid(rate: GrowthRate, grid) -> ValidationReport:
    """Check the rate axioms (values >= 1, nondecreasing) at grid points.

    Divergence is flagged heuristically: if the last grid value is less than
    ten times the first, the rate looks too slow to diverge. This is a flag,
    never a failure.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(t < 0 for t in grid):
        raise ValueError("grid times must be nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")

    values = [rate.evaluate(t) for t in grid]
    violations = [f"value < 1 at t={t:g}" for t, v in zip(grid, values) if v < 1.0]
    violations += [f"decreasing on [{t0:g},{t1:g}]" for t0, t1, v0, v1
                   in zip(grid, grid[1:], values, values[1:]) if v1 < v0]
    return ValidationReport(violations, slow_divergence=values[-1] < 10.0 * values[0])
