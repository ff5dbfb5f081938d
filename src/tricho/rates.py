"""Growth rates: nondecreasing maps from the nonnegative reals into [1, inf).

Three kinds are supported: exponential ``e^(a*t)``, polynomial ``(t+1)^a``
(both with positive exponent ``a``), and tabulated rates interpolated
linearly between knots. A rate checks its own axioms when it is built:
finite knots holding values >= 1 that are nondecreasing, or a finite
exponent. Divergence at infinity is not decidable from finite data and is
not checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtrapolationError

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
            if not 0 < self.exponent < math.inf:
                raise ValueError(f"exponent must be positive and finite, got {self.exponent}")
        else:
            if not self.table:
                raise ValueError("tabulated rate needs at least one knot")
            times, values = zip(*self.table)
            if not all(map(math.isfinite, times + values)):
                raise ValueError("tabulated knots must be finite")
            if times[0] < 0:
                raise ValueError("tabulated times must be nonnegative")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("tabulated times must be strictly increasing")
            if values[0] < 1 or any(b < a for a, b in zip(values, values[1:])):
                raise ValueError("tabulated values must be >= 1 and nondecreasing")

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
        if not t >= 0:  # false for nan
            raise DomainError(f"rate evaluated at negative or nan time {t}")
        if self.kind == "exponential":
            return math.exp(self.exponent * t)
        if self.kind == "polynomial":
            return (t + 1.0) ** self.exponent
        return float(self._interpolate(np.array([t], dtype=float))[0])

    def _interpolate(self, t: np.ndarray) -> np.ndarray:
        """The tabulated rate at each of ``t``, linear between knots."""
        lo, hi = self.span
        outside = (t < lo) | (t > hi)
        if outside.any():
            raise ExtrapolationError(f"time {t[outside][0]} outside tabulated span [{lo}, {hi}]")
        times, values = np.array(self.table).T
        i = np.searchsorted(times, t, side="right") - 1
        inner = i < len(times) - 1  # the last knot's value at the end of the span
        out, i = np.full(t.shape, values[-1]), i[inner]
        t0, t1, v0, v1 = times[i], times[i + 1], values[i], values[i + 1]
        out[inner] = v0 + (v1 - v0) * (t[inner] - t0) / (t1 - t0)
        return out

    __call__ = evaluate

    def ratios(self, a, b) -> np.ndarray:
        """evaluate(a) / evaluate(b) over 1-D arrays of times broadcast together;
        exactly 1 where a == b. Exponentials go through exp(exponent*(a-b)), so
        large times never overflow; powers are taken per value by ``math.exp``
        and ``**``, whose last bits ``np.exp`` does not reproduce."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if not (np.minimum(a, b) >= 0).all():  # false for nan
            raise DomainError("rate ratio needs nonnegative, non-nan times")
        with np.errstate(all="ignore"):  # as with Python floats: inf or nan, no warning
            if self.kind == "tabulated":  # a then b of each pair: an error names the first
                a, b = np.broadcast_arrays(a, b)
                out, differ = np.ones(a.shape), a != b
                values = self._interpolate(np.stack((a[differ], b[differ]), axis=1).ravel())
                out[differ] = values[0::2] / values[1::2]
                return out
            if self.kind == "exponential":
                values = map(math.exp, (self.exponent * (a - b)).tolist())
            else:
                values = (q ** self.exponent for q in ((a + 1.0) / (b + 1.0)).tolist())
        out = np.fromiter(values, float, max(a.size, b.size))
        out[a == b] = 1.0
        return out

