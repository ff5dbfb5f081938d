"""Evolution operators on the half-plane t >= s >= 0.

Two constructions are provided: a closed-form model operator whose action on
each member of an orthogonal projector family is a prescribed quotient of
growth rates, and operators generated by integrating X' = A(t) X with a
fixed-step fourth-order Runge-Kutta scheme, A taken over arrays of times.
Generated operators integrate every interval between consecutive anchor
times in one batched pass and cache those propagators and their products, so
composition identities hold by construction up to integration error; queries
off the anchors integrate only the gaps, through the same kernel. Every
operator keeps one store of the pairs it has computed, so each distinct
U(t, s) is computed once per operator, in one batched call per batch of
unseen pairs, and shared read-only by every check that reads it.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError
from .rates import GrowthRate
from .projectors import ProjectorFamily
from .reports import CheckReport
from .util import MatrixStore, opnorm, opnorms, pair_slots, peak

_PROBE_TIMES = (0.0, 0.9, 2.3, 5.7)
_PROBE_TOL = 1e-9
_CHUNK = 8192  # cocycle triples per batched residual, bounds transient stacks


class EvolutionOperator:
    """U(t, s) on the half-plane t >= s >= 0.

    ``compute(pairs)`` gives the matrices of a list of in-domain pairs as an
    (m, n, n) stack. Each distinct pair is computed once per operator and
    kept read-only in ``store``. Everything derived from U is kept beside it
    through ``keep``: the restricted inverses, factor tables, norm families,
    their compatibility reports, the theorem sides and the theorem reports.
    ``run`` empties ``kept`` when it returns.
    """

    def __init__(self, dimension: int, compute: Callable[[list], np.ndarray]):
        def checked(pairs):
            for t, s in pairs:
                if s < 0 or t < s:
                    raise DomainError(f"({t}, {s}) outside the domain t >= s >= 0")
            return compute(pairs)

        self.dimension = dimension
        self.store = MatrixStore((dimension, dimension), checked)
        self.kept: dict = {}

    def keep(self, key, build: Callable[[], object]):
        """``kept[key]``, set to ``build()`` on the first call with ``key``."""
        if key not in self.kept:
            self.kept[key] = build()
        return self.kept[key]

    def evaluate(self, t: float, s: float) -> np.ndarray:
        """Read-only matrix of U(t, s); only t >= s >= 0 is in the domain."""
        return self.store.get((t, s))

    def evaluate_many(self, pairs) -> np.ndarray:
        """U(t, s) for each (t, s) in ``pairs`` as a new (m, n, n) stack."""
        return self.store.stack(pairs)


def identity_operator(dimension: int) -> EvolutionOperator:
    eye = np.eye(dimension)
    return EvolutionOperator(dimension, lambda pairs: np.tile(eye, (len(pairs), 1, 1)))


def rate_model(u: GrowthRate, h: GrowthRate, k: GrowthRate,
               mu: GrowthRate, nu: GrowthRate,
               family: ProjectorFamily) -> EvolutionOperator:
    """Closed-form operator acting by rate quotients on each projector range.

    U(t, s) = u(s)/u(t) * ( h(s)/h(t) P1(s) + k(t)/k(s) P2(s)
                            + mu(t)/mu(s) * nu(s)/nu(t) P3(s) )

    The family must behave like a constant orthogonal family: members must
    sum to the identity and satisfy P_i(t) P_j(s) = delta_ij P_i(s) (checked
    on a fixed probe set). That structure makes the operator commute with
    every member, so identity and composition hold exactly by telescoping of
    the quotients. A batch of pairs is one broadcast expression over the
    member stacks and the quotient columns of ``GrowthRate.ratios``.
    """
    _require_model_family(family)

    def compute(pairs):
        t, s = np.array(pairs, dtype=float).reshape(-1, 2).T
        outer, hq, kq, muq, nuq = (q.reshape(-1, 1, 1) for q in (
            u.ratios(s, t), h.ratios(s, t), k.ratios(t, s), mu.ratios(t, s),
            nu.ratios(s, t)))
        p1, p2, p3 = (family.stack(j, s.tolist()) for j in (1, 2, 3))
        return outer * (hq * p1 + kq * p2 + muq * nuq * p3)

    return EvolutionOperator(family.dimension, compute)


def _require_model_family(family: ProjectorFamily) -> None:
    eye = np.eye(family.dimension)
    for t in _PROBE_TIMES:
        ps = family.members(t)
        if opnorm(ps[0] + ps[1] + ps[2] - eye) > _PROBE_TOL:
            raise PreconditionError("family members must sum to the identity")
        for s in (s for s in _PROBE_TIMES if s <= t):
            qs = family.members(s)
            if any(opnorm(ps[i] @ qs[j] - (qs[i] if i == j else 0.0)) > _PROBE_TOL
                   for i in range(3) for j in range(3)):
                raise PreconditionError(
                    "family is not orthogonal-and-constant enough for the rate "
                    f"model (member products deviate at t={t}, s={s})")


@dataclass(frozen=True)
class GeneratorSpec:
    """x' = A(t) x: ``coefficient(times)`` is the (m, n, n) stack of A over a
    1-D array of m times; ``step`` is the fixed RK4 step."""

    dimension: int
    coefficient: Callable[[np.ndarray], np.ndarray]
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")

    @classmethod
    def constant(cls, matrix, step: float) -> "GeneratorSpec":
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("coefficient must be a square matrix")
        return cls(a.shape[0], lambda times: np.broadcast_to(a, (len(times), *a.shape)), step)


def _coefficients(coefficient, times: np.ndarray, n: int) -> np.ndarray:
    """``coefficient(times)``, checked to be an (m, n, n) stack of finite numbers."""
    a = np.asarray(coefficient(times), dtype=float)
    if a.shape != (len(times), n, n):
        raise ValueError(f"coefficient from t={times[0]} has shape {a.shape}, "
                         f"expected {(len(times), n, n)}")
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"coefficient is unbounded at t={times[np.argmin(finite)]}")
    return a


def _rk4(coefficient, starts, ends, step: float, n: int) -> np.ndarray:
    """RK4 propagators over [starts[i], ends[i]] as an (m, n, n) stack, I where
    empty. Intervals of one step count advance together, one coefficient call
    per step over all their stage times, each with the scalar scheme's bits."""
    spans = np.subtract(ends, starts, dtype=float)
    counts = np.where(spans > 0, np.maximum(1, np.ceil(spans / step - 1e-12)), 0)
    out = np.tile(np.eye(n), (len(starts), 1, 1))
    for steps in sorted(set(counts.tolist()) - {0}):
        rows = counts == steps
        s, h = np.asarray(starts, dtype=float)[rows], spans[rows] / steps
        half, full, sixth = (v[:, None, None] for v in (0.5 * h, h, h / 6.0))
        x, m = out[rows], len(s)
        for i in range(int(steps)):
            tau = s + i * h
            a = _coefficients(coefficient, np.concatenate((tau, tau + 0.5 * h, tau + h)), n)
            k1 = a[:m] @ x
            k2 = a[m:2 * m] @ (x + half * k1)
            k3 = a[m:2 * m] @ (x + half * k2)
            k4 = a[2 * m:] @ (x + full * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[rows] = x
    return out


def from_generator(spec: GeneratorSpec, anchors=None) -> EvolutionOperator:
    """Integrate the generator into an evolution operator.

    When anchor times are given, the propagators over all consecutive anchor
    intervals are integrated once, in one ``_rk4`` call, and each chain
    product over anchors lo..hi is multiplied once, left to right, and
    returned read-only. The scenario runner anchors on the grid plus the norm
    families' future lattice out to t_max + 2*horizon (``norms.query_lattice``);
    off-lattice queries integrate only the gaps, one interval per call.
    Anchor-aligned queries satisfy the composition identity up to
    floating-point reassociation only.
    """
    n = spec.dimension
    anchor_list = sorted(float(a) for a in anchors) if anchors else []
    if anchor_list and anchor_list[0] < 0:
        raise ValueError("anchors must be nonnegative")
    _coefficients(spec.coefficient, np.array(anchor_list or (0.0, 0.5, 1.0)), n)
    props = _rk4(spec.coefficient, anchor_list[:-1], anchor_list[1:], spec.step, n)
    rows: dict[int, list[np.ndarray]] = {}  # lo -> [I, props[lo], ...]

    def chain(lo, hi):
        row = rows.setdefault(lo, [np.eye(n)])
        for i in range(lo + len(row) - 1, hi):
            row.append(props[i] @ row[-1])
            row[-1].flags.writeable = False
        return row[hi - lo]

    def evaluator(t, s):
        if t == s:
            return np.eye(n)
        lo = bisect.bisect_left(anchor_list, s)
        hi = bisect.bisect_right(anchor_list, t) - 1
        if lo > hi:
            return _rk4(spec.coefficient, [s], [t], spec.step, n)[0]
        m = chain(lo, hi)
        if s < anchor_list[lo]:
            m = m @ _rk4(spec.coefficient, [s], [anchor_list[lo]], spec.step, n)[0]
        if t > anchor_list[hi]:
            m = _rk4(spec.coefficient, [anchor_list[hi]], [t], spec.step, n)[0] @ m
        return m

    return EvolutionOperator(
        n, lambda pairs: np.array([evaluator(t, s) for t, s in pairs]))


def conjugate(operator: EvolutionOperator, basis_change: np.ndarray) -> EvolutionOperator:
    """Operator in a new orthonormal basis: Q U(t, s) Q^T."""
    q = np.array(basis_change, dtype=float)
    return EvolutionOperator(operator.dimension,
                             lambda pairs: q @ operator.evaluate_many(pairs) @ q.T)


def check_identity(operator: EvolutionOperator, times, tol: float) -> CheckReport:
    """Residual of U(t, t) = I over sampled times."""
    stack = operator.evaluate_many([(t, t) for t in times])
    worst = peak(stack - np.eye(operator.dimension))
    return CheckReport("identity", tol, {"identity": worst}, worst <= tol)


def check_cocycle(operator: EvolutionOperator, triples, tol: float,
                  pairs=None) -> CheckReport:
    """Residual of U(t, t0) = U(t, s) U(s, t0) over (t, s, t0) triples.

    ``triples`` are float triples; or, with ``pairs``, an (m, 3) integer
    array holding per triple the positions in ``pairs`` of its (t, t0),
    (t, s) and (s, t0) pairs, which is how ``util.grid_slots`` addresses
    every triple of a grid without building one. Residuals are measured
    relative to the size of U(t, t0), floored at 1: growing operators reach
    norms ~e^{a t} where even a one-ulp relative error dwarfs any absolute
    tolerance, so the scale-aware residual is the meaningful one. Each
    distinct pair is evaluated once; the products are taken in batches of
    triples, each reduced to its worst residual norm by ``util.peak``.
    """
    if pairs is None:
        pairs, slots = pair_slots(triples)
    else:
        slots = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
        ts, ss = np.asarray(pairs, dtype=float).reshape(-1, 2).T
        direct, left, right = slots.T
        if not (np.array_equal(ts[direct], ts[left])
                and np.array_equal(ss[left], ts[right])
                and np.array_equal(ss[direct], ss[right])):
            raise ValueError("slots must point at the (t, t0), (t, s) and "
                             "(s, t0) pairs of each triple")
    stack = operator.evaluate_many(pairs)
    scale = np.maximum(1.0, opnorms(stack))
    worst = 0.0
    for lo in range(0, len(slots), _CHUNK):
        direct, left, right = slots[lo:lo + _CHUNK].T
        worst = max(worst, peak(stack[direct] - stack[left] @ stack[right], scale[direct]))
    return CheckReport("cocycle", tol, {"cocycle": worst}, worst <= tol)
