"""Evolution operators on the half-plane t >= s >= 0.

Two constructions are provided: a closed-form model operator whose action on
each member of an orthogonal projector family is a prescribed quotient of
growth rates, and operators generated by integrating X' = A(t) X with a
fixed-step fourth-order Runge-Kutta scheme, A taken over arrays of times.
Generated operators integrate every interval between consecutive anchor
times in one batched pass and keep those propagators, so composition
identities hold by construction up to integration error. Each batch of
queries is answered in one pass: chain products of the propagators, and
every gap off the anchors through one call of the same kernel. Every
operator keeps one store of the pairs it has computed, so each distinct
U(t, s) is computed once per operator, in one batched call per batch of
unseen pairs, and every check reads it from there, each read a new array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .rates import GrowthRate
from .projectors import RANK_TOL, ProjectorFamily, ordered_pairs
from .reports import CheckReport
from .util import MatrixStore, cocycle_residual, grid_pairs, opnorms, peak, time_stack

_PROBE_TIMES = (0.0, 0.9, 2.3, 5.7)
_PROBE_TOL = 1e-9


class EvolutionOperator:
    """U(t, s) on the half-plane t >= s >= 0 of finite times.

    ``compute(pairs)`` gives the matrices of an (m, 2) array of in-domain
    pairs as an (m, n, n) stack. Each distinct pair is computed once per
    operator and kept in the array-keyed ``store``, and its
    spectral norm |U(t, s)| beside it when ``norms`` first reads it. Everything
    derived from U that a lookup cannot rebuild is kept beside it through
    ``keep``: the members' integrated blocks (``image``), the restricted
    inverses, one (pairs, 4) factor table per splitting system and grid, the
    norm terms, their values on a norm family's sample batch and the norm
    systems' margin tables. ``run`` empties ``kept`` when it returns.
    ``generator`` is the spec and anchors ``from_generator`` read, else None.
    """

    def __init__(self, dimension: int, compute: Callable[[np.ndarray], np.ndarray]):
        self.dimension, self.generator = dimension, None
        self.store = MatrixStore((dimension, dimension),
                                 lambda pairs: compute(ordered_pairs(pairs)))
        self.kept: dict = {}

    def image(self, family, index: int, pairs) -> np.ndarray:
        """Member j = ``index``'s image U(t, s) T_j(s) of its frame
        (``ProjectorFamily.frame``) at an (m, 2) array of pairs: T_j U_j, its
        block U_j(t, s) = S_j(t) U(t, s) T_j(s) sliced from ``_joint_blocks``,
        where that integrates the blocks, else from U's stored matrices."""
        joint, member = self.keep(("block", family), lambda: _joint_blocks(self, family))
        if joint is None:
            return self.evaluate_many(pairs) @ family.frame(index, pairs[:, 1])[0]
        u = joint.evaluate_many(pairs)[:, member == index][:, :, member == index]
        return family.frames[index - 1][0] @ u

    def keep(self, key, build: Callable[[], object]):
        """``kept[key]``, set to ``build()`` on the first call with ``key``."""
        if key not in self.kept:
            self.kept[key] = build()
        return self.kept[key]

    def evaluate(self, t: float, s: float) -> np.ndarray:
        """U(t, s), t >= s >= 0, as a new matrix: ``evaluate_many`` at one pair."""
        return self.store.stack([(t, s)])[0]

    def evaluate_many(self, pairs) -> np.ndarray:
        """U(t, s) for each (t, s) of an (m, 2) array or list as a new stack."""
        return self.store.stack(pairs)

    def norms(self, pairs) -> np.ndarray:
        """|U(t, s)| for each (t, s), each pair's taken by SVD once per operator."""
        return self.store.norms(pairs)


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
    require_model_family(family)

    def compute(pairs):
        t, s = pairs.T
        outer, hq, kq, muq, nuq = (q.reshape(-1, 1, 1) for q in (
            u.ratios(s, t), h.ratios(s, t), k.ratios(t, s), mu.ratios(t, s),
            nu.ratios(s, t)))
        p1, p2, p3 = (family.stack(j, s) for j in (1, 2, 3))
        return outer * (hq * p1 + kq * p2 + muq * nuq * p3)

    return EvolutionOperator(family.dimension, compute)


def require_model_family(family: ProjectorFamily) -> None:
    """Raise PreconditionError unless, at every probe pair s <= t, the members
    sum to the identity and P_i(t) P_j(s) = delta_ij P_i(s). All pairs are
    checked as stacks, in one spectral-norm call per kind of product."""
    p = np.stack([family.stack(j, _PROBE_TIMES) for j in (1, 2, 3)], axis=1)
    t, s = np.tril_indices(len(_PROBE_TIMES))  # the probe times ascend
    with np.errstate(all="ignore"):  # an overflow gives a nan norm, which fails too
        sums = ~(opnorms(p.sum(axis=1) - np.eye(family.dimension)) <= _PROBE_TOL)
        deviation = p[t, :, None] @ p[s, None] - np.eye(3)[:, :, None, None] * p[s, :, None]
        products = ~(opnorms(deviation) <= _PROBE_TOL).all(axis=(1, 2))
    # the first failure a loop over t, then s <= t, meets; the sum at t comes first
    for k in np.flatnonzero(products | (sums[t] & (s == 0)))[:1]:
        if sums[t[k]]:
            raise PreconditionError("family members must sum to the identity")
        raise PreconditionError(
            "family is not orthogonal-and-constant enough for the rate model (member "
            f"products deviate at t={_PROBE_TIMES[t[k]]}, s={_PROBE_TIMES[s[k]]})")


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
            a = time_stack("coefficient", coefficient,
                           np.concatenate((tau, tau + 0.5 * h, tau + h)), n)
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
    intervals are integrated once, in one ``_rk4`` call. A batch of pairs is
    answered in one pass: one ``searchsorted`` finds the anchors in [s, t] of
    every pair, the chain products over them are multiplied left to right
    across the batch, and every gap (before the first anchor of a pair, past
    its last, or a pair with no anchor in [s, t]) goes through one ``_rk4``
    call. The scenario runner anchors on the grid plus the norm families'
    future lattice out to t_max + 2*horizon (``norms.query_lattice``).
    Anchor-aligned queries satisfy the composition identity up to
    floating-point reassociation only.
    """
    n = spec.dimension
    anchor_list = sorted(float(a) for a in anchors) if anchors is not None else []
    for a in anchor_list:
        if not 0 <= a < math.inf:  # false for NaN
            raise ValueError(f"anchors must be finite and nonnegative, got {a}")
    time_stack("coefficient", spec.coefficient, anchor_list or (0.0, 0.5, 1.0), n)
    props = _rk4(spec.coefficient, anchor_list[:-1], anchor_list[1:], spec.step, n)
    points = np.array(anchor_list)

    def compute(pairs):
        t, s = pairs.T
        lo = np.searchsorted(points, s)
        hi = np.searchsorted(points, t, side="right") - 1
        on, off = np.flatnonzero(lo <= hi), np.flatnonzero(lo > hi)
        out = np.tile(np.eye(n), (len(pairs), 1, 1))
        for d in range(int((hi - lo).max(initial=0))):  # chains, left to right
            rows = np.flatnonzero(lo + d < hi)
            out[rows] = props[lo[rows] + d] @ out[rows]
        head, tail = on[s[on] < points[lo[on]]], on[t[on] > points[hi[on]]]
        gaps = np.split(_rk4(spec.coefficient,
                             np.concatenate((s[off], s[head], points[hi[tail]])),
                             np.concatenate((t[off], points[lo[head]], t[tail])),
                             spec.step, n), [len(off), len(off) + len(head)])
        out[off] = gaps[0]
        out[head] = out[head] @ gaps[1]
        out[tail] = gaps[2] @ out[tail]
        return out

    operator = EvolutionOperator(n, compute)
    operator.generator = spec, anchor_list
    return operator


def _joint_blocks(operator: EvolutionOperator, family: ProjectorFamily):
    """A generated U's blocks in a constant family's frames as one operator,
    B = L A(t) F with L the S_j stacked and F the T_j side by side, integrated
    with U's step and anchors, and the member of each column of B. Its
    off-block entries are set to 0, so no rounding of one member's range
    reaches another's. (None, None) where U is not generated, the family not
    constant, or B couples two members beyond RANK_TOL of its largest |entry|
    at some time the pass over the anchor intervals reads: those blocks are
    derived from U."""
    if operator.generator is None or family.frames is None:
        return None, None
    (spec, anchors), (bases, lefts) = operator.generator, zip(*family.frames)
    basis, left = np.concatenate(bases, axis=1), np.concatenate(lefts)
    member = np.repeat([1, 2, 3], [b.shape[1] for b in bases])
    if not len(member):
        return None, None
    apart, largest = member[:, None] != member, np.zeros(2)  # off the blocks, anywhere

    def coefficient(times):
        joint = left @ spec.coefficient(times) @ basis
        size = np.abs(joint)
        np.maximum(largest, [size[:, apart].max(initial=0.0), size.max(initial=0.0)], out=largest)
        return np.where(apart, 0.0, joint)
    blocks = from_generator(GeneratorSpec(len(member), coefficient, spec.step), anchors)
    return (blocks, member) if largest[0] <= RANK_TOL * largest[1] else (None, None)


def conjugate(operator: EvolutionOperator, frame: Callable) -> EvolutionOperator:
    """Operator in a moving orthonormal frame: Q(t) U(t, s) Q(s)^T, where
    ``frame`` gives Q over an array of times, an (m, n, n) stack ``time_stack`` checks."""
    def compute(pairs):
        q_t, q_s = (time_stack("frame", frame, x, operator.dimension) for x in pairs.T)
        return q_t @ operator.evaluate_many(pairs) @ np.swapaxes(q_s, -1, -2)
    return EvolutionOperator(operator.dimension, compute)


def check_identity(operator: EvolutionOperator, times, tol: float) -> CheckReport:
    """Residual of U(t, t) = I over sampled times; none raises ValueError."""
    times = np.asarray(times, dtype=float)
    if not len(times):
        raise ValueError("grid must be nonempty")
    stack = operator.evaluate_many(np.repeat(times[:, None], 2, 1))
    worst = peak(stack - np.eye(operator.dimension))
    return CheckReport("identity", tol, {"identity": worst}, worst <= tol)


def check_cocycle(operator: EvolutionOperator, times, tol: float) -> CheckReport:
    """Residual of U(t, t0) = U(t, s) U(s, t0) over every triple t >= s >= t0
    of ascending ``times``; times out of order raise DomainError naming a pair.

    Residuals are measured relative to the size of U(t, t0), floored at 1:
    growing operators reach norms ~e^{a t} where even a one-ulp relative
    error dwarfs any absolute tolerance, so the scale-aware residual is the
    meaningful one. ``util.cocycle_residual`` reduces the triples of
    ``grid_pairs(times)`` to their worst scaled residual, gathering U from its
    store a run at a time, and the kept norms of U scale it. For an operator
    anchored on the times (``from_generator``), U(t, t0) is the chain product
    through s, so the residual shows floating-point reassociation only, not
    the integration error.
    """
    pairs = grid_pairs(times)
    rows = operator.store.rows(pairs)  # may grow values
    worst = cocycle_residual(operator.store.values, rows, np.maximum(1.0, operator.norms(pairs)))
    return CheckReport("cocycle", tol, {"cocycle": worst}, worst <= tol)
