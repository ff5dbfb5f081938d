"""Families of three time-dependent projectors and their restricted inverses.

A family P1, P2, P3 splits the state space at every time into stable,
unstable and central directions. The family is *orthogonal* when the three
members sum to the identity and annihilate each other pairwise, *invariant*
for an evolution operator U when each member commutes with U along
trajectories, and *compatible* when additionally U(t, s) restricts to an
isomorphism between the ranges of P2 (and P3) at times s and t. For a
compatible family the restricted inverse maps V_j(t, s) exist; this module
computes them as matrices W(t, s) = V_j(t, s) P_j(t) and verifies their
defining identities.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, NotStronglyInvariantError, StructuralError
from .reports import CheckReport
from .util import (MatrixStore, chunks, cocycle_residual, grid_pairs, peak, range_bases,
                   time_stack)

RANK_TOL = 1e-10  # scale-invariant: smallest singular value vs largest


class ProjectorFamily:
    """Three members, each mapping a 1-D array of m times to the (m, n, n)
    stack of its matrices at them; ``constant`` builds time-independent ones.

    Range bases are computed once per time in stores keyed by times, one
    batched SVD per batch of new times; each read is a new stack.
    """

    def __init__(self, dimension: int, members):
        if dimension <= 0:
            raise StructuralError("dimension must be positive")
        if len(members) != 3:
            raise StructuralError("a family has exactly three members")
        self.dimension = n = int(dimension)
        self._members = dict(enumerate(members, 1))  # index -> P_index
        self._bases = {i: MatrixStore((n, n), lambda times, i=i: range_bases(
            self.stack(i, times))[0]) for i in self._members}

    @classmethod
    def constant(cls, p1, p2, p3) -> "ProjectorFamily":
        mats = [np.array(p, dtype=float) for p in (p1, p2, p3)]
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise StructuralError("members must be square matrices of equal size")
        return cls(n, [lambda times, m=m: np.broadcast_to(m, (len(times), n, n)) for m in mats])

    @classmethod
    def coordinate_split(cls, n1: int, n2: int, n3: int) -> "ProjectorFamily":
        """Constant orthogonal projectors onto consecutive coordinate blocks."""
        if min(n1, n2, n3) < 0 or n1 + n2 + n3 <= 0:
            raise StructuralError("block sizes must be nonnegative with positive sum")
        n = n1 + n2 + n3
        mats = [np.zeros((n, n)) for _ in range(3)]
        for m, lo, hi in zip(mats, (0, n1, n1 + n2), (n1, n1 + n2, n)):
            m[lo:hi, lo:hi] = np.eye(hi - lo)
        return cls.constant(*mats)

    def stack(self, index: int, times) -> np.ndarray:
        """P_index(t) for each of ``times`` as a new (m, n, n) stack, from one
        call of the member checked by ``util.time_stack``."""
        return np.array(time_stack(f"member {index}", self._members[index], times, self.dimension))

    def bases(self, index: int, times) -> tuple[np.ndarray, np.ndarray]:
        """``util.range_bases`` of P_index(t) for each of ``times``."""
        b = self._bases[index].stack(times)
        return b, np.count_nonzero(b.any(axis=-2), axis=-1)


def rank_groups(ranks: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each nonzero rank with the positions holding it."""
    return [(r, np.flatnonzero(ranks == r)) for r in sorted(set(ranks.tolist()) - {0})]


def ordered_pairs(pairs) -> np.ndarray:
    """``pairs`` as an (m, 2) array; DomainError names one not in inf > t >= s >= 0."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    t, s = pairs.T
    outside = ~((t >= s) & (s >= 0) & np.isfinite(t))
    if outside.any():
        t, s = pairs[outside.argmax()].tolist()
        raise DomainError(f"({t}, {s}) outside the domain inf > t >= s >= 0")
    return pairs


def check_orthogonal(family: ProjectorFamily, grid, tol: float) -> CheckReport:
    """Idempotency, sum-to-identity and pairwise-annihilation residuals."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    ps = [family.stack(j, grid) for j in (1, 2, 3)]
    worst = {
        "idempotency": max(peak(p @ p - p) for p in ps),
        "sum_identity": peak(sum(ps) - np.eye(family.dimension)),
        "pairwise_product": max(peak(ps[i] @ ps[j])
                                for i in range(3) for j in range(3) if i != j),
    }
    return CheckReport("orthogonality", tol, worst,
                       passed=all(v <= tol for v in worst.values()))


def _commutation(family, index: int, u: np.ndarray, pairs: np.ndarray, u_norm) -> float:
    """Worst |U(t,s)P(s) - P(t)U(t,s)| / max(1, |U(t,s)|) of one member over
    a stack of U and its spectral norms."""
    p_s = family.stack(index, pairs[:, 1])
    return peak(u @ p_s - family.stack(index, pairs[:, 0]) @ u, np.maximum(1.0, u_norm))


def _blocks(operator, grid):
    """``grid_pairs(grid)`` a ``chunks`` run of outer grid indices at a time,
    with U and |U| there; norms have per-matrix bits, so no maximum moves."""
    pairs = grid_pairs(grid)
    for lo, hi in chunks(np.arange(1, len(grid) + 1), operator.dimension ** 2):
        block = pairs[lo * (lo + 1) // 2:hi * (hi + 1) // 2]
        yield block, operator.evaluate_many(block), operator.norms(block)


def check_invariance(family: ProjectorFamily, operator, grid, tol: float) -> CheckReport:
    """Worst commutation residual |U(t,s)P_i(s) - P_i(t)U(t,s)| over grid
    pairs, relative to |U(t,s)| floored at 1, as ``check_cocycle`` explains."""
    worst = max(_commutation(family, i, u, pairs, u_norm)
                for pairs, u, u_norm in _blocks(operator, grid) for i in (1, 2, 3))
    return CheckReport("invariance", tol, {"commutation": worst}, worst <= tol)


def restricted_inverses(operator, family: ProjectorFamily, index: int,
                        pairs) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of V_j(t, s) P_j(t) for j = index in {2, 3} over (t, s) pairs.

    The restriction of U(t, s) to Range P_j(s) is expressed in orthonormal
    bases of the two ranges and inverted, in one batched SVD and solve per
    rank. Returns the (m, n, n) stack and an object array of one note per
    pair: None, or why the restriction is not an isomorphism (then the matrix
    is zero rather than a garbage inverse). Rank-0 members yield zero.
    """
    if index not in (2, 3):
        raise ValueError("restricted inverses exist for members 2 and 3")
    pairs = ordered_pairs(pairs)
    (basis_t, rank_t), (basis_s, rank_s) = (family.bases(index, x) for x in pairs.T)
    out = np.zeros((len(pairs), family.dimension, family.dimension))
    notes = np.full(len(pairs), None, dtype=object)
    for i in np.flatnonzero(rank_s != rank_t):
        t, s = pairs[i].tolist()
        notes[i] = (f"rank of member {index} changes from {rank_s[i]} at "
                    f"s={s} to {rank_t[i]} at t={t}")
    for rank, rows in rank_groups(np.where(rank_s == rank_t, rank_s, 0)):
        sub, b_s, b_t = pairs[rows], basis_s[rows, :, :rank], basis_t[rows, :, :rank]
        mapped = operator.evaluate_many(sub) @ b_s
        restricted = np.swapaxes(b_t, -1, -2) @ mapped  # b_t orthonormal
        sigma = np.linalg.svd(restricted, compute_uv=False)
        good = (sigma[:, 0] != 0.0) & (sigma[:, -1] > RANK_TOL * sigma[:, 0])
        for i in np.flatnonzero(~good):
            (t, s), (hi, lo) = sub[i].tolist(), sigma[i, [0, -1]].tolist()
            notes[rows[i]] = (f"restriction of U({t}, {s}) to range of member "
                              f"{index} is rank-deficient (singular values "
                              f"{lo:.3e} vs {hi:.3e})")
        rhs = np.swapaxes(b_t[good], -1, -2) @ family.stack(index, sub[good, 0])
        out[rows[good]] = b_s[good] @ np.linalg.solve(restricted[good], rhs)
    return out, notes


def compute_restricted_inverse(operator, family: ProjectorFamily, index: int,
                               t: float, s: float) -> np.ndarray:
    """``restricted_inverses`` at one pair; a restriction that is not an
    isomorphism raises NotStronglyInvariantError."""
    return InverseFamily(operator, family, index).evaluate(t, s)


class InverseFamily:
    """W(t, s) = V_j(t, s) P_j(t) of one operator and family on t >= s >= 0,
    one ``restricted_inverses`` call per batch of unseen pairs, kept in an
    array-keyed ``store`` with the note of each of its rows and, once read,
    its spectral norm; each read returns a new array."""

    def __init__(self, operator, family: ProjectorFamily, index: int):
        notes = self._notes = [np.empty(0, dtype=object)]  # not self: no cycle via the store
        def compute(pairs):
            stack, new = restricted_inverses(operator, family, index, pairs)
            notes[0] = np.concatenate((notes[0], new))  # row order
            return stack

        self.store = MatrixStore((family.dimension, family.dimension), compute)

    def evaluate_many(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Stack of W over pairs and one note per pair, as ``restricted_inverses``."""
        rows = self.store.rows(pairs)  # may grow values and notes
        return self.store.values[rows], self._notes[0][rows]

    def stack(self, pairs) -> np.ndarray:
        """Stack of W over pairs; NotStronglyInvariantError where W does not exist."""
        out, notes = self.evaluate_many(pairs)
        for note in notes[np.not_equal(notes, None)][:1]:
            raise NotStronglyInvariantError(note)
        return out

    def norms(self, pairs) -> np.ndarray:
        """|W(t, s)| for each pair (0 where W does not exist), each pair's
        taken by SVD once."""
        return self.store.norms(pairs)

    def evaluate(self, t: float, s: float) -> np.ndarray:
        """W(t, s) as a new matrix: ``stack`` at one pair."""
        return self.stack([(t, s)])[0]


def build_inverses(operator, family: ProjectorFamily) -> dict[int, InverseFamily]:
    """The inverse families of members 2 and 3, built once per operator and
    family and kept through ``operator.keep``."""
    return operator.keep(("inverses", family), lambda: {
        j: InverseFamily(operator, family, j) for j in (2, 3)})


def check_compatible(family: ProjectorFamily, operator, grid, tol: float) -> CheckReport:
    """Invariance of P1 plus two-sided inverse identities for P2 and P3.

    For every grid pair the computed W(t, s) must satisfy
    U(t,s) W = P_j(t) and W U(t,s) P_j(s) = P_j(s) within tol relative to
    |U| |W|, and P1 commute with U relative to |U|, each floored at 1; the
    norms are the ones kept beside U and W. Zero members pass vacuously. A
    rank-deficient restriction fails the report rather than raising; pairs
    go a block at a time (``_blocks``), notes in pair order.
    """
    residuals = dict.fromkeys(("invariance_p1", "right_inverse", "left_inverse"), 0.0)
    notes, families = {2: [], 3: []}, build_inverses(operator, family)
    for pairs, u, u_norm in _blocks(operator, grid):
        p1 = _commutation(family, 1, u, pairs, u_norm)
        residuals["invariance_p1"] = max(residuals["invariance_p1"], p1)
        for j, inverses in families.items():
            w, failed = inverses.evaluate_many(pairs)
            ok = np.equal(failed, None)
            notes[j] += failed[~ok].tolist()
            p_t, p_s = (family.stack(j, x) for x in pairs[ok].T)
            w, u_ok = w[ok], u[ok]
            scale = np.maximum(1.0, u_norm[ok] * inverses.norms(pairs[ok]))
            for key, r in (("right_inverse", u_ok @ w - p_t),
                           ("left_inverse", w @ u_ok @ p_s - p_s)):
                residuals[key] = max(residuals[key], peak(r, scale))
    notes = notes[2] + notes[3]
    passed = not notes and all(v <= tol for v in residuals.values())
    return CheckReport("compatibility", tol, residuals, passed, notes)


def check_inverse_properties(operator, family: ProjectorFamily, index: int,
                             times, tol: float) -> CheckReport:
    """Full identity suite for a restricted inverse family over ascending times.

    Residual keys: right_inverse (U W = P at t) and left_inverse (W U P = P
    at s), relative to |U| |W| floored at 1 as in ``check_compatible``, and
    range (W lands in Range P(s)) over every pair t >= s of ``times``;
    equal_time (W(t, t) = P(t)) on its diagonal pairs; cocycle
    (W(t, t0) = W(s, t0) W(t, s)) over every triple t >= s >= t0, the
    transpose of the residual ``util.cocycle_residual`` takes of the
    transposed stack, with the same spectral norm. The norms are the ones
    kept beside U and W.
    """
    pairs = grid_pairs(times)
    inverses = build_inverses(operator, family)[index]
    w = inverses.stack(pairs)  # raises at the first failure
    u = operator.evaluate_many(pairs)
    p_t, p_s = (family.stack(index, x) for x in pairs.T)
    equal = pairs[:, 0] == pairs[:, 1]
    scale = np.maximum(1.0, operator.norms(pairs) * inverses.norms(pairs))
    worst = {"right_inverse": peak(u @ w - p_t, scale),
             "left_inverse": peak(w @ u @ p_s - p_s, scale),
             "cocycle": cocycle_residual(np.swapaxes(w, 1, 2), np.arange(len(w)), np.ones(len(w))),
             "range": peak(w - p_s @ w),
             "equal_time": peak(w[equal] - p_t[equal])}
    return CheckReport(f"inverse_properties_{index}", tol, worst,
                       passed=all(v <= tol for v in worst.values()))
