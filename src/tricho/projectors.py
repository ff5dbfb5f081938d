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

from functools import partial

import numpy as np

from .errors import DomainError, NotStronglyInvariantError, StructuralError
from .reports import CheckReport
from .util import MatrixStore, grid_pairs, pair_slots, peak, range_basis

RANK_TOL = 1e-10  # scale-invariant: smallest singular value vs largest


class ProjectorFamily:
    """Three maps t -> n x n matrix, constant or callback-defined.

    Members and their range bases are evaluated once per time, read-only.
    """

    def __init__(self, dimension: int, members):
        if dimension <= 0:
            raise StructuralError("dimension must be positive")
        if len(members) != 3:
            raise StructuralError("a family has exactly three members")
        self.dimension = n = int(dimension)
        self._stores = {i: MatrixStore((n, n), partial(self._compute, i, member))
                        for i, member in enumerate(members, 1)}  # index -> P_index
        self._bases: dict[tuple[int, float], np.ndarray] = {}

    def _compute(self, index: int, member, times) -> list[np.ndarray]:
        out = [np.array(member(t), dtype=float) for t in times]
        for t, m in zip(times, out):
            if m.shape != (self.dimension, self.dimension):
                raise StructuralError(
                    f"member {index} at t={t} has shape {m.shape}, "
                    f"expected {(self.dimension, self.dimension)}")
        return out

    @classmethod
    def constant(cls, p1, p2, p3) -> "ProjectorFamily":
        mats = [np.array(p, dtype=float) for p in (p1, p2, p3)]
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise StructuralError("members must be square matrices of equal size")
        return cls(n, [lambda t, m=m: m for m in mats])

    @classmethod
    def coordinate_split(cls, n1: int, n2: int, n3: int) -> "ProjectorFamily":
        """Constant orthogonal projectors onto consecutive coordinate blocks."""
        if min(n1, n2, n3) < 0 or n1 + n2 + n3 <= 0:
            raise StructuralError("block sizes must be nonnegative with positive sum")
        n = n1 + n2 + n3
        mats = []
        start = 0
        for size in (n1, n2, n3):
            m = np.zeros((n, n))
            m[start:start + size, start:start + size] = np.eye(size)
            mats.append(m)
            start += size
        return cls.constant(*mats)

    def member(self, index: int, t: float) -> np.ndarray:
        """Matrix of P_index(t), index in {1, 2, 3}."""
        return self._stores[index].get(t)

    def members(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.member(1, t), self.member(2, t), self.member(3, t)

    def basis(self, index: int, t: float) -> np.ndarray:
        """Orthonormal basis of the range of P_index(t), as an n x rank matrix."""
        b = self._bases.get((index, t))
        if b is None:
            b = self._bases[(index, t)] = range_basis(self.member(index, t))
            b.flags.writeable = False
        return b

    def stack(self, index: int, times) -> np.ndarray:
        """P_index(t) for each of ``times`` as an (m, n, n) stack."""
        return self._stores[index].stack(times)


def rank_groups(ranks) -> list[list[int]]:
    """Positions holding each nonzero rank, one list per rank."""
    return [[i for i, r in enumerate(ranks) if r == rank]
            for rank in sorted(set(ranks) - {0})]


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


def _ordered(pairs) -> list:
    pairs = list(pairs)
    for t, s in pairs:
        if t < s or s < 0:
            raise DomainError(f"pair ({t}, {s}) outside t >= s >= 0")
    return pairs


def _commutation(family, index: int, u: np.ndarray, pairs) -> float:
    """Worst |U(t,s)P(s) - P(t)U(t,s)| of one member over a stack of U."""
    p_s = family.stack(index, [s for _, s in pairs])
    return peak(u @ p_s - family.stack(index, [t for t, _ in pairs]) @ u)


def check_invariance(family: ProjectorFamily, operator, pairs, tol: float) -> CheckReport:
    """Worst commutation residual |U(t,s)P_i(s) - P_i(t)U(t,s)| over pairs."""
    pairs = _ordered(pairs)
    u = operator.evaluate_many(pairs)
    worst = max(_commutation(family, i, u, pairs) for i in (1, 2, 3))
    return CheckReport("invariance", tol, {"commutation": worst}, worst <= tol)


def restricted_inverses(operator, family: ProjectorFamily, index: int,
                        pairs) -> tuple[np.ndarray, list]:
    """Matrices of V_j(t, s) P_j(t) for j = index in {2, 3} over (t, s) pairs.

    The restriction of U(t, s) to Range P_j(s) is expressed in orthonormal
    bases of the two ranges and inverted, in one batched SVD and solve per
    rank. Returns the (m, n, n) stack and one note per pair: None, or why
    the restriction is not an isomorphism (then the matrix is zero rather
    than a garbage inverse). Rank-0 members (the dichotomy case) yield the
    zero matrix.
    """
    if index not in (2, 3):
        raise ValueError("restricted inverses exist for members 2 and 3")
    pairs = _ordered(pairs)
    out = np.zeros((len(pairs), family.dimension, family.dimension))
    notes = [None] * len(pairs)
    ranks = []
    for i, (t, s) in enumerate(pairs):
        rank_s, rank_t = (family.basis(index, x).shape[1] for x in (s, t))
        if rank_s != rank_t:
            notes[i] = (f"rank of member {index} changes from {rank_s} at "
                        f"s={s} to {rank_t} at t={t}")
        ranks.append(rank_s if rank_s == rank_t else 0)
    for rows in rank_groups(ranks):
        sub = [pairs[i] for i in rows]
        basis_s = np.array([family.basis(index, s) for _, s in sub])
        basis_t = np.array([family.basis(index, t) for t, _ in sub])
        mapped = operator.evaluate_many(sub) @ basis_s
        restricted = np.swapaxes(basis_t, -1, -2) @ mapped  # basis_t orthonormal
        sigma = np.linalg.svd(restricted, compute_uv=False)
        good = (sigma[:, 0] != 0.0) & (sigma[:, -1] > RANK_TOL * sigma[:, 0])
        for i, (t, s), ok, (hi, lo) in zip(rows, sub, good, sigma[:, [0, -1]]):
            if not ok:
                notes[i] = (f"restriction of U({t}, {s}) to range of member "
                            f"{index} is rank-deficient (singular values "
                            f"{lo:.3e} vs {hi:.3e})")
        keep = np.flatnonzero(good)
        rhs = (np.swapaxes(basis_t[keep], -1, -2)
               @ family.stack(index, [sub[i][0] for i in keep]))
        out[np.asarray(rows, dtype=int)[keep]] = (
            basis_s[keep] @ np.linalg.solve(restricted[keep], rhs))
    return out, notes


def compute_restricted_inverse(operator, family: ProjectorFamily, index: int,
                               t: float, s: float) -> np.ndarray:
    """``restricted_inverses`` at one pair; a restriction that is not an
    isomorphism raises NotStronglyInvariantError."""
    stack, notes = restricted_inverses(operator, family, index, [(t, s)])
    if notes[0]:
        raise NotStronglyInvariantError(notes[0])
    return stack[0]


class InverseFamily:
    """W(t, s) = V_j(t, s) P_j(t) of one operator and family on t >= s >= 0,
    one ``restricted_inverses`` call per batch of unseen pairs, kept read-only
    in ``store`` with the note of each pair where W does not exist."""

    def __init__(self, operator, family: ProjectorFamily, index: int):
        def compute(pairs):
            stack, notes = restricted_inverses(operator, family, index, pairs)
            self._notes.update((p, n) for p, n in zip(pairs, notes) if n)
            return stack

        self.store = MatrixStore((family.dimension, family.dimension), compute)
        self._notes: dict[tuple[float, float], str] = {}

    def evaluate_many(self, pairs) -> tuple[np.ndarray, list]:
        """Stack of W over pairs and one note per pair, as ``restricted_inverses``."""
        return self.store.stack(pairs), [self._notes.get(p) for p in pairs]

    def stack(self, pairs) -> np.ndarray:
        """Stack of W over pairs; NotStronglyInvariantError where W does not exist."""
        out, notes = self.evaluate_many(pairs)
        for note in filter(None, notes):
            raise NotStronglyInvariantError(note)
        return out

    def evaluate(self, t: float, s: float) -> np.ndarray:
        self.stack([(t, s)])
        return self.store.get((t, s))


def build_inverses(operator, family: ProjectorFamily) -> dict[int, InverseFamily]:
    """The inverse families of members 2 and 3, built once per operator and
    family and kept through ``operator.keep``."""
    return operator.keep(("inverses", family), lambda: {
        j: InverseFamily(operator, family, j) for j in (2, 3)})


def check_compatible(family: ProjectorFamily, operator, grid, tol: float) -> CheckReport:
    """Invariance of P1 plus two-sided inverse identities for P2 and P3.

    For every grid pair the computed W(t, s) must satisfy
    U(t,s) W = P_j(t) and W U(t,s) P_j(s) = P_j(s) within tol. Zero members
    pass vacuously. A rank-deficient restriction fails the report rather
    than raising.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    pairs = grid_pairs(grid)
    u = operator.evaluate_many(pairs)
    residuals = {"invariance_p1": _commutation(family, 1, u, pairs),
                 "right_inverse": 0.0, "left_inverse": 0.0}
    notes = []
    for j in (2, 3):
        w, failed = build_inverses(operator, family)[j].evaluate_many(pairs)
        notes += filter(None, failed)
        ok = np.array([note is None for note in failed])
        p_t = family.stack(j, [t for t, _ in pairs])[ok]
        p_s = family.stack(j, [s for _, s in pairs])[ok]
        w, u_ok = w[ok], u[ok]
        residuals["right_inverse"] = max(residuals["right_inverse"], peak(u_ok @ w - p_t))
        residuals["left_inverse"] = max(residuals["left_inverse"], peak(w @ u_ok @ p_s - p_s))
    passed = not notes and all(v <= tol for v in residuals.values())
    return CheckReport("compatibility", tol, residuals, passed, notes)


def check_inverse_properties(operator, family: ProjectorFamily, index: int,
                             triples, tol: float) -> CheckReport:
    """Full identity suite for a restricted inverse family over (t, s, t0) triples.

    Residual keys: right_inverse (U W = P at t), left_inverse (W U P = P at s),
    cocycle (W(t,t0) = W(s,t0) W(t,s)), range (W lands in Range P(s)),
    equal_time (W(t,t) = P(t)).
    """
    inv = build_inverses(operator, family)[index]
    triples = list(triples)
    times = sorted({x for triple in triples for x in triple})
    equal = inv.stack([(t, t) for t in times]) - family.stack(index, times)
    pairs, slots = pair_slots(triples)
    w, notes = inv.evaluate_many(pairs)
    for i in slots[:, [1, 0, 2]].ravel().tolist() if any(notes) else ():
        if notes[i]:  # the first failure in triple order, (t, s) before the rest
            raise NotStronglyInvariantError(notes[i])
    direct, left, right = slots.T
    spans = np.unique(left)  # the (t, s) pairs, where U and W meet
    w_ts = w[spans]
    u = operator.evaluate_many([pairs[i] for i in spans])
    p_t = family.stack(index, [pairs[i][0] for i in spans])
    p_s = family.stack(index, [pairs[i][1] for i in spans])
    worst = {"right_inverse": peak(u @ w_ts - p_t),
             "left_inverse": peak(w_ts @ u @ p_s - p_s),
             "cocycle": peak(w[direct] - w[right] @ w[left]),
             "range": peak(w_ts - p_s @ w_ts),
             "equal_time": peak(equal)}
    return CheckReport(f"inverse_properties_{index}", tol, worst,
                       passed=all(v <= tol for v in worst.values()))
