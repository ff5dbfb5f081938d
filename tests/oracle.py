"""Closed forms the tests check tricho against, in numpy alone, and the
adapter that builds time-array callables from entrywise formulas.

- ``expm``: the matrix exponential by scaling and squaring with the
  [13/13] Padé approximant (N. J. Higham, "The scaling and squaring method
  for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4),
  2005, Algorithm 2.3, its degree-13 branch at every norm).
- For a constant generator A = V D V^-1, D real and diagonal: the exact
  U(t, s) = V e^{D(t-s)} V^-1 and the four splitting factors of a family
  P_j = V E_j V^-1, E_j the coordinate projector onto the j-th block of D.
- For an operator diagonal on the coordinate split (1, 1, 1): the four
  factors from its diagonal and the rate quotients.
- ``constant_systems``: a hypothesis strategy over such (V, D, block sizes)
  with n <= 8, cond(V) <= 1e2 and a gap of at least 1 between the
  eigenvalues of the stable, central and unstable blocks; ``SETTINGS`` runs
  it derandomized.

Factor tables have one row per (t, s) pair and their columns in the order
of ``tricho.trichotomy.INEQUALITIES``: stable_decay, unstable_growth,
center_growth, center_decay.
"""
import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152  # the largest 1-norm degree 13 takes unscaled


def batched(entries):
    """A callable over a 1-D array of times from ``entries(times)``: n rows
    of n entries, each an array over the times or a constant."""
    def stack(times):
        rows = [np.broadcast_arrays(*row, times)[:-1] for row in entries(times)]
        return np.moveaxis(np.array(rows), -1, 0)
    return stack


def expm(a: np.ndarray) -> np.ndarray:
    """e^a of one square matrix: a / 2^s within the 1-norm ``_THETA13``, its
    [13/13] Padé approximant, then s squarings."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** squarings
    b, eye = _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def evolution(v: np.ndarray, d: np.ndarray, t: float, s: float) -> np.ndarray:
    """U(t, s) = V e^{D(t - s)} V^-1 of the constant generator V D V^-1."""
    return (v * np.exp(d * (t - s))) @ np.linalg.inv(v)


def blocks(sizes) -> list[np.ndarray]:
    """The coordinates of each of the three consecutive blocks."""
    edges = np.cumsum([0, *sizes])
    return [np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def family_members(v: np.ndarray, sizes) -> list[np.ndarray]:
    """P_j = V E_j V^-1 for the three blocks of ``sizes``."""
    w = np.linalg.inv(v)
    return [v[:, j] @ w[j] for j in blocks(sizes)]


def constant_factors(v, d, sizes, exponents, pairs, full: bool = False) -> np.ndarray:
    """The factor table of the constant generator V D V^-1, the family of
    ``family_members`` and exponential rates h, k, mu, nu of ``exponents``.

    With tau = t - s, the decay tags read the map V e^{D tau} E_j V^-1 and the
    growth tags its inverse on the range, V e^{-D tau} E_j V^-1, times the
    rate quotient: e^{h tau}, e^{k tau}, e^{-mu tau} and e^{-nu tau}. The
    full factors are the spectral norms of those maps. The projected ones
    restrict them to Range P_j, whose orthonormal basis is Q from V_J = Q R
    (V_J the block's columns of V), giving |V_J e^{+-D_J tau} R^-1|. An empty
    block gives 0.
    """
    w = np.linalg.inv(v)
    h, k, mu, nu = exponents
    out = np.zeros((len(pairs), 4))
    members = blocks(sizes)
    for row, (t, s) in enumerate(np.asarray(pairs, dtype=float)):
        tau = t - s
        for col, (j, sign, quotient) in enumerate((
                (0, 1.0, np.exp(h * tau)), (1, -1.0, np.exp(k * tau)),
                (2, 1.0, np.exp(-mu * tau)), (2, -1.0, np.exp(-nu * tau)))):
            block = members[j]
            if not len(block):
                continue
            growth = np.exp(sign * d[block] * tau)
            if full:
                m = (v[:, block] * growth) @ w[block]
            else:
                _, r = np.linalg.qr(v[:, block])
                m = (v[:, block] * growth) @ np.linalg.inv(r)
            out[row, col] = quotient * np.linalg.norm(m, 2)
    return out


def diagonal_factors(diagonal: np.ndarray, quotients: np.ndarray) -> np.ndarray:
    """The factor table of an operator diagonal on the coordinate split
    (1, 1, 1): ``diagonal`` holds U_11, U_22, U_33 at each pair, and
    ``quotients`` h(t)/h(s), k(t)/k(s), mu(s)/mu(t) and nu(s)/nu(t). The
    growth tags invert the restriction, so they divide by U_22 and U_33."""
    u11, u22, u33 = np.asarray(diagonal, dtype=float).T
    qh, qk, qmu, qnu = np.asarray(quotients, dtype=float).T
    return np.stack((qh * u11, qk / u22, qmu * u33, qnu / u33), axis=1)


@st.composite
def constant_systems(draw):
    """(V, d, sizes, t): V of condition number at most 1e2, its singular
    values spaced evenly in the logarithm between 1 and the drawn bound; d
    in [-3, -1.5] on the stable block, [-0.5, 0.5] on the central one and
    [1.5, 3] on the unstable one, so neighbouring blocks are at least 1
    apart; n <= 8; t in [0, 10]."""
    n = draw(st.integers(1, 8))
    n1 = draw(st.integers(0, n))
    n2 = draw(st.integers(0, n - n1))
    sizes = (n1, n2, n - n1 - n2)
    ranges = ((-3.0, -1.5), (1.5, 3.0), (-0.5, 0.5))
    d = np.array([draw(st.floats(*ranges[j])) for j, size in enumerate(sizes)
                  for _ in range(size)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    cond = 10.0 ** draw(st.floats(0.0, 2.0))
    v = (q1 * cond ** np.linspace(0.0, 1.0, n)) @ q2
    return v, d, sizes, draw(st.floats(0.0, 10.0))
