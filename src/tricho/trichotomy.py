"""Grid verification of trichotomy and dichotomy inequality systems.

Each splitting inequality compares the evolution of one projector range
against a quotient of growth rates, allowing a nondecreasing bounding
function N. For a pair (t, s) the *required factor* is the supremum over
nonzero states of lhs/rhs with N removed; it is computed exactly as the
spectral norm of the relevant restricted map (no sampling):

- stable_decay      h(t)|U(t,s)P1(s)x|  vs  N(s) h(s)|P1(s)x|
- unstable_growth   k(t)|P2(s)x|        vs  N(t) k(s)|U(t,s)P2(s)x|
- center_growth     mu(s)|U(t,s)P3(s)x| vs  N(s) mu(t)|P3(s)x|
- center_decay      nu(s)|P3(s)x|       vs  N(t) nu(t)|U(t,s)P3(s)x|

The growth-type inequalities (unstable_growth, center_decay) are evaluated
through the restricted inverse maps, which is the equivalent computational
route when the family is compatible with the operator. The *full* variant
replaces the projected right-hand vector by the whole state, so factors
become norms of the composed maps on the whole space.

Verdicts are grid-relative evidence: a finite grid can never prove the
asymptotic statement, only falsify a proposed bound or exhibit an envelope.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import PreconditionError
from .projectors import ProjectorFamily, build_inverses, rank_groups
from .reports import Rows, TrichotomyReport
from .util import grid_pairs, opnorms

# tag -> (member, rate, argument N binds to, whether the factor's rate
# quotient is rate(t)/rate(s))
TERMS = {"stable_decay": (1, "h", "s", True),
         "unstable_growth": (2, "k", "t", True),
         "center_growth": (3, "mu", "s", False),
         "center_decay": (3, "nu", "t", False)}
INEQUALITIES = tuple(TERMS)
_REL_SLACK = 1e-9  # forgiveness when comparing factors against a bound


def factor_table(operator, family: ProjectorFamily, rates: dict, grid,
                 full: bool = False) -> np.ndarray:
    """Minimal admissible bounding values of the four inequalities at every
    pair of ``grid_pairs(grid)``, as one read-only (pairs, 4) array with
    columns in ``INEQUALITIES`` order.

    Each inequality takes one batched product and SVD per member rank.
    Rank-0 members make the inequality vacuous and give 0. With ``full=True``
    the right-hand side uses the unprojected state norm, and the growth
    inequalities read the norms kept beside W_j. The table is
    computed once per operator and kept through ``operator.keep``, keyed by
    the family, the four rates, ``full`` and the grid, so every check that
    reads the same system shares it.
    """
    grid = tuple(grid)
    key = ("factors", family, *(rates.get(TERMS[tag][1]) for tag in INEQUALITIES), full, grid)

    def build():
        pairs = grid_pairs(grid)
        out = np.stack([_factors(operator, family, rates, pairs, tag, full)
                        for tag in INEQUALITIES], axis=1)
        out.flags.writeable = False
        return out
    return operator.keep(key, build)


def _factors(operator, family, rates, pairs, tag, full) -> np.ndarray:
    j, rate_key, binds, rising = TERMS[tag]
    decay = binds == "s"  # U on Range P_j(s); else W_j on Range P_j(t)
    bases, ranks = family.bases(j, pairs[:, 1 if decay else 0])
    out = np.zeros(len(pairs))
    for rank, rows in rank_groups(ranks):
        sub = pairs[rows]
        right = family.stack(j, sub[:, 1]) if full and decay else bases[rows, :, :rank]
        if decay:
            norms = opnorms(operator.evaluate_many(sub) @ right)
        else:
            inverses = build_inverses(operator, family)[j]
            mats = inverses.stack(sub)  # raises where W does not exist
            norms = inverses.norms(sub) if full else opnorms(mats @ right)
        out[rows] = rates[rate_key].ratios(*(sub.T if rising else sub.T[::-1])) * norms
    return out


def required_factor(operator, family: ProjectorFamily, rates: dict, t: float,
                    s: float, inequality: str, full: bool = False) -> float:
    """Minimal admissible bounding value for one inequality at one pair, as
    ``factor_table`` computes it; not kept."""
    if inequality not in TERMS:
        raise ValueError(f"unknown inequality {inequality!r}")
    pair = np.array([[t, s]], dtype=float)
    return float(_factors(operator, family, rates, pair, inequality, full)[0])


def _run_system(operator, family, rates, grid, bound, label,
                full=False) -> TrichotomyReport:
    grid = list(grid)
    value = factor_table(operator, family, rates, grid, full)
    rows, cols = np.tril_indices(len(grid))  # grid_pairs order
    binds = [TERMS[tag][2] for tag in INEQUALITIES]
    at = np.stack([cols if b == "s" else rows for b in binds], axis=1)  # N's time
    worst = np.zeros((len(grid), len(binds)))
    np.maximum.at(worst, (at, np.arange(len(binds))), value)
    pointwise = dict(zip(INEQUALITIES, worst.T.tolist()))
    fields = {"factor": value, "binds": np.array(binds), "bound": None, "margin": None}
    bound_values = None
    if bound is not None:
        bound_values = np.full(len(grid), bound(np.array(grid, dtype=float)), dtype=float).tolist()
        fields["bound"] = np.array(bound_values)[at]
        fields["margin"] = fields["bound"] - value
    requirement = np.maximum(1.0, worst.max(axis=1)).tolist()
    envelope = list(np.maximum.accumulate(requirement))
    passed = None if bound is None else all(
        e <= b * (1.0 + _REL_SLACK) + 1e-12 for e, b in zip(envelope, bound_values))
    table = Rows(grid, rows, cols, list(INEQUALITIES), value, fields["margin"],
                 fields=fields)
    return TrichotomyReport(label=label, grid=grid, rows=table,
                            pointwise=pointwise, requirement=requirement,
                            envelope=envelope,
                            uniform_constant=float(envelope[-1]),
                            bound_values=bound_values, passed=passed)


def check_trichotomy(operator, family: ProjectorFamily, rates: dict, grid,
                     bound: Callable | None = None) -> TrichotomyReport:
    """Projected-right-hand-side system over all grid pairs.

    ``bound``, when given, maps the grid array to a nondecreasing N at each
    time (a scalar: at all); the report passes iff N dominates the envelope.
    The projected ``factor_table`` of ``grid`` is kept on the operator, so
    ``check_uniform``, ``check_dichotomy`` and ``norms.verify_sufficiency``
    on the same operator, family, rates and grid read it without recomputing.
    """
    return _run_system(operator, family, rates, grid, bound, "trichotomy")


def check_trichotomy_full(operator, family: ProjectorFamily, rates: dict, grid,
                          bound: Callable | None = None) -> TrichotomyReport:
    """Variant whose right-hand sides use the full state norm |x|."""
    return _run_system(operator, family, rates, grid, bound, "trichotomy_full",
                       full=True)


def check_uniform(operator, family: ProjectorFamily, rates: dict, grid,
                  constant: float | None = None) -> TrichotomyReport:
    """Single-constant system: the factor supremum over all grid pairs.

    The constant system uses projected right-hand sides (the growth
    inequalities act on P_j(t)x), which makes its factors coincide with the
    projected ones. The verdict is evidence on the grid only, under the pass
    rule of ``check_trichotomy`` with the constant as its bound.
    """
    bound = (lambda a: np.full_like(a, constant, dtype=float)) if constant is not None else None
    return _run_system(operator, family, rates, grid, bound, "uniform")


def check_dichotomy(operator, family: ProjectorFamily, rates: dict, grid,
                    bound: Callable | None = None) -> TrichotomyReport:
    """Two-projector special case: member 3 must vanish identically.

    Delegates to the projected system; the center rows are vacuous
    (factor 0), so only the h/k rates are consulted.
    """
    grid = list(grid)
    nonzero = np.flatnonzero(opnorms(family.stack(3, grid)) > 1e-12)
    if len(nonzero):
        raise PreconditionError(
            f"dichotomy requires member 3 to vanish, nonzero at t={grid[nonzero[0]]}")
    return _run_system(operator, family, rates, grid, bound, "dichotomy")
