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
from .projectors import ProjectorFamily, InverseFamily, build_inverses, rank_groups
from .reports import FactorRecord, TrichotomyReport
from .util import grid_pairs, opnorm, opnorms

INEQUALITIES = ("stable_decay", "unstable_growth", "center_growth", "center_decay")
BINDS = {"stable_decay": "s", "unstable_growth": "t",
         "center_growth": "s", "center_decay": "t"}
# tag -> (member, rate, whether the rate quotient is rate(t)/rate(s))
_TERMS = {"stable_decay": (1, "h", True), "unstable_growth": (2, "k", True),
          "center_growth": (3, "mu", False), "center_decay": (3, "nu", False)}
_REL_SLACK = 1e-9  # forgiveness when comparing factors against a bound


def factor_table(operator, family: ProjectorFamily, rates: dict, pairs,
                 tags=INEQUALITIES,
                 inverses: dict[int, InverseFamily] | None = None,
                 full: bool = False) -> dict[str, np.ndarray]:
    """Minimal admissible bounding values of each inequality in ``tags`` at
    every (t, s) pair, one array per tag.

    Each tag takes one batched product and SVD per member rank. Rank-0
    members make the inequality vacuous and give 0. With ``full=True`` the
    right-hand side uses the unprojected state norm.
    """
    for tag in tags:
        if tag not in INEQUALITIES:
            raise ValueError(f"unknown inequality {tag!r}")
    pairs = list(pairs)
    table = {}
    for tag in tags:
        j, rate_key, rising = _TERMS[tag]
        decay = BINDS[tag] == "s"  # U on Range P_j(s); else W_j on Range P_j(t)
        bases = [family.basis(j, s if decay else t) for t, s in pairs]
        table[tag] = np.zeros(len(pairs))
        for rows in rank_groups([b.shape[1] for b in bases]):
            sub = [pairs[i] for i in rows]
            right = (family.stack(j, [s for _, s in sub]) if full and decay
                     else np.array([bases[i] for i in rows]))
            if decay:
                mats = operator.evaluate_many(sub) @ right
            else:
                if inverses is None:
                    inverses = build_inverses(operator, family)
                mats = inverses[j].stack(sub)
                mats = mats if full else mats @ right
            rate = rates[rate_key]
            ratio = [rate.ratio(t, s) if rising else rate.ratio(s, t) for t, s in sub]
            table[tag][rows] = np.array(ratio) * opnorms(mats)
    return table


def required_factor(operator, family: ProjectorFamily, rates: dict, t: float,
                    s: float, inequality: str,
                    inverses: dict[int, InverseFamily] | None = None,
                    full: bool = False) -> float:
    """Minimal admissible bounding value for one inequality at one pair
    (``factor_table`` at a single pair)."""
    table = factor_table(operator, family, rates, [(t, s)], (inequality,),
                         inverses, full)
    return float(table[inequality][0])


def _run_system(operator, family, rates, grid, bound, inverses, label, full,
                factors=None) -> TrichotomyReport:
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    pairs = grid_pairs(grid)
    if factors is None:
        factors = factor_table(operator, family, rates, pairs,
                               inverses=inverses, full=full)
    bound_values = [float(bound(a)) for a in grid] if bound is not None else None
    bounds = dict(zip(grid, bound_values or []))
    records: list[FactorRecord] = []
    columns = zip(*(factors[tag].tolist() for tag in INEQUALITIES))
    for (t, s), row in zip(pairs, columns):
        for tag, factor in zip(INEQUALITIES, row):
            b = bounds.get(s if BINDS[tag] == "s" else t)
            margin = (b - factor) if b is not None else None
            records.append(FactorRecord(tag, t, s, factor, BINDS[tag], b, margin))
    rows, cols = np.tril_indices(len(grid))  # grid_pairs order
    pointwise = {}
    for tag in INEQUALITIES:
        worst = np.zeros(len(grid))
        np.maximum.at(worst, cols if BINDS[tag] == "s" else rows, factors[tag])
        pointwise[tag] = worst.tolist()
    requirement = np.maximum(1.0, np.max(list(pointwise.values()), axis=0)).tolist()
    envelope = list(np.maximum.accumulate(requirement))
    passed = None
    if bound is not None:
        passed = all(e <= b * (1.0 + _REL_SLACK) + 1e-12
                     for e, b in zip(envelope, bound_values))
    return TrichotomyReport(label=label, grid=grid, records=records,
                            pointwise=pointwise, requirement=requirement,
                            envelope=envelope,
                            uniform_constant=float(envelope[-1]),
                            bound_values=bound_values, passed=passed)


def check_trichotomy(operator, family: ProjectorFamily, rates: dict, grid,
                     bound: Callable[[float], float] | None = None,
                     inverses: dict[int, InverseFamily] | None = None,
                     factors: dict[str, np.ndarray] | None = None) -> TrichotomyReport:
    """Projected-right-hand-side system over all grid pairs.

    ``bound``, when given, must be a nondecreasing function; the report
    passes iff it dominates the measured envelope on the grid. ``factors``
    is the projected ``factor_table`` over ``grid_pairs(grid)``, when
    already computed; ``check_uniform`` and ``check_dichotomy`` accept it
    too.
    """
    return _run_system(operator, family, rates, grid, bound, inverses,
                       "trichotomy", False, factors)


def check_trichotomy_full(operator, family: ProjectorFamily, rates: dict, grid,
                          bound: Callable[[float], float] | None = None,
                          inverses: dict[int, InverseFamily] | None = None) -> TrichotomyReport:
    """Variant whose right-hand sides use the full state norm |x|."""
    return _run_system(operator, family, rates, grid, bound, inverses,
                       "trichotomy_full", full=True)


def check_uniform(operator, family: ProjectorFamily, rates: dict, grid,
                  constant: float | None = None,
                  inverses: dict[int, InverseFamily] | None = None,
                  factors: dict[str, np.ndarray] | None = None) -> TrichotomyReport:
    """Single-constant system: the factor supremum over all grid pairs.

    The constant system uses projected right-hand sides (the growth
    inequalities act on P_j(t)x), which makes its factors coincide with the
    projected ones. The verdict is evidence on the grid only.
    """
    bound = (lambda a: float(constant)) if constant is not None else None
    report = _run_system(operator, family, rates, grid, bound, inverses,
                         "uniform", False, factors)
    if constant is not None:
        report.passed = report.uniform_constant <= constant * (1.0 + _REL_SLACK)
    return report


def check_dichotomy(operator, family: ProjectorFamily, rates: dict, grid,
                    bound: Callable[[float], float] | None = None,
                    inverses: dict[int, InverseFamily] | None = None,
                    factors: dict[str, np.ndarray] | None = None) -> TrichotomyReport:
    """Two-projector special case: member 3 must vanish identically.

    Delegates to the projected system; the center rows are vacuous
    (factor 0), so only the h/k rates are consulted.
    """
    for t in grid:
        if opnorm(family.member(3, t)) > 1e-12:
            raise PreconditionError(
                f"dichotomy requires member 3 to vanish, nonzero at t={t}")
    return _run_system(operator, family, rates, grid, bound, inverses,
                       "dichotomy", False, factors)
