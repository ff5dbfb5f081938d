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
from .projectors import ProjectorFamily, InverseFamily, build_inverses
from .reports import FactorRecord, TrichotomyReport
from .util import grid_pairs, opnorm, range_basis

INEQUALITIES = ("stable_decay", "unstable_growth", "center_growth", "center_decay")
BINDS = {"stable_decay": "s", "unstable_growth": "t",
         "center_growth": "s", "center_decay": "t"}
_REL_SLACK = 1e-9  # forgiveness when comparing factors against a bound


def required_factor(operator, family: ProjectorFamily, rates: dict, t: float,
                    s: float, inequality: str,
                    inverses: dict[int, InverseFamily] | None = None,
                    full: bool = False) -> float:
    """Minimal admissible bounding value for one inequality at one pair.

    Rank-0 members make the inequality vacuous and return 0. With
    ``full=True`` the right-hand side uses the unprojected state norm.
    """
    if inequality not in INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality!r}")
    if inverses is None and inequality in ("unstable_growth", "center_decay"):
        inverses = build_inverses(operator, family)

    if inequality == "stable_decay":
        p = family.member(1, s)
        basis = range_basis(p)
        if basis.shape[1] == 0:
            return 0.0
        target = operator.evaluate(t, s) @ (p if full else basis)
        return rates["h"].ratio(t, s) * opnorm(target)

    if inequality == "unstable_growth":
        basis_t = range_basis(family.member(2, t))
        if basis_t.shape[1] == 0:
            return 0.0
        w = inverses[2].evaluate(t, s)
        return rates["k"].ratio(t, s) * opnorm(w if full else w @ basis_t)

    if inequality == "center_growth":
        p = family.member(3, s)
        basis = range_basis(p)
        if basis.shape[1] == 0:
            return 0.0
        target = operator.evaluate(t, s) @ (p if full else basis)
        return rates["mu"].ratio(s, t) * opnorm(target)

    basis_t = range_basis(family.member(3, t))  # center_decay
    if basis_t.shape[1] == 0:
        return 0.0
    w = inverses[3].evaluate(t, s)
    return rates["nu"].ratio(s, t) * opnorm(w if full else w @ basis_t)


def _run_system(operator, family, rates, grid, bound, inverses, label, full):
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if inverses is None:
        inverses = build_inverses(operator, family)
    records: list[FactorRecord] = []
    for t, s in grid_pairs(grid):
        for tag in INEQUALITIES:
            factor = required_factor(operator, family, rates, t, s, tag,
                                     inverses, full)
            arg = s if BINDS[tag] == "s" else t
            b = float(bound(arg)) if bound is not None else None
            margin = (b - factor) if b is not None else None
            records.append(FactorRecord(tag, t, s, factor, BINDS[tag], b, margin))
    return _assemble(label, grid, records, bound)


def _assemble(label, grid, records, bound) -> TrichotomyReport:
    index = {t: i for i, t in enumerate(grid)}
    pointwise = {tag: [0.0] * len(grid) for tag in INEQUALITIES}
    for r in records:
        i = index[r.s if r.binds == "s" else r.t]
        pointwise[r.tag][i] = max(pointwise[r.tag][i], r.factor)
    requirement = [max(1.0, *(pointwise[tag][i] for tag in INEQUALITIES))
                   for i in range(len(grid))]
    envelope = list(np.maximum.accumulate(requirement))
    bound_values = [float(bound(a)) for a in grid] if bound is not None else None
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
                     inverses: dict[int, InverseFamily] | None = None) -> TrichotomyReport:
    """Projected-right-hand-side system over all grid pairs.

    ``bound``, when given, must be a nondecreasing function; the report
    passes iff it dominates the measured envelope on the grid.
    """
    return _run_system(operator, family, rates, grid, bound, inverses,
                       "trichotomy", full=False)


def check_trichotomy_full(operator, family: ProjectorFamily, rates: dict, grid,
                          bound: Callable[[float], float] | None = None,
                          inverses: dict[int, InverseFamily] | None = None) -> TrichotomyReport:
    """Variant whose right-hand sides use the full state norm |x|."""
    return _run_system(operator, family, rates, grid, bound, inverses,
                       "trichotomy_full", full=True)


def check_uniform(operator, family: ProjectorFamily, rates: dict, grid,
                  constant: float | None = None,
                  inverses: dict[int, InverseFamily] | None = None) -> TrichotomyReport:
    """Single-constant system: the factor supremum over all grid pairs.

    The constant system uses projected right-hand sides (the growth
    inequalities act on P_j(t)x), which makes its factors coincide with the
    projected ones. The verdict is evidence on the grid only.
    """
    bound = (lambda a: float(constant)) if constant is not None else None
    report = _run_system(operator, family, rates, grid, bound, inverses,
                         "uniform", full=False)
    if constant is not None:
        report.passed = report.uniform_constant <= constant * (1.0 + _REL_SLACK)
    return report


def check_dichotomy(operator, family: ProjectorFamily, rates: dict, grid,
                    bound: Callable[[float], float] | None = None,
                    inverses: dict[int, InverseFamily] | None = None) -> TrichotomyReport:
    """Two-projector special case: member 3 must vanish identically.

    Delegates to the projected system; the center rows are vacuous
    (factor 0), so only the h/k rates are consulted.
    """
    for t in grid:
        if opnorm(family.member(3, t)) > 1e-12:
            raise PreconditionError(
                f"dichotomy requires member 3 to vanish, nonzero at t={t}")
    report = _run_system(operator, family, rates, grid, bound, inverses,
                         "dichotomy", full=False)
    return report
