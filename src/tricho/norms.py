"""Time-indexed norm families built by truncated suprema, and the theorem
checks that relate them to the trichotomy inequality systems.

Two variants exist, differing in how the central directions are weighted:

- forward:  |x|_t = sup_{tau >= t} h(tau)/h(t) |U(tau,t) P1(t) x|
                  + sup_{r <= t}   k(t)/k(r)   |W2(t,r) x|
                  + sup_{tau >= t} mu(t)/mu(tau) |U(tau,t) P3(t) x|
- backward: same first two terms, third term
                    sup_{r <= t}   nu(r)/nu(t) |W3(t,r) x|

where W_j(t, r) = V_j(t, r) P_j(t) are the restricted inverse maps. The
future supremum is truncated to [t, t + horizon] and sampled at the lattice
step; the past supremum runs over the global lattice restricted to [0, t].
Truncation honesty: each family measures how much its values move when the
horizon doubles, and theorem verdicts widen their tolerance by that slack.
"""
from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from .errors import DomainError, StructuralError
from .projectors import build_inverses
from .rates import GrowthRate
from .reports import (CompatibilityReport, Rows, TheoremReport, TrichotomyReport,
                      smallest_margins)
from .trichotomy import TERMS, check_trichotomy, factor_table
from .util import grid_pairs, opnorms, test_vector_batch

VARIANTS = ("forward", "backward")
_SENSITIVITY_LIMIT = 1e-6
_IMAGE_FLOATS = 1 << 16  # image entries per chunk of a norm term (512 kB)
_CROSSCHECK_TOL = 1e-9  # relative slack of C(t) against its full-norm limit


def _future_times(t: float, horizon: float, step: float) -> list[float]:
    count = max(1, math.ceil(horizon / step - 1e-9))
    return [t + i * step for i in range(count + 1)]


def _past_times(t: float, step: float) -> list[float]:
    last = int(math.floor(t / step + 1e-9))
    times = [i * step for i in range(last + 1)]
    if not times or abs(times[-1] - t) > 1e-12:
        times.append(t)
    return times


def query_lattice(grid, horizon: float, step: float) -> list[float]:
    """The grid plus every future time the horizon-doubling pass of norm
    families on ``grid`` samples, with the families' own float expressions."""
    times = set(grid)
    for t in grid:
        times.update(_future_times(t, 2.0 * horizon, step))
    return sorted(times)


class LyapunovNormFamily:
    """Evaluator for one norm-family variant with per-time matrix stacks.

    Construction precomputes the stacks for the supplied times; evaluating
    at other times extends the cache lazily. All evaluations after
    construction are pure.
    """

    def __init__(self, variant: str, operator, family, rates,
                 horizon: float, step: float, times):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        self.variant = variant
        self.operator = operator
        self.family = family
        self.inverses = build_inverses(operator, family)
        self.rates = rates
        self.horizon = float(horizon)
        self.step = float(step)
        times = list(times)
        # the future terms run out to twice the horizon, for the sensitivity pass
        self._stacks = {t: self._build(t, 2.0 * self.horizon) for t in times}
        self.horizon_delta_abs = 0.0
        self.horizon_delta_rel = 0.0
        self._measure_sensitivity(times)

    @property
    def horizon_flagged(self) -> bool:
        """True when doubling the horizon moved sampled values >= 1e-6 relative."""
        return self.horizon_delta_rel >= _SENSITIVITY_LIMIT

    # -- stack construction ------------------------------------------------

    def _weighted(self, index: int, t: float, key: str, quotients, maps):
        """rate(a)/rate(b) * maps() over (a, b) in ``quotients``; zeros when
        P_index(t) vanishes."""
        n = self.family.dimension
        if not self.family.member(index, t).any():
            return np.zeros((len(quotients), n, n))
        rate = self.rates.get(key)
        if rate is None:
            raise StructuralError(f"{self.variant} variant needs the {key!r} rate")
        ratios = np.array([rate.ratio(a, b) for a, b in quotients])
        return ratios.reshape(-1, 1, 1) * maps()

    def _build(self, t: float, horizon: float):
        taus = _future_times(t, horizon, self.step)
        past = [(t, r) for r in _past_times(t, self.step)]
        u = self.operator.evaluate_many([(tau, t) for tau in taus])
        f1 = self._weighted(1, t, "h", [(tau, t) for tau in taus],
                            lambda: u @ self.family.member(1, t))
        g2 = self._weighted(2, t, "k", past, lambda: self.inverses[2].stack(past))
        if self.variant == "forward":
            third = self._weighted(3, t, "mu", [(t, tau) for tau in taus],
                                   lambda: u @ self.family.member(3, t))
        else:
            third = self._weighted(3, t, "nu", [(r, t) for _, r in past],
                                   lambda: self.inverses[3].stack(past))
        return f1, g2, third

    def _stacks_at(self, t: float, wide: bool = False):
        got = self._stacks.get(t)
        if got is None:
            got = self._stacks[t] = self._build(t, self.horizon)
        if wide:
            return got
        cut = len(_future_times(t, self.horizon, self.step))
        f1, g2, third = got
        return f1[:cut], g2, third[:cut] if self.variant == "forward" else third

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _term(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
        """max over the (m, n, n) stack of |M y| for each column y of x.

        x is (n, batch) or a stack (..., n, batch) of p blocks, laid out once
        as one wide (n, p * batch) block, so each matrix meets every column in
        one product, with the same n-term sums as a block of its own.
        Coordinate k is live when column k of some matrix and row k of some
        vector are nonzero. With none live the term is 0; with one, stack and
        block are cut to column k's nonzero rows and to row k, which keeps the
        bits, as each image entry is one product and a dropped squared row +0.
        Two or more, or a non-finite entry (0 * inf is NaN), cut nothing.
        The stack is taken in chunks of about ``_IMAGE_FLOATS`` image entries
        with a running maximum, so the images stay in cache, and the squared
        rows are summed in place.
        """
        wide = np.moveaxis(x, -2, 0).reshape(x.shape[-2], -1)
        live = (stack.any(axis=(0, 1)) & wide.any(axis=1)).nonzero()[0]
        if len(live) < 2 and np.isfinite(stack).all() and np.isfinite(wide).all():
            if len(live) == 0:
                return np.zeros(x.shape[:-2] + x.shape[-1:])
            rows = stack[:, :, live[0]].any(axis=0).nonzero()[0]
            stack, wide = stack[:, rows][:, :, live], wide[live]
        worst = np.zeros(wide.shape[1])
        step = max(1, _IMAGE_FLOATS // max(1, stack.shape[1] * wide.shape[1]))
        for lo in range(0, stack.shape[0], step):
            images = stack[lo:lo + step] @ wide
            np.square(images, out=images)
            total = images[:, 0]
            for row in range(1, images.shape[1]):
                total += images[:, row]
            np.maximum(worst, total.max(axis=0), out=worst)
        return np.sqrt(worst).reshape(x.shape[:-2] + x.shape[-1:])

    def evaluate_many(self, t: float, x: np.ndarray) -> np.ndarray:
        """Norm values for each column of the (dimension, batch) matrix x,
        or of each matrix of a (..., dimension, batch) stack."""
        if t < 0:
            raise DomainError("norms are defined for t >= 0")
        x = np.asarray(x, dtype=float)
        stacks = self._stacks_at(t)
        return sum(self._term(stack, x) for stack in stacks)

    def evaluate(self, t: float, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        return float(self.evaluate_many(t, x)[0])

    __call__ = evaluate

    # -- truncation honesty ---------------------------------------------------

    def _measure_sensitivity(self, times) -> None:
        basis = np.eye(self.family.dimension)
        order = (1, 0, 2) if self.variant == "forward" else (1, 2, 0)  # past first
        for t in times:
            narrow, full = self._stacks_at(t), self._stacks_at(t, True)
            terms = [self._term(s, basis) for s in narrow]
            wider = [v if s is f else self._term(f, basis)  # past stacks are shared
                     for v, s, f in zip(terms, narrow, full)]
            base, wide = (sum(values[i] for i in order) for values in (terms, wider))
            delta = np.abs(wide - base)
            self.horizon_delta_abs = max(self.horizon_delta_abs, float(delta.max()))
            self.horizon_delta_rel = max(self.horizon_delta_rel,
                                         float((delta / np.maximum(base, 1e-300)).max()))


def build_norm_family(variant: str, operator, family, rates,
                      horizon: float, step: float, times) -> LyapunovNormFamily:
    """Construct one norm-family variant and measure its truncation slack,
    once per variant, projector family, h/k/mu/nu rates, horizon, step and
    times, kept through ``operator.keep``."""
    times = list(times)
    key = ("norm_family", variant, family,
           *map(rates.get, ("h", "k", "mu", "nu")), horizon, step, tuple(times))
    return operator.keep(key, lambda: LyapunovNormFamily(
        variant, operator, family, rates, horizon, step, times))


def check_compatibility(norm_family: LyapunovNormFamily, grid, samples: int,
                        seed: int = 0) -> CompatibilityReport:
    """Estimate the sandwich constants |x| <= |x|_t <= C(t) |x|.

    C(t) is maximized over the orthonormal basis plus seeded random unit
    vectors; the lower bound is exact on every sample. The estimate is
    cross-checked against three times the envelope of full-norm required
    factors taken over the family's own sample pairs, which the construction
    can never exceed. The report is computed once per family, grid, sample
    count and seed, and kept through ``operator.keep``.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    return norm_family.operator.keep(
        ("compatibility", norm_family, tuple(grid), samples, seed),
        lambda: _compatibility(norm_family, grid, samples, seed))


def _compatibility(norm_family, grid, samples, seed) -> CompatibilityReport:
    n = norm_family.family.dimension
    _, x = test_vector_batch(n, samples, seed)

    values = np.stack([norm_family.evaluate_many(t, x) for t in grid])
    ratios = values.max(axis=1).tolist()
    lower = float(values.min()) - 1.0

    limit = _fullnorm_limit(norm_family, grid)
    crosscheck_ok = all(c <= lim * (1.0 + _CROSSCHECK_TOL) + 1e-12
                        for c, lim in zip(ratios, limit))
    passed = (lower >= -1e-12 and crosscheck_ok
              and all(math.isfinite(c) for c in ratios))
    return CompatibilityReport(
        grid=grid, ratios=ratios, c_uniform=max(ratios), lower_margin=lower,
        crosscheck_limit=limit, crosscheck_ok=crosscheck_ok, samples=samples,
        seed=seed, passed=passed)


def _fullnorm_limit(nf: LyapunovNormFamily, grid) -> list[float]:
    """3 * nondecreasing envelope of the full-norm factors bounding each term."""
    future = [[(tau, t) for tau in _future_times(t, nf.horizon, nf.step)]
              for t in grid]
    past = [[(t, r) for r in _past_times(t, nf.step)] for t in grid]
    forward = nf.variant == "forward"
    requirement = np.ones(len(grid))
    for groups, tags in (
            (future, ("stable_decay", "center_growth") if forward else ("stable_decay",)),
            (past, ("unstable_growth",) if forward else ("unstable_growth", "center_decay"))):
        pairs = [p for group in groups for p in group]
        table = factor_table(nf.operator, nf.family, nf.rates, pairs, tags,
                             full=True)
        worst = np.max([table[tag] for tag in tags], axis=0)
        starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
        requirement = np.maximum(requirement, np.maximum.reduceat(worst, starts))
    envelope = np.maximum.accumulate(requirement)
    return [3.0 * float(v) for v in envelope]


def _require_shared_sources(forward: LyapunovNormFamily,
                            backward: LyapunovNormFamily) -> None:
    if forward.variant != "forward" or backward.variant != "backward":
        raise StructuralError("pass the forward family first, backward second")
    if forward.operator is not backward.operator or forward.family is not backward.family:
        raise StructuralError("norm families must be built from the same sources")


@dataclasses.dataclass(eq=False)  # hashed by identity, part of a kept key
class TheoremSides:
    """What the projected and unprojected norm systems share: ``lhs[tag]``,
    the left-hand norms as (pairs, batch) in ``grid_pairs`` order (center
    tags only when some pair has a central member), and ``base[variant]``,
    the norms of x, P1 x, P2 x and P3 x at each grid time as (grid, 4, batch).
    """

    grid: list[float]
    ids: list[str]
    lhs: dict[str, np.ndarray]
    base: dict[str, np.ndarray]
    central: np.ndarray  # per pair: member 3 is nonzero at t or at s


def theorem_sides(forward: LyapunovNormFamily, backward: LyapunovNormFamily,
                  grid, samples: int = 32, seed: int = 0) -> TheoremSides:
    """Both sides of the norm inequalities over grid pairs, without rates.

    The U terms are batched per t over s and the W_j terms per s over t;
    each right-hand norm depends on one time and is taken once per time.
    The sides are computed once per pair of families, grid, sample count and
    seed, and kept through ``operator.keep``.
    """
    _require_shared_sources(forward, backward)
    grid = list(grid)
    return forward.operator.keep(
        ("sides", forward, backward, tuple(grid), samples, seed),
        lambda: _theorem_sides(forward, backward, grid, samples, seed))


def _theorem_sides(forward, backward, grid, samples, seed) -> TheoremSides:
    family = forward.family
    ids, x = test_vector_batch(family.dimension, samples, seed)
    proj = np.stack([[x] + [family.member(j, t) @ x for j in (1, 2, 3)]
                     for t in grid])  # (grid, 4, n, batch)
    base = {nf.variant: np.stack([nf.evaluate_many(t, y) for t, y in zip(grid, proj)])
            for nf in (forward, backward)}
    rows, cols = np.tril_indices(len(grid))  # grid_pairs order
    third = np.array([family.member(3, t).any() for t in grid])
    central = third[rows] | third[cols]
    tags = ["stable_decay", "unstable_growth"]
    if central.any():
        if forward.rates.get("mu") is None or forward.rates.get("nu") is None:
            raise StructuralError("norm checks with a nonzero third member "
                                  "need the 'mu' and 'nu' rates")
        tags += ["center_growth", "center_decay"]
    lhs = {tag: np.empty((len(rows), x.shape[1])) for tag in tags}
    offsets = np.cumsum(np.arange(len(grid) + 1))  # row i of pairs starts here
    for i, t in enumerate(grid):
        u = forward.operator.evaluate_many([(t, s) for s in grid[:i + 1]])
        for tag, j in (("stable_decay", 1), ("center_growth", 3)):
            if tag in lhs:
                lhs[tag][offsets[i]:offsets[i + 1]] = forward.evaluate_many(
                    t, u @ proj[:i + 1, j])
    for j, s in enumerate(grid):
        later = [(t, s) for t in grid[j:]]
        for tag, nf, inverse in (("unstable_growth", forward, 2),
                                 ("center_decay", backward, 3)):
            if tag in lhs:
                lhs[tag][offsets[j:-1] + j] = backward.evaluate_many(
                    s, nf.inverses[inverse].stack(later) @ x)
    return TheoremSides(grid, ids, lhs, base, central)


def _theorem_table(sides: TheoremSides, rates, unprojected: bool) -> Rows:
    """Margins of the four norm inequalities, worst vector per (pair, tag).

    Inequalities are evaluated in ratio form (divided by the rate value at
    the left argument), which keeps margins O(1) and matches the
    exponential/polynomial specialization forms directly. Per ``TERMS``,
    N binding at s means forward norms; the quotient inverts the factor's.
    """
    pairs = grid_pairs(sides.grid)
    rows, cols = np.tril_indices(len(sides.grid))
    columns = []
    for tag, (column, key, at, factor_rising) in TERMS.items():
        lhs = rhs = np.zeros((len(pairs), 1))  # no central member anywhere
        if tag in sides.lhs:
            rate = rates[key]
            quotient = [rate.ratio(s, t) if factor_rising else rate.ratio(t, s)
                        for t, s in pairs]
            base = sides.base["forward" if at == "s" else "backward"][
                cols if at == "s" else rows, 0 if unprojected else column]
            lhs, rhs = sides.lhs[tag], np.array(quotient)[:, None] * base
            if tag.startswith("center"):  # vacuous where P3 is 0 at t and s
                lhs, rhs = (np.where(sides.central[:, None], a, 0.0)
                            for a in (lhs, rhs))
        columns.append(_worst(lhs, rhs))
    return _margins(sides, (rows, cols), list(TERMS), columns)


def _worst(lhs, rhs) -> list[np.ndarray]:
    """Worst sample vector per row of the (pairs, batch) sides of one tag:
    its lhs, rhs, margin and index, and whether both sides vanish."""
    margins = rhs - lhs
    idx = np.argmin(margins, axis=1)[:, None]
    vacuous = np.all(lhs == 0.0, axis=1) & np.all(rhs == 0.0, axis=1)
    picked = [np.take_along_axis(a, idx, axis=1)[:, 0] for a in (lhs, rhs, margins)]
    return [*picked, idx[:, 0], vacuous]


def _margins(sides, at, tags, columns) -> Rows:
    """One table from per-tag ``_worst`` columns at the (t, s) grid indices."""
    lhs, rhs, margin, vector, vacuous = (np.stack(c, axis=1) for c in zip(*columns))
    vector = np.array(sides.ids)[vector]
    return Rows(sides.grid, *at, tags, lhs, margin, vector, {
        "vector_id": vector, "lhs": lhs, "rhs": rhs, "margin": margin,
        "vacuous": vacuous})


def _finish(label, tables, tol, slack, samples, seed) -> TheoremReport:
    worst_per_tag = {tag: r["margin"] for tag, r in smallest_margins(tables).items()}
    min_margin = min(worst_per_tag.values())
    return TheoremReport(label=label, tables=tables,
                         worst_per_tag=worst_per_tag, min_margin=min_margin,
                         tolerance=tol, truncation_slack=slack,
                         passed=min_margin >= -(tol + slack),
                         vacuous_count=sum(int(t.fields["vacuous"].sum())
                                           for t in tables),
                         seed=seed, samples=samples)


def verify_norm_trichotomy(forward: LyapunovNormFamily,
                           backward: LyapunovNormFamily, grid,
                           tol: float = 1e-9, samples: int = 32,
                           seed: int = 0) -> TheoremReport:
    """Constant-free inequality system in the built norms over grid pairs.

    The pass threshold is tol plus the measured truncation slack of the two
    families. The report is kept through ``operator.keep`` per sides and
    tol (callers must not change it); the sides are shared with
    ``verify_norm_trichotomy_unprojected`` of the same arguments.
    """
    sides = theorem_sides(forward, backward, grid, samples, seed)
    slack = max(forward.horizon_delta_abs, backward.horizon_delta_abs)
    return forward.operator.keep(("theorem", sides, tol), lambda: _finish(
        "norm_trichotomy", [_theorem_table(sides, forward.rates, unprojected=False)],
        tol, slack, samples, seed))


def verify_norm_trichotomy_unprojected(forward: LyapunovNormFamily,
                                       backward: LyapunovNormFamily, grid,
                                       tol: float = 1e-9, samples: int = 32,
                                       seed: int = 0) -> TheoremReport:
    """Variant with unprojected right-hand sides, plus the projection lemma.

    The lemma rows assert that applying any member at its own time never
    increases either norm; they are what reduces this system to the
    projected one.
    """
    sides = theorem_sides(forward, backward, grid, samples, seed)
    slack = max(forward.horizon_delta_abs, backward.horizon_delta_abs)
    diagonal = np.arange(len(sides.grid))
    lemma = _margins(
        sides, (diagonal, diagonal),
        [f"projection_bound_{variant}" for variant in VARIANTS for _ in (1, 2, 3)],
        [_worst(sides.base[variant][:, j], sides.base[variant][:, 0])
         for variant in VARIANTS for j in (1, 2, 3)])
    return _finish("norm_trichotomy_unprojected",
                   [_theorem_table(sides, forward.rates, unprojected=True), lemma],
                   tol, slack, samples, seed)


def verify_sufficiency(forward: LyapunovNormFamily,
                       backward: LyapunovNormFamily, grid,
                       samples: int = 32, seed: int = 0) -> TrichotomyReport:
    """Close the loop: bound built from measured sandwich constants.

    The candidate bound N(a) = sup_{s <= a} C(s) (|P1(s)| + |P2(s)| + |P3(s)|)
    is assembled from the measured compatibility ratios of both families and
    fed back into the projected trichotomy system, which it must dominate.
    It reads the kept compatibility reports and projected factor table.
    """
    _require_shared_sources(forward, backward)
    grid = list(grid)
    compat_f, compat_b = (check_compatibility(nf, grid, samples, seed=seed)
                          for nf in (forward, backward))
    family = forward.family
    pnorm = sum(opnorms(family.stack(j, grid)) for j in (1, 2, 3))
    candidate = list(np.maximum.accumulate(
        np.maximum(compat_f.ratios, compat_b.ratios) * pnorm))

    def bound(a: float) -> float:
        idx = bisect.bisect_right(grid, a) - 1
        return candidate[max(idx, 0)]

    report = check_trichotomy(forward.operator, family, forward.rates, grid,
                              bound=bound)
    report.label = "sufficiency"
    return report


def specialization_rates(kind: str, exponents) -> dict[str, GrowthRate]:
    """The rates h, k, mu, nu of one kind with the four given exponents."""
    if kind not in ("exponential", "polynomial"):
        raise ValueError(f"kind must be exponential or polynomial, got {kind!r}")
    alphas = [float(a) for a in exponents]
    if len(alphas) != 4:
        raise ValueError("exactly four exponents are required")
    return {key: GrowthRate(kind, a) for key, a in zip(("h", "k", "mu", "nu"), alphas)}


def check_rate_specialization(kind: str, exponents, operator, family, grid,
                              horizon: float, step: float,
                              tol: float = 1e-9, samples: int = 32,
                              seed: int = 0) -> TheoremReport:
    """Instantiate the norm system for exponential or polynomial rates.

    ``exponents`` are the four positive powers for the stable, unstable and
    the two central comparisons. Records are already in the specialization
    form: right-hand factors read e^{-a(t-s)} / e^{+a(t-s)} for exponential
    rates and ((s+1)/(t+1))^a / ((t+1)/(s+1))^a for polynomial ones.
    """
    rates = specialization_rates(kind, exponents)
    grid = list(grid)
    fwd, bwd = (build_norm_family(variant, operator, family, rates, horizon,
                                  step, grid) for variant in VARIANTS)
    report = verify_norm_trichotomy(fwd, bwd, grid, tol, samples, seed)
    return dataclasses.replace(report, label=f"{kind}_rates")
