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
import math

import numpy as np

from .errors import DomainError, StructuralError
from .rates import GrowthRate
from .reports import CompatibilityReport, IneqRecord, TheoremReport, TrichotomyReport
from .trichotomy import check_trichotomy, required_factor
from .util import opnorm, test_vector_batch

VARIANTS = ("forward", "backward")
_SENSITIVITY_LIMIT = 1e-6


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

    def __init__(self, variant: str, operator, family, inverses, rates,
                 horizon: float, step: float, times):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        needed = (2,) if variant == "forward" else (2, 3)
        for j in needed:
            if j not in inverses:
                raise StructuralError(f"variant {variant!r} needs inverse family {j}")
        self.variant = variant
        self.operator = operator
        self.family = family
        self.inverses = inverses
        self.rates = rates
        self.horizon = float(horizon)
        self.step = float(step)
        self._stacks: dict[float, tuple] = {}
        for t in times:
            self._stacks[t] = self._build(t)
        self.horizon_delta_abs = 0.0
        self.horizon_delta_rel = 0.0
        self._measure_sensitivity(list(times))

    @property
    def horizon_flagged(self) -> bool:
        """True when doubling the horizon moved sampled values >= 1e-6 relative."""
        return self.horizon_delta_rel >= _SENSITIVITY_LIMIT

    # -- stack construction ------------------------------------------------

    def _future_stacks(self, t: float, horizon: float):
        taus = _future_times(t, horizon, self.step)
        n = self.family.dimension
        p1 = self.family.member(1, t)
        p3 = self.family.member(3, t)
        h = self.rates["h"]
        if p1.any():
            f1 = np.stack([h.ratio(tau, t) * (self.operator.evaluate(tau, t) @ p1)
                           for tau in taus])
        else:
            f1 = np.zeros((len(taus), n, n))
        if self.variant != "forward":
            return f1, None
        mu = self.rates.get("mu")
        if p3.any():
            if mu is None:
                raise StructuralError("forward variant needs the 'mu' rate")
            f3 = np.stack([mu.ratio(t, tau) * (self.operator.evaluate(tau, t) @ p3)
                           for tau in taus])
        else:
            f3 = np.zeros((len(taus), n, n))
        return f1, f3

    def _past_stacks(self, t: float):
        rs = _past_times(t, self.step)
        n = self.family.dimension
        k = self.rates["k"]
        if self.family.member(2, t).any():
            g2 = np.stack([k.ratio(t, r) * self.inverses[2].evaluate(t, r)
                           for r in rs])
        else:
            g2 = np.zeros((len(rs), n, n))
        if self.variant == "forward":
            return g2, None
        nu = self.rates.get("nu")
        if self.family.member(3, t).any():
            if nu is None:
                raise StructuralError("backward variant needs the 'nu' rate")
            g3 = np.stack([nu.ratio(r, t) * self.inverses[3].evaluate(t, r)
                           for r in rs])
        else:
            g3 = np.zeros((len(rs), n, n))
        return g2, g3

    def _build(self, t: float):
        f1, f3 = self._future_stacks(t, self.horizon)
        g2, g3 = self._past_stacks(t)
        third = f3 if self.variant == "forward" else g3
        return f1, g2, third

    def _stacks_at(self, t: float):
        got = self._stacks.get(t)
        if got is None:
            got = self._build(t)
            self._stacks[t] = got
        return got

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _term(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
        if stack.shape[0] == 0:
            return np.zeros(x.shape[1])
        images = stack @ x                       # (m, n, batch)
        norms = np.sqrt(np.sum(images * images, axis=1))
        return norms.max(axis=0)

    def evaluate_many(self, t: float, x: np.ndarray) -> np.ndarray:
        """Norm values for each column of the (dimension, batch) matrix x."""
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
        worst_abs = 0.0
        worst_rel = 0.0
        for t in times:
            f1, g2, third = self._stacks_at(t)
            past = self._term(g2, basis)
            if self.variant == "backward":
                past = past + self._term(third, basis)
            f1d, f3d = self._future_stacks(t, 2.0 * self.horizon)
            base = past + self._term(f1, basis)
            wide = past + self._term(f1d, basis)
            if self.variant == "forward":
                base = base + self._term(third, basis)
                wide = wide + self._term(f3d, basis)
            delta = np.abs(wide - base)
            worst_abs = max(worst_abs, float(delta.max()))
            scale = np.maximum(base, 1e-300)
            worst_rel = max(worst_rel, float((delta / scale).max()))
        self.horizon_delta_abs = worst_abs
        self.horizon_delta_rel = worst_rel


def build_norm_family(variant: str, operator, family, inverses, rates,
                      horizon: float, step: float, times) -> LyapunovNormFamily:
    """Construct one norm-family variant and measure its truncation slack."""
    return LyapunovNormFamily(variant, operator, family, inverses, rates,
                              horizon, step, times)


def check_compatibility(norm_family: LyapunovNormFamily, grid, samples: int,
                        tol: float = 1e-9, seed: int = 0) -> CompatibilityReport:
    """Estimate the sandwich constants |x| <= |x|_t <= C(t) |x|.

    C(t) is maximized over the orthonormal basis plus seeded random unit
    vectors; the lower bound is exact on every sample. The estimate is
    cross-checked against three times the envelope of full-norm required
    factors taken over the family's own sample pairs, which the construction
    can never exceed.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n = norm_family.family.dimension
    _, x = test_vector_batch(n, samples, seed)

    ratios = []
    lower = math.inf
    for t in grid:
        vals = norm_family.evaluate_many(t, x)
        ratios.append(float(vals.max()))
        lower = min(lower, float(vals.min()) - 1.0)

    limit = _fullnorm_limit(norm_family, grid)
    crosscheck_ok = all(c <= lim * (1.0 + tol) + 1e-12
                        for c, lim in zip(ratios, limit))
    passed = (lower >= -1e-12 and crosscheck_ok
              and all(math.isfinite(c) for c in ratios))
    return CompatibilityReport(grid=grid, ratios=ratios,
                               c_uniform=max(ratios), lower_margin=lower,
                               crosscheck_limit=limit, crosscheck_ok=crosscheck_ok,
                               samples=samples, seed=seed, passed=passed)


def _fullnorm_limit(nf: LyapunovNormFamily, grid) -> list[float]:
    """3 * nondecreasing envelope of the full-norm factors bounding each term."""
    requirement = []
    for t in grid:
        worst = 1.0
        for tau in _future_times(t, nf.horizon, nf.step):
            worst = max(worst, required_factor(nf.operator, nf.family, nf.rates,
                                               tau, t, "stable_decay",
                                               nf.inverses, full=True))
            if nf.variant == "forward":
                worst = max(worst, required_factor(nf.operator, nf.family,
                                                   nf.rates, tau, t,
                                                   "center_growth",
                                                   nf.inverses, full=True))
        for r in _past_times(t, nf.step):
            worst = max(worst, required_factor(nf.operator, nf.family, nf.rates,
                                               t, r, "unstable_growth",
                                               nf.inverses, full=True))
            if nf.variant == "backward":
                worst = max(worst, required_factor(nf.operator, nf.family,
                                                   nf.rates, t, r,
                                                   "center_decay",
                                                   nf.inverses, full=True))
        requirement.append(worst)
    envelope = np.maximum.accumulate(requirement)
    return [3.0 * float(v) for v in envelope]


def _require_shared_sources(forward: LyapunovNormFamily,
                            backward: LyapunovNormFamily) -> None:
    if forward.variant != "forward" or backward.variant != "backward":
        raise StructuralError("pass the forward family first, backward second")
    if forward.operator is not backward.operator or forward.family is not backward.family:
        raise StructuralError("norm families must be built from the same sources")


def _theorem_records(forward, backward, grid, x, ids, unprojected):
    """Margins of the four norm inequalities, worst vector per (tag, pair).

    Inequalities are evaluated in ratio form (divided by the rate value at
    the left argument), which keeps margins O(1) and matches the
    exponential/polynomial specialization forms directly.
    """
    operator, family = forward.operator, forward.family
    rates = forward.rates
    h, k = rates["h"], rates["k"]
    mu, nu = rates.get("mu"), rates.get("nu")
    records = []
    for i, t in enumerate(grid):
        p2_t = family.member(2, t)
        p3_t = family.member(3, t)
        for s in grid[:i + 1]:
            u_ts = operator.evaluate(t, s)
            p1_s = family.member(1, s)
            p3_s = family.member(3, s)

            y1 = p1_s @ x
            lhs = forward.evaluate_many(t, u_ts @ y1)
            base = forward.evaluate_many(s, x if unprojected else y1)
            records.append(_worst("stable_decay", t, s, ids, lhs,
                                  h.ratio(s, t) * base))

            z2 = forward.inverses[2].evaluate(t, s) @ x
            lhs = backward.evaluate_many(s, z2)
            base = backward.evaluate_many(t, x if unprojected else p2_t @ x)
            records.append(_worst("unstable_growth", t, s, ids, lhs,
                                  k.ratio(s, t) * base))

            if p3_s.any() or p3_t.any():
                if mu is None or nu is None:
                    raise StructuralError(
                        "norm checks with a nonzero third member need the "
                        "'mu' and 'nu' rates")
                y3 = p3_s @ x
                lhs = forward.evaluate_many(t, u_ts @ y3)
                base = forward.evaluate_many(s, x if unprojected else y3)
                records.append(_worst("center_growth", t, s, ids, lhs,
                                      mu.ratio(t, s) * base))

                z3 = backward.inverses[3].evaluate(t, s) @ x
                lhs = backward.evaluate_many(s, z3)
                base = backward.evaluate_many(t, x if unprojected else p3_t @ x)
                records.append(_worst("center_decay", t, s, ids, lhs,
                                      nu.ratio(t, s) * base))
            else:
                records.append(IneqRecord("center_growth", t, s, ids[0],
                                          0.0, 0.0, 0.0, vacuous=True))
                records.append(IneqRecord("center_decay", t, s, ids[0],
                                          0.0, 0.0, 0.0, vacuous=True))
    return records


def _worst(tag, t, s, ids, lhs, rhs) -> IneqRecord:
    margins = rhs - lhs
    idx = int(np.argmin(margins))
    vacuous = bool(np.all(lhs == 0.0) and np.all(rhs == 0.0))
    return IneqRecord(tag, t, s, ids[idx], float(lhs[idx]), float(rhs[idx]),
                      float(margins[idx]), vacuous=vacuous)


def _finish(label, records, tol, slack, samples, seed) -> TheoremReport:
    worst_per_tag: dict[str, float] = {}
    for r in records:
        cur = worst_per_tag.get(r.tag)
        worst_per_tag[r.tag] = r.margin if cur is None else min(cur, r.margin)
    min_margin = min(worst_per_tag.values())
    return TheoremReport(label=label, records=records,
                         worst_per_tag=worst_per_tag, min_margin=min_margin,
                         tolerance=tol, truncation_slack=slack,
                         passed=min_margin >= -(tol + slack),
                         vacuous_count=sum(r.vacuous for r in records),
                         seed=seed, samples=samples)


def verify_norm_trichotomy(forward: LyapunovNormFamily,
                           backward: LyapunovNormFamily, grid,
                           tol: float = 1e-9, samples: int = 32,
                           seed: int = 0) -> TheoremReport:
    """Constant-free inequality system in the built norms over grid pairs.

    The pass threshold is tol plus the measured truncation slack of the two
    families.
    """
    _require_shared_sources(forward, backward)
    grid = list(grid)
    ids, x = test_vector_batch(forward.family.dimension, samples, seed)
    slack = max(forward.horizon_delta_abs, backward.horizon_delta_abs)
    records = _theorem_records(forward, backward, grid, x, ids, unprojected=False)
    return _finish("norm_trichotomy", records, tol, slack, samples, seed)


def verify_norm_trichotomy_unprojected(forward: LyapunovNormFamily,
                                       backward: LyapunovNormFamily, grid,
                                       tol: float = 1e-9, samples: int = 32,
                                       seed: int = 0) -> TheoremReport:
    """Variant with unprojected right-hand sides, plus the projection lemma.

    The lemma rows assert that applying any member at its own time never
    increases either norm; they are what reduces this system to the
    projected one.
    """
    _require_shared_sources(forward, backward)
    grid = list(grid)
    ids, x = test_vector_batch(forward.family.dimension, samples, seed)
    slack = max(forward.horizon_delta_abs, backward.horizon_delta_abs)
    records = _theorem_records(forward, backward, grid, x, ids, unprojected=True)
    for t in grid:
        for nf, label in ((forward, "projection_bound_forward"),
                          (backward, "projection_bound_backward")):
            base = nf.evaluate_many(t, x)
            for j in (1, 2, 3):
                proj = nf.evaluate_many(t, nf.family.member(j, t) @ x)
                records.append(_worst(label, t, t, ids, proj, base))
    return _finish("norm_trichotomy_unprojected", records, tol, slack,
                   samples, seed)


def verify_sufficiency(forward: LyapunovNormFamily,
                       backward: LyapunovNormFamily, grid,
                       samples: int = 32, seed: int = 0,
                       inverses=None) -> TrichotomyReport:
    """Close the loop: bound built from measured sandwich constants.

    The candidate bound N(a) = sup_{s <= a} C(s) (|P1(s)| + |P2(s)| + |P3(s)|)
    is assembled from the measured compatibility ratios of both families and
    fed back into the projected trichotomy system, which it must dominate.
    """
    _require_shared_sources(forward, backward)
    grid = list(grid)
    compat_f = check_compatibility(forward, grid, samples, seed=seed)
    compat_b = check_compatibility(backward, grid, samples, seed=seed)
    family = forward.family
    values = []
    for i, t in enumerate(grid):
        c = max(compat_f.ratios[i], compat_b.ratios[i])
        pnorm = sum(opnorm(family.member(j, t)) for j in (1, 2, 3))
        values.append(c * pnorm)
    candidate = list(np.maximum.accumulate(values))

    def bound(a: float) -> float:
        idx = bisect.bisect_right(grid, a) - 1
        return candidate[max(idx, 0)]

    report = check_trichotomy(forward.operator, family, forward.rates, grid,
                              bound=bound,
                              inverses=inverses or forward.inverses)
    report.label = "sufficiency"
    return report


def specialization_rates(kind: str, exponents) -> dict[str, GrowthRate]:
    """The rates h, k, mu, nu of one kind with the four given exponents."""
    if kind not in ("exponential", "polynomial"):
        raise ValueError(f"kind must be exponential or polynomial, got {kind!r}")
    alphas = [float(a) for a in exponents]
    if len(alphas) != 4:
        raise ValueError("exactly four exponents are required")
    if any(a <= 0 for a in alphas):
        raise ValueError("exponent must be positive")
    maker = GrowthRate.exponential if kind == "exponential" else GrowthRate.polynomial
    return dict(zip(("h", "k", "mu", "nu"), (maker(a) for a in alphas)))


def check_rate_specialization(kind: str, exponents, operator, family, inverses,
                              grid, horizon: float, step: float,
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
    fwd, bwd = (build_norm_family(variant, operator, family, inverses, rates,
                                  horizon, step, grid) for variant in VARIANTS)
    report = verify_norm_trichotomy(fwd, bwd, grid, tol, samples, seed)
    report.label = f"{kind}_rates"
    return report
