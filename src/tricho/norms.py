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


def _future_times(t: float, horizon: float, step: float) -> np.ndarray:
    count = max(1, math.ceil(horizon / step - 1e-9))
    return t + np.arange(count + 1) * step


def _past_times(t: float, step: float) -> np.ndarray:
    last = int(math.floor(t / step + 1e-9))
    times = np.arange(last + 1) * step
    if not len(times) or abs(times[-1] - t) > 1e-12:
        times = np.append(times, t)
    return times


def _pairs(times, lattice, later: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x, t) pairs if ``later``, else (t, x), for each t of ``times`` and x
    of ``lattice(t)`` as an (m, 2) array, and where each t's rows start."""
    lattices = [lattice(t) for t in times]
    sizes = [len(x) for x in lattices]
    own = np.repeat(np.asarray(times, dtype=float), sizes)
    pairs = np.stack((np.concatenate(lattices), own)[::1 if later else -1], axis=1)
    return pairs, np.cumsum([0] + sizes)


def query_lattice(grid, horizon: float, step: float) -> list[float]:
    """The grid plus every future time the horizon-doubling pass of norm
    families on ``grid`` samples, with the families' own float expressions."""
    times = [grid] + [_future_times(t, 2.0 * horizon, step) for t in grid]
    return sorted(set(np.concatenate(times).tolist()))


def _views(stack: np.ndarray, cut: int):
    """stack[:cut] and stack, each screened once for all its terms: (view, mask
    of entries nonzero in some matrix, live columns, all finite, each column's
    largest |entry|); with nothing past the cut both are the narrow one."""
    views, nonzero, finite, peak = [], False, True, 0.0
    parts = [stack[:cut], stack[cut:]][:1 + (cut < len(stack))]
    # the narrow view is a copy, so the wide stack can go after the horizon pass
    for view, part in zip((stack[:cut].copy(), stack), parts):
        nonzero = nonzero | part.any(axis=0)
        finite = finite and bool(np.isfinite(part).all())
        peak = np.maximum(peak, np.abs(part).max(axis=(0, 1), initial=0.0))
        views.append((view, nonzero, nonzero.any(axis=0), finite, peak))
    return views[0], views[-1]


def _block(x: np.ndarray):
    """x, (n, batch) or a stack (..., n, batch), as one wide (n, p * batch)
    block, with its live rows, its finiteness and the shape of its norms."""
    wide = np.moveaxis(x, -2, 0).reshape(x.shape[-2], -1)
    return (wide, wide.any(axis=1), bool(np.isfinite(wide).all()),
            x.shape[:-2] + x.shape[-1:])


def _full_term(stack: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """max over the stack of |M y|^2 per column y of wide: one product per
    chunk of about ``_IMAGE_FLOATS`` image entries (kept in cache), with the
    n-term sums of a block of its own, and squared rows summed in place."""
    worst = np.zeros(wide.shape[1])
    step = max(1, _IMAGE_FLOATS // max(1, stack.shape[1] * wide.shape[1]))
    for lo in range(0, stack.shape[0], step):
        images = stack[lo:lo + step] @ wide
        np.square(images, out=images)
        total = images[:, 0]
        for row in range(1, images.shape[1]):
            total += images[:, row]
        np.maximum(worst, total.max(axis=0), out=worst)
    return worst


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
        # the future terms run out to twice the horizon for the sensitivity pass only
        built = dict(zip(times, self._build(times, 2.0 * self.horizon)))
        self._stacks = {t: narrow for t, (narrow, _) in built.items()}
        self.horizon_delta_abs = self.horizon_delta_rel = 0.0
        self._measure_sensitivity(built.values())

    @property
    def horizon_flagged(self) -> bool:
        """True when doubling the horizon moved sampled values >= 1e-6 relative."""
        return self.horizon_delta_rel >= _SENSITIVITY_LIMIT

    # -- stack construction ------------------------------------------------

    def _weighted(self, key: str, a, b, member, maps):
        """rate(a)/rate(b) * maps(live, member[live]) on the rows ``live`` where
        the (m, n, n) member stack is nonzero, zeros elsewhere."""
        live = member.any(axis=(1, 2))
        out = np.zeros(member.shape)
        if live.any():
            rate = self.rates.get(key)
            if rate is None:
                raise StructuralError(f"{self.variant} variant needs the {key!r} rate")
            out[live] = rate.ratios(a[live], b[live])[:, None, None] * maps(live, member[live])
        return out

    def _build(self, times, horizon: float) -> list:
        """The three term stacks at each of ``times`` as (narrow views, wide
        views), screened; one U or W_j lookup and one ``ratios`` call a term."""
        future, ends = _pairs(times, lambda t: _future_times(t, horizon, self.step), True)
        past, starts = _pairs(times, lambda t: _past_times(t, self.step), False)
        (taus, at), (ts, rs) = future.T, past.T  # (tau, t) and (t, r)
        u, member = self.operator.evaluate_many(future), self.family.stack
        f1 = self._weighted("h", taus, at, member(1, at), lambda live, p: u[live] @ p)
        g2 = self._weighted("k", ts, rs, member(2, ts),
                            lambda live, _: self.inverses[2].stack(past[live]))
        forward = self.variant == "forward"
        if forward:
            third = self._weighted("mu", at, taus, member(3, at), lambda live, p: u[live] @ p)
        else:
            third = self._weighted("nu", rs, ts, member(3, ts),
                                   lambda live, _: self.inverses[3].stack(past[live]))
        cut = len(_future_times(0.0, self.horizon, self.step))
        cuts = (cut, len(past), cut if forward else len(past))  # past stacks: all narrow
        return [tuple(zip(*map(_views, (f1[f], g2[p], third[f if forward else p]), cuts)))
                for f, p in zip(map(slice, ends, ends[1:]), map(slice, starts, starts[1:]))]

    def _stacks_at(self, t: float):
        if t not in self._stacks:
            self._stacks[t] = self._build([t], self.horizon)[0][0]
        return self._stacks[t]

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _term(view, block) -> np.ndarray:
        """max over a screened stack (``_views``) of |M y| per column y of a
        block (``_block``). Coordinate k is live when column k of some matrix
        and row k of some vector are nonzero. With none live the term is 0.
        With one, whose column has one nonzero row, it is sqrt(square(c* x_k))
        for c* the column's largest |entry|: each image entry is one product,
        and rounding is monotone, so |fl(c x)| = fl(|c| |x|) and fl(y^2) never
        decrease as |c| and |y| grow; the largest square is c*'s to the bit,
        and if any square overflows, c*'s does. With several rows, stack and
        block are cut to them and to row k: a dropped squared row is +0. Two
        or more live, or a non-finite entry (0 * inf is NaN), cut nothing."""
        stack, nonzero, columns, finite, peak = view
        wide, rows, finite_x, shape = block
        live = (columns & rows).nonzero()[0]
        if len(live) < 2 and finite and finite_x:
            if len(live) == 0:
                return np.zeros(shape)
            cut = nonzero[:, live[0]].nonzero()[0]
            if len(cut) == 1:
                return np.sqrt(np.square(peak[live] * wide[live])).reshape(shape)
            stack, wide = stack[:, cut][:, :, live], wide[live]
        return np.sqrt(_full_term(stack, wide)).reshape(shape)

    def evaluate_many(self, t: float, x: np.ndarray) -> np.ndarray:
        """Norm values for each column of the (dimension, batch) matrix x,
        or of each matrix of a (..., dimension, batch) stack."""
        if not 0 <= t < math.inf:
            raise DomainError(f"norms are defined for finite t >= 0, not t={t}")
        block = _block(np.asarray(x, dtype=float))
        return sum(self._term(view, block) for view in self._stacks_at(t))

    def evaluate(self, t: float, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        return float(self.evaluate_many(t, x)[0])

    __call__ = evaluate

    # -- truncation honesty ---------------------------------------------------

    def _measure_sensitivity(self, built) -> None:
        basis = _block(np.eye(self.family.dimension))
        order = (1, 0, 2) if self.variant == "forward" else (1, 2, 0)  # past first
        for narrow, full in built:
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
    future = _pairs(grid, lambda t: _future_times(t, nf.horizon, nf.step), True)
    past = _pairs(grid, lambda t: _past_times(t, nf.step), False)
    forward = nf.variant == "forward"
    requirement = np.ones(len(grid))
    for (pairs, starts), tags in (
            (future, ("stable_decay", "center_growth") if forward else ("stable_decay",)),
            (past, ("unstable_growth",) if forward else ("unstable_growth", "center_decay"))):
        table = factor_table(nf.operator, nf.family, nf.rates, pairs, tags,
                             full=True)
        worst = np.max([table[tag] for tag in tags], axis=0)
        requirement = np.maximum(requirement, np.maximum.reduceat(worst, starts[:-1]))
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
    members = [family.stack(j, grid) for j in (1, 2, 3)]
    proj = np.stack([np.broadcast_to(x, (len(grid), *x.shape))]
                    + [p @ x for p in members], axis=1)  # (grid, 4, n, batch)
    base = {nf.variant: np.stack([nf.evaluate_many(t, y) for t, y in zip(grid, proj)])
            for nf in (forward, backward)}
    rows, cols = np.tril_indices(len(grid))  # grid_pairs order
    third = members[2].any(axis=(1, 2))
    central = third[rows] | third[cols]
    tags = ["stable_decay", "unstable_growth"]
    if central.any():
        if forward.rates.get("mu") is None or forward.rates.get("nu") is None:
            raise StructuralError("norm checks with a nonzero third member "
                                  "need the 'mu' and 'nu' rates")
        tags += ["center_growth", "center_decay"]
    lhs = {tag: np.empty((len(rows), x.shape[1])) for tag in tags}
    pairs = grid_pairs(grid)
    u = forward.operator.evaluate_many(pairs)
    offsets = np.cumsum(np.arange(len(grid) + 1))  # row i of pairs starts here
    for i, t in enumerate(grid):
        for tag, j in (("stable_decay", 1), ("center_growth", 3)):
            if tag in lhs:
                lhs[tag][offsets[i]:offsets[i + 1]] = forward.evaluate_many(
                    t, u[offsets[i]:offsets[i + 1]] @ proj[:i + 1, j])
    for j, s in enumerate(grid):
        later = offsets[j:-1] + j  # the pairs (t, s), t >= s
        for tag, nf, inverse in (("unstable_growth", forward, 2),
                                 ("center_decay", backward, 3)):
            if tag in lhs:
                lhs[tag][later] = backward.evaluate_many(
                    s, nf.inverses[inverse].stack(pairs[later]) @ x)
    return TheoremSides(grid, ids, lhs, base, central)


def _theorem_table(sides: TheoremSides, rates, unprojected: bool) -> Rows:
    """Margins of the four norm inequalities, worst vector per (pair, tag).

    Inequalities are evaluated in ratio form (divided by the rate value at
    the left argument), which keeps margins O(1) and matches the
    exponential/polynomial specialization forms directly. Per ``TERMS``,
    N binding at s means forward norms; the quotient inverts the factor's.
    """
    rows, cols = np.tril_indices(len(sides.grid))  # grid_pairs order
    ts, ss = (np.asarray(sides.grid, dtype=float)[i] for i in (rows, cols))
    # every quotient column before the (pairs, batch) work: made inside the
    # loop, they raised the peak RSS of rate_g101 by ~0.7 MB
    quotients = {tag: rates[key].ratios(*((ss, ts) if rising else (ts, ss)))
                 for tag, (_, key, _, rising) in TERMS.items() if tag in sides.lhs}
    columns = []
    for tag, (column, _, at, _) in TERMS.items():
        lhs = rhs = np.zeros((len(rows), 1))  # no central member anywhere
        if tag in sides.lhs:
            base = sides.base["forward" if at == "s" else "backward"][
                cols if at == "s" else rows, 0 if unprojected else column]
            lhs, rhs = sides.lhs[tag], quotients[tag][:, None] * base
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
    if kind not in ("exponential", "polynomial"):
        raise ValueError(f"kind must be exponential or polynomial, got {kind!r}")
    alphas = [float(a) for a in exponents]
    if len(alphas) != 4:
        raise ValueError("exactly four exponents are required")
    rates = {key: GrowthRate(kind, a) for key, a in zip(("h", "k", "mu", "nu"), alphas)}
    grid = list(grid)
    fwd, bwd = (build_norm_family(variant, operator, family, rates, horizon,
                                  step, grid) for variant in VARIANTS)
    report = verify_norm_trichotomy(fwd, bwd, grid, tol, samples, seed)
    return dataclasses.replace(report, label=f"{kind}_rates")
