"""Time-indexed norm families built by truncated suprema, and the theorem
checks that relate them to the trichotomy inequality systems.

Two variants exist, differing in how the central directions are weighted:

- forward:  |x|_t = sup_{tau >= t} h(tau)/h(t) |U(tau,t) P1(t) x|
                  + sup_{r <= t}   k(t)/k(r)   |W2(t,r) x|
                  + sup_{tau >= t} mu(t)/mu(tau) |U(tau,t) P3(t) x|
- backward: the same first two terms (shared ``NormTerm`` objects), third term
                    sup_{r <= t}   nu(r)/nu(t) |W3(t,r) x|

where W_j(t, r) = V_j(t, r) P_j(t) are the restricted inverse maps. The
future supremum is truncated to [t, t + horizon] and sampled at the lattice
step; the past supremum runs over the global lattice restricted to [0, t].
Truncation honesty: each family measures how much its values move when the
horizon doubles at the times it is built on, which are the grid of every
norm check, and theorem verdicts widen their tolerance by that slack.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DomainError, StructuralError
from .projectors import build_inverses
from .rates import GrowthRate
from .reports import (CompatibilityReport, Rows, TheoremReport, TrichotomyReport,
                      smallest_margins)
from .trichotomy import TERMS, check_trichotomy
from .util import (chunks, contenders, grid_pairs, norm_bounds, opnorms, pair_index,
                   test_vector_batch)

VARIANTS = {"forward": ("stable_decay", "unstable_growth", "center_growth"),
            "backward": ("stable_decay", "unstable_growth", "center_decay")}
_SENSITIVITY_LIMIT = 1e-6
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


def query_lattice(grid, horizon: float, step: float) -> list[float]:
    """The grid plus every future time the horizon-doubling pass of norm
    families on ``grid`` samples, with the families' own float expressions."""
    times = [grid] + [_future_times(t, 2.0 * horizon, step) for t in grid]
    return sorted(set(np.concatenate(times).tolist()))


def _view(stack: np.ndarray):
    """A stack screened once for all its terms: (a copy of the stack, kept only
    with two live columns, a live column of two nonzero rows or a non-finite
    entry, where ``_term`` may multiply it, else None; whether each column is
    nonzero in one row only, live columns, all finite, each column's largest
    |entry|, whether some entry is zero)."""
    nonzero = stack.any(axis=0)
    single, columns = np.count_nonzero(nonzero, axis=0) == 1, nonzero.any(axis=0)
    finite = bool(np.isfinite(stack).all())
    needed = not finite or np.count_nonzero(columns) > 1 or not single[columns].all()
    return (stack.copy() if needed else None, single, columns, finite,
            np.abs(stack).max(axis=(0, 1), initial=0.0), not stack.all())


def _block(x: np.ndarray):
    """x, (n, batch) or a stack (..., n, batch), as one wide (n, p * batch)
    block, with its live rows, its finiteness and the shape of its norms."""
    wide = np.moveaxis(x, -2, 0).reshape(x.shape[-2], -1)
    return (wide, wide.any(axis=1), bool(np.isfinite(wide).all()),
            x.shape[:-2] + x.shape[-1:])


def _full_term(stack: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """max over the stack of |M y|^2 per column y of wide: one product per
    ``chunks`` run of matrices (its images kept in cache), with the n-term
    sums of a block of its own, and squared rows summed in place."""
    worst = np.zeros(wide.shape[1])
    for lo, hi in chunks(len(stack), stack.shape[1] * wide.shape[1]):
        images = stack[lo:hi] @ wide
        np.square(images, out=images)
        total = images[:, 0]
        for row in range(1, images.shape[1]):
            total += images[:, row]
        np.maximum(worst, total.max(axis=0), out=worst)
    return worst


def _term(view, block) -> np.ndarray:
    """max over a screened stack (``_view``) of |M y| per column y of a
    block (``_block``). Coordinate k is live when column k of some matrix
    and row k of some vector are nonzero. With none live the term is 0.
    With one, whose column has one nonzero row, it is sqrt(square(c* x_k))
    for c* the column's largest |entry|: each image entry is one product,
    and rounding is monotone, so |fl(c x)| = fl(|c| |x|) and fl(y^2) never
    decrease as |c| and |y| grow; the largest square is c*'s to the bit,
    and if any square overflows, c*'s does. Anything else, or a non-finite
    entry (0 * inf is NaN), takes the whole product. Where the screen dropped
    the stack, a column with a non-finite entry is NaN, as its product with
    a zero entry of some matrix gives, unless no entry is zero."""
    stack, single, columns, finite, peak, zero = view
    wide, rows, finite_x, shape = block
    live = (columns & rows).nonzero()[0]
    if stack is not None and not (finite and finite_x and len(live) < 2
                                  and single[live].all()):
        return np.sqrt(_full_term(stack, wide)).reshape(shape)
    out = np.sqrt(np.square(peak[live] * wide[live]))[0] if len(live) else np.zeros(wide.shape[1])
    if not finite_x and zero:  # 0 * inf and 0 * NaN are NaN
        out = out + (0.0 * wide).sum(axis=0)
    return out.reshape(shape)


class NormTerm:
    """The term of inequality ``tag`` in every norm family that sums it:
    ``rate``'s quotient times U(tau, t) P_j(t) over the future lattice of t
    where ``TERMS[tag]`` binds N at s, else times W_j(t, r) over the past one.
    ``at(t)`` gives its narrow stack at t as screened (``_view``: the stack
    itself only where the kernel may multiply it) and its peak,
    the largest quotient times spectral norm of a map: ``factor_table(full=True)``
    to the bit. A past term reads the norms kept beside W_j; a future term
    takes the SVD only of the maps ``util.contenders`` keeps for each time's
    peak. ``basis`` holds the norms of the basis vectors at ``times``, at the
    horizon and at twice it; other times are built on first use."""

    def __init__(self, operator, tag: str, family, rate, horizon: float,
                 step: float, times):
        self.operator, self.tag, self.family, self.rate = operator, tag, family, rate
        self.horizon, self.step, self._kept = horizon, step, {}
        self.basis = self._build(times, 2.0 * horizon)

    def _build(self, times, horizon: float) -> list[np.ndarray]:
        """Keeps the screen of the narrow stack and peak at each of ``times``, the
        future lattice running out to ``horizon``, and returns the norms of
        the basis vectors there, (times, n), over the narrow part and the
        whole: |M e_k| is column k's norm, so no kernel call is needed. The
        lattice stacks are built a ``chunks`` run of times at a time."""
        future = TERMS[self.tag][2] == "s"
        lattices = [_future_times(t, horizon, self.step) if future
                    else _past_times(t, self.step) for t in times]
        runs = chunks([len(x) for x in lattices], self.family.dimension ** 2)
        return [np.concatenate(basis) for basis in zip(*(
            self._build_run(times[lo:hi], lattices[lo:hi]) for lo, hi in runs))]

    def _build_run(self, times, lattices) -> list[np.ndarray]:
        """``_build`` over one run of times and their lattices."""
        j, key, binds, rising = TERMS[self.tag]
        future = binds == "s"
        sizes = [len(x) for x in lattices]
        own = np.repeat(np.asarray(times, dtype=float), sizes)
        pairs = np.stack((np.concatenate(lattices), own)[::1 if future else -1], axis=1)
        member = self.family.stack(j, own)  # pairs: (tau, t) or (t, r), later first
        cut = len(_future_times(0.0, self.horizon, self.step)) if future else len(pairs)
        narrow = np.concatenate([np.arange(size) < cut for size in sizes])
        live = member.any(axis=(1, 2))
        stack, norms = np.zeros(member.shape), np.zeros(len(pairs))
        if live.any():
            if self.rate is None:
                raise StructuralError(f"the {self.tag} norm term needs the {key!r} rate")
            at = pairs[live]
            ratios = self.rate.ratios(*(at.T if rising else at.T[::-1]))
            if future:  # every time's lattice has the same length
                maps = self.operator.evaluate_many(at) @ member[live]
                stack[live] = ratios[:, None, None] * maps
                # only each time's largest norm is read, so only its
                # contenders go to the SVD; none past the horizon
                sift = live & narrow
                bounds = norm_bounds(stack.reshape(len(times), -1, *member.shape[1:])[:, :cut])
                if bounds is not None:
                    sift[narrow] &= contenders(*bounds, cut)
                norms[sift] = ratios[sift[live]] * opnorms(maps[sift[live]])
            else:  # W_j keeps its norms
                inverses = build_inverses(self.operator, self.family)[j]
                stack[live] = ratios[:, None, None] * inverses.stack(at)
                norms[live] = ratios * inverses.norms(at)
        starts = np.cumsum([0] + sizes)
        for t, lo, hi in zip(times, starts, starts[1:]):
            # _view copies a stack it keeps: the whole one goes after the horizon pass
            self._kept[t] = _view(stack[lo:hi][:cut]), float(norms[lo:hi].max())
        # squared in place (the kept stacks are copies), rows summed in
        # _full_term's order; a column past the cut counts as 0
        columns = np.square(stack, out=stack).sum(axis=1)
        return [np.sqrt(np.maximum.reduceat(c, starts[:-1]))
                for c in (np.where(narrow[:, None], columns, 0.0), columns)]

    def at(self, t: float):
        """The screen of the narrow stack at t (``_view``) and its peak."""
        if t not in self._kept:
            if not 0 <= t < math.inf:
                raise DomainError(f"norms are defined for finite t >= 0, not t={t}")
            self._build([t], self.horizon)
        return self._kept[t]


class LyapunovNormFamily:
    """One norm-family variant on the grid ``times``, where it measures its
    truncation slack and every norm check reads it: the sum of its three
    ``VARIANTS`` terms, each a ``NormTerm`` kept through ``operator.keep``, so
    the two variants share their stable and unstable terms. Its sample batch,
    the basis plus ``samples`` random unit vectors drawn with ``seed``, is
    the one every check of the family estimates over. Evaluations are pure."""

    def __init__(self, variant: str, operator, family, rates,
                 horizon: float, step: float, times, samples: int = 32, seed: int = 0):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        if samples < 0:
            raise ValueError("samples must be nonnegative")
        self.times = times = tuple(times)
        if not times:
            raise ValueError("grid must be nonempty")
        self.variant, self.operator, self.family, self.rates = variant, operator, family, rates
        self.horizon, self.step, self.terms = float(horizon), float(step), []
        self.samples, self.seed = samples, seed
        for tag in VARIANTS[variant]:
            key = (tag, family, rates.get(TERMS[tag][1]), self.horizon, self.step, times)
            self.terms.append(operator.keep(("norm_term", *key),
                                            lambda: NormTerm(operator, *key)))
        order = (1, 0, 2) if variant == "forward" else (1, 2, 0)  # past first
        base, doubled = (sum(self.terms[i].basis[k] for i in order) for k in (0, 1))
        delta = np.abs(doubled - base)
        # the largest delta per time; fmax passes over a time holding a NaN
        self.horizon_delta_abs, self.horizon_delta_rel = (
            float(np.fmax.reduce(d.max(axis=1), initial=0.0))
            for d in (delta, delta / np.maximum(base, 1e-300)))

    @property
    def horizon_flagged(self) -> bool:
        """True when doubling the horizon moved sampled values >= 1e-6 relative."""
        return self.horizon_delta_rel >= _SENSITIVITY_LIMIT

    def evaluate_many(self, t: float, x: np.ndarray) -> np.ndarray:
        """Norm values for each column of the (dimension, batch) matrix x,
        or of each matrix of a (..., dimension, batch) stack."""
        block = _block(np.asarray(x, dtype=float))
        return sum(_term(term.at(t)[0], block) for term in self.terms)

    def values(self) -> np.ndarray:
        """Norms of the sample vectors x, P1 x, P2 x and P3 x at each of ``times``,
        (times, 4, batch): the sum of the terms' values, each kept once per
        batch. The vectors are drawn only when some term's values are not kept yet."""
        blocks = functools.cache(  # drawn for the first term not kept
            lambda: [_block(y) for y in _projected(self)[2]])
        return sum(self.operator.keep(
            ("term_values", term, self.samples, self.seed), lambda: np.stack(
                [_term(term.at(t)[0], b) for t, b in zip(self.times, blocks())]))
            for term in self.terms)


def _projected(nf: LyapunovNormFamily):
    """The family's sample ids and vectors x, and x, P1 x, P2 x, P3 x per time."""
    ids, x = test_vector_batch(nf.family.dimension, nf.samples, nf.seed)
    return np.array(ids, dtype=object), x, np.stack([np.broadcast_to(x, (len(nf.times), *x.shape))]
                            + [nf.family.stack(j, nf.times) @ x for j in (1, 2, 3)], axis=1)


def build_norm_family(variant: str, operator, family, rates, horizon: float,
                      step: float, times, samples: int = 32,
                      seed: int = 0) -> LyapunovNormFamily:
    """Construct one norm-family variant and measure its truncation slack.
    Not kept: a rebuild finds its three kept terms and sums their deltas."""
    return LyapunovNormFamily(variant, operator, family, rates, horizon, step, times,
                              samples, seed)


def check_compatibility(norm_family: LyapunovNormFamily) -> CompatibilityReport:
    """Sandwich constants |x| <= |x|_t <= C(t) |x| at the family's times.

    C(t) is maximized over the family's sample batch, the orthonormal basis
    plus seeded random unit vectors: column 0 of its kept ``values``, which
    ``theorem_tables`` reads too. The lower bound is exact on every sample. The estimate
    is cross-checked against three times the envelope of the terms' peaks,
    the full-norm required factors over their lattice stacks, which the
    construction can never exceed. The report is not kept: the values and
    peaks it reads are, so a second call redoes only maxima and minima.
    """
    values = norm_family.values()[:, 0]
    ratios = values.max(axis=1).tolist()
    lower = float(values.min()) - 1.0

    limit = _fullnorm_limit(norm_family)
    crosscheck_ok = all(c <= lim * (1.0 + _CROSSCHECK_TOL) + 1e-12
                        for c, lim in zip(ratios, limit))
    passed = (lower >= -1e-12 and crosscheck_ok
              and all(math.isfinite(c) for c in ratios))
    return CompatibilityReport(
        grid=list(norm_family.times), ratios=ratios, c_uniform=max(ratios), lower_margin=lower,
        crosscheck_limit=limit, crosscheck_ok=crosscheck_ok,
        samples=norm_family.samples, seed=norm_family.seed, passed=passed)


def _fullnorm_limit(nf: LyapunovNormFamily) -> list[float]:
    """3 * nondecreasing envelope of the terms' peaks, floored at 1."""
    peaks = np.array([[term.at(t)[1] for term in nf.terms] for t in nf.times])
    envelope = np.maximum.accumulate(np.maximum(1.0, peaks.max(axis=1)))
    return [3.0 * float(v) for v in envelope]


def _require_shared_sources(forward: LyapunovNormFamily,
                            backward: LyapunovNormFamily) -> None:
    if forward.variant != "forward" or backward.variant != "backward":
        raise StructuralError("pass the forward family first, backward second")
    if forward.operator is not backward.operator or forward.family is not backward.family:
        raise StructuralError("norm families must be built from the same sources")
    if forward.times != backward.times:
        raise StructuralError("norm families must be built at the same times")
    if (forward.samples, forward.seed) != (backward.samples, backward.seed):
        raise StructuralError("norm families must be built on the same sample batch")


def theorem_tables(forward: LyapunovNormFamily,
                   backward: LyapunovNormFamily) -> tuple[Rows, Rows, Rows]:
    """Margin tables of the norm inequalities over the pairs of the families'
    times, worst vector per (pair, tag): the projected system, the unprojected
    one and the projection lemma, which asserts that applying any member at its
    own time never increases either norm (it reduces the unprojected system to
    the projected one), over the families' shared sample batch. Inequalities
    are in ratio form (divided by the rate value at the left argument), which
    keeps margins O(1) and matches the exponential/polynomial specialization
    forms. Per ``TERMS``, N binding at s means forward norms; the quotient
    inverts the factor's. Each tag's left-hand norms, the U terms batched per
    t over s and the W_j terms per s over t, are built a chunk of outer times
    at a time and reduced against both right-hand sides (the kept ``values``)
    into the tables' columns before the next chunk is built, so no (pairs,
    batch) array is ever held whole. The tables are kept through
    ``operator.keep`` per terms of the two families (which fix the four rates
    and the times) and their batch's sample count and seed.
    """
    _require_shared_sources(forward, backward)
    return forward.operator.keep(
        ("tables", *forward.terms, *backward.terms, forward.samples, forward.seed),
        lambda: _theorem_tables(forward, backward))


def _theorem_tables(forward, backward) -> tuple[Rows, Rows, Rows]:
    """``theorem_tables``: per tag in ``TERMS`` order, ``chunks`` runs of outer
    times ascending, each run's ``_worst`` records written into the table columns."""
    grid = list(forward.times)
    ids, x, proj = _projected(forward)
    base = {nf.variant: nf.values() for nf in (forward, backward)}
    rows, cols = pair_index(len(grid))  # grid_pairs order
    third = forward.family.stack(3, grid).any(axis=(1, 2))
    vacant = ~(third[rows] | third[cols])  # per pair: member 3 is 0 at t and s
    tags = list(TERMS)[:2 if vacant.all() else 4]  # center terms raised if mu or nu is missing
    pairs = grid_pairs(grid)
    store = forward.operator.store  # U gathered a block at a time, not copied whole
    u_rows = store.rows(pairs)
    inverses = build_inverses(forward.operator, forward.family)
    offsets = np.cumsum(np.arange(len(grid) + 1))  # row i of pairs starts here
    tables = [_table(len(rows), len(TERMS), x.shape[1]) for _ in range(2)]  # projected, not
    for k, (tag, (j, key, binds, rising)) in enumerate(TERMS.items()):
        if tag not in tags:  # no central member anywhere: left as _table fills it
            continue
        # the tag's quotient column once over all pairs: 0.6 MB at G=401
        quotient = forward.rates[key].ratios(*(pairs.T[::-1] if rising else pairs.T))
        # the pairs of each outer time a: (a, s <= a) for U, (t >= a, a) for W_j
        at = [np.arange(offsets[i], offsets[i + 1]) if binds == "s" else offsets[i:-1] + i
              for i in range(len(grid))]
        right, other = (base["forward"], cols) if binds == "s" else (base["backward"], rows)
        # a chunk holds four (pairs, batch) arrays: lhs, a gathered right side, rhs, margins
        for lo, hi in chunks([len(a) for a in at], 4 * x.shape[1]):
            chunk = np.concatenate(at[lo:hi])
            lhs = np.concatenate([  # |U(t, s) P_j(s) x|_t forward, else |W_j(t, s) x|_s
                forward.evaluate_many(a, store.values[u_rows[at[i]]] @ proj[:i + 1, j])
                if binds == "s" else backward.evaluate_many(a, inverses[j].stack(pairs[at[i]]) @ x)
                for i, a in enumerate(grid[lo:hi], lo)])
            blank = vacant[chunk] & tag.startswith("center")  # vacuous: P3 is 0 at t and s
            lhs[blank] = 0.0
            for table, column in zip(tables, (j, 0)):
                rhs = quotient[chunk, None] * right[other[chunk], column]
                rhs[blank] = 0.0
                _worst(lhs, rhs, table, (chunk, k))
    lemma = _table(len(grid), 2 * 3, x.shape[1])
    for k, (variant, j) in enumerate((v, j) for v in VARIANTS for j in (1, 2, 3)):
        _worst(base[variant][:, j], base[variant][:, 0], lemma, (slice(None), k))
    diagonal = np.arange(len(grid))
    return (*(Rows(grid, rows, cols, list(TERMS), *table, ids) for table in tables),
            Rows(grid, diagonal, diagonal, [f"projection_bound_{variant}"
                                            for variant in VARIANTS for _ in (1, 2, 3)],
                 *lemma, ids))


def _table(count: int, width: int, batch: int) -> list[np.ndarray]:
    """The ``_worst`` columns of a (count, width) table over a batch of
    vectors, each index in the smallest unsigned type that holds it; a cell
    never written reads as both sides zero: lhs and rhs 0, vector 0, vacuous."""
    dtypes = (float, float, np.min_scalar_type(max(0, batch - 1)))
    return [np.zeros((count, width), d) for d in dtypes] + [np.ones((count, width), dtype=bool)]


def _worst(lhs, rhs, table, at) -> None:
    """Worst sample vector per row of the (rows, batch) sides of one tag,
    the one of smallest margin rhs - lhs, written into ``table`` at ``at``:
    its lhs, rhs and index, and whether both sides vanish."""
    idx = np.argmin(rhs - lhs, axis=1)
    pick = np.arange(len(idx)), idx
    vacuous = ~(lhs.any(axis=1) | rhs.any(axis=1))  # NaN counts as nonzero, -0.0 as 0
    for column, value in zip(table, (lhs[pick], rhs[pick], idx, vacuous)):
        column[at] = value


def _finish(label, tables, tol, families) -> TheoremReport:
    """The report of ``tables``, its tolerance widened by the families' slack."""
    slack = max(nf.horizon_delta_abs for nf in families)
    worst_per_tag = {tag: r["margin"] for tag, r in smallest_margins(tables).items()}
    min_margin = min(worst_per_tag.values())
    return TheoremReport(label=label, tables=tables,
                         worst_per_tag=worst_per_tag, min_margin=min_margin,
                         tolerance=tol, truncation_slack=slack,
                         passed=min_margin >= -(tol + slack),
                         vacuous_count=sum(int(t.vacuous.sum())
                                           for t in tables),
                         seed=families[0].seed, samples=families[0].samples)


def verify_norm_trichotomy(forward: LyapunovNormFamily,
                           backward: LyapunovNormFamily,
                           tol: float = 1e-9) -> TheoremReport:
    """Constant-free inequality system in the built norms over the pairs of
    the families' times: the projected table of ``theorem_tables``, kept and
    shared with ``verify_norm_trichotomy_unprojected``. The pass threshold
    is tol plus the truncation slack the families measured at those times.
    """
    projected = theorem_tables(forward, backward)[0]
    return _finish("norm_trichotomy", [projected], tol, (forward, backward))


def verify_norm_trichotomy_unprojected(forward: LyapunovNormFamily,
                                       backward: LyapunovNormFamily,
                                       tol: float = 1e-9) -> TheoremReport:
    """Variant with unprojected right-hand sides, plus the projection lemma:
    the other two tables of ``theorem_tables``."""
    _, unprojected, lemma = theorem_tables(forward, backward)
    return _finish("norm_trichotomy_unprojected", [unprojected, lemma], tol,
                   (forward, backward))


def verify_sufficiency(forward: LyapunovNormFamily,
                       backward: LyapunovNormFamily) -> TrichotomyReport:
    """Close the loop: bound built from measured sandwich constants.

    The candidate bound N(a) = sup_{s <= a} C(s) (|P1(s)| + |P2(s)| + |P3(s)|)
    is assembled from the measured compatibility ratios of both families and
    fed back, as its array over the grid, into the projected trichotomy
    system, which it must dominate; it reads the kept values and factor table.
    """
    _require_shared_sources(forward, backward)
    grid = list(forward.times)
    ratios = (nf.values()[:, 0].max(axis=1) for nf in (forward, backward))
    family = forward.family
    pnorm = sum(opnorms(family.stack(j, grid)) for j in (1, 2, 3))
    candidate = np.maximum.accumulate(np.maximum(*ratios) * pnorm)
    report = check_trichotomy(forward.operator, family, forward.rates, grid, lambda a: candidate)
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
                                  step, grid, samples, seed) for variant in VARIANTS)
    report = verify_norm_trichotomy(fwd, bwd, tol)
    return dataclasses.replace(report, label=f"{kind}_rates")
