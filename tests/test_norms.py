import dataclasses
import hashlib
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tricho import (DomainError, GeneratorSpec, GrowthRate, ProjectorFamily,
                    StructuralError, build_norm_family,
                    check_compatibility, check_rate_specialization,
                    check_trichotomy, check_uniform, from_generator,
                    rate_model, required_factor, scenario_from_tree,
                    verify_norm_trichotomy, verify_norm_trichotomy_unprojected,
                    verify_sufficiency)
from tricho import norms, parse_scenario, run, runner, util
from tricho.norms import query_lattice, theorem_tables
from tricho.projectors import build_inverses
from tricho.util import make_grid

from oracle import batched

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"

HORIZON = 5.0
STEP = 0.5


def on_batch(nf, samples, seed):
    """A family of nf's sources and times on another sample batch; it finds
    nf's kept terms."""
    return build_norm_family(nf.variant, nf.operator, nf.family, nf.rates,
                             nf.horizon, nf.step, nf.times, samples, seed)


@pytest.fixture(scope="module")
def uniform_norms(uniform_operator, split_family, exp_rates, grid10):
    build = lambda variant: build_norm_family(
        variant, uniform_operator, split_family, exp_rates, HORIZON, STEP,
        grid10)
    return build("forward"), build("backward")


@pytest.fixture(scope="module")
def nonuniform_norms(nonuniform_operator, split_family, exp_rates, grid10):
    build = lambda variant: build_norm_family(
        variant, nonuniform_operator, split_family, exp_rates, HORIZON, STEP,
        grid10)
    return build("forward"), build("backward")


def test_basis_values_are_one_for_constant_outer_rate(uniform_norms, grid10):
    fwd, bwd = uniform_norms
    for t in grid10:
        for i in range(3):
            e = np.eye(3)[:, i]
            assert fwd.evaluate_many(t, e[:, None])[0] == pytest.approx(1.0, rel=1e-12)
            assert bwd.evaluate_many(t, e[:, None])[0] == pytest.approx(1.0, rel=1e-12)


def test_scalar_oracle_for_nonuniform_norm(nonuniform_norms, grid10):
    # closed form per component: |x|_t = |x1| + (t+1)|x2| + |x3|
    fwd, _ = nonuniform_norms
    for t in (0.0, 2.0, 7.5):
        x = np.array([0.3, -0.4, 1.2])
        want = 0.3 + (t + 1.0) * 0.4 + 1.2
        assert fwd.evaluate_many(t, x[:, None])[0] == pytest.approx(want, rel=1e-12)


def test_backward_scalar_oracle_for_nonuniform_norm(nonuniform_operator,
                                                    split_family, exp_rates,
                                                    nonuniform_norms):
    # third term pulls back along the center: sup over the past lattice of
    # (u(t)/u(r)) * (mu(r)/mu(t)) per unit of |x3|
    _, bwd = nonuniform_norms
    t = 6.0
    lattice = [0.5 * i for i in range(int(t / 0.5) + 1)]
    u = GrowthRate.polynomial(1.0)
    mu = exp_rates["mu"]
    center = max(u.ratios([t], [r])[0] * mu.ratios([r], [t])[0] for r in lattice)
    x = np.array([0.0, 0.0, 2.0])
    assert bwd.evaluate_many(t, x[:, None])[0] == pytest.approx(2.0 * center, rel=1e-12)


def test_zero_vector_evaluates_to_zero(uniform_norms):
    fwd, bwd = uniform_norms
    assert fwd.evaluate_many(3.0, np.zeros((3, 1)))[0] == 0.0
    assert bwd.evaluate_many(3.0, np.zeros((3, 1)))[0] == 0.0


def test_negative_time_rejected(uniform_norms):
    with pytest.raises(DomainError):
        uniform_norms[0].evaluate_many(-1.0, np.ones((3, 1)))


def test_norm_axioms_on_samples(nonuniform_norms, rng):
    fwd, bwd = nonuniform_norms
    for family in (fwd, bwd):
        for _ in range(25):
            t = float(rng.choice([0.0, 1.5, 4.0, 8.0]))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            lam = float(rng.standard_normal())
            nx = family.evaluate_many(t, x[:, None])[0]
            ny = family.evaluate_many(t, y[:, None])[0]
            assert family.evaluate_many(t, lam * x[:, None])[0] == pytest.approx(
                abs(lam) * nx, rel=1e-10, abs=1e-12)
            assert family.evaluate_many(t, (x + y)[:, None])[0] <= nx + ny + 1e-10


def test_lower_bound_dominates_base_norm(nonuniform_norms, rng):
    fwd, bwd = nonuniform_norms
    for family in (fwd, bwd):
        for _ in range(50):
            t = float(rng.choice([0.0, 0.5, 3.0, 9.5]))
            x = rng.standard_normal(3)
            assert family.evaluate_many(t, x[:, None])[0] >= np.linalg.norm(x) - 1e-12


def test_enlarging_horizon_never_decreases(nonuniform_operator, split_family,
                                           exp_rates, grid10, rng):
    small = build_norm_family("forward", nonuniform_operator, split_family,
                              exp_rates, 2.0, STEP, grid10)
    large = build_norm_family("forward", nonuniform_operator, split_family,
                              exp_rates, 6.0, STEP, grid10)
    for _ in range(20):
        t = float(rng.choice(grid10))
        x = rng.standard_normal(3)
        assert (large.evaluate_many(t, x[:, None])[0]
                >= small.evaluate_many(t, x[:, None])[0] - 1e-12)


def test_horizon_sensitivity_is_tiny_on_examples(uniform_norms, nonuniform_norms):
    for fwd, bwd in (uniform_norms, nonuniform_norms):
        for family in (fwd, bwd):
            assert family.horizon_delta_rel < 1e-6
            assert not family.horizon_flagged


def test_variant_and_parameter_validation(uniform_operator, split_family,
                                          exp_rates, grid10):
    with pytest.raises(ValueError):
        build_norm_family("sideways", uniform_operator, split_family,
                          exp_rates, HORIZON, STEP, grid10)
    with pytest.raises(ValueError):
        build_norm_family("forward", uniform_operator, split_family,
                          exp_rates, 0.0, STEP, grid10)
    with pytest.raises(ValueError, match="samples"):
        build_norm_family("forward", uniform_operator, split_family,
                          exp_rates, HORIZON, STEP, grid10, samples=-1)
    without_nu = {key: rate for key, rate in exp_rates.items() if key != "nu"}
    with pytest.raises(StructuralError):
        build_norm_family("backward", uniform_operator, split_family,
                          without_nu, HORIZON, STEP, grid10)


def test_compatibility_constant_outer_rate(uniform_norms):
    fwd, _ = uniform_norms
    report = check_compatibility(on_batch(fwd, 32, 5))
    assert report.passed
    assert report.lower_margin >= -1e-12
    # the norm is an l1-style sum over three one-dimensional pieces, so the
    # sandwich constant on unit vectors tops out at sqrt(3)
    assert report.c_uniform <= math.sqrt(3.0) + 1e-9
    basis_only = check_compatibility(on_batch(fwd, 0, 5))
    assert basis_only.c_uniform == pytest.approx(1.0, rel=1e-12)


def test_compatibility_growing_outer_rate(nonuniform_norms, grid10):
    fwd, bwd = nonuniform_norms
    for family in (fwd, bwd):
        report = check_compatibility(on_batch(family, 32, 5))
        assert report.passed
        for t, c in zip(grid10, report.ratios):
            assert c <= 3.0 * (t + 1.0) + 1e-9
        assert report.crosscheck_ok


def test_norm_system_margins_uniform(uniform_norms):
    fwd, bwd = (on_batch(nf, 32, 9) for nf in uniform_norms)
    report = verify_norm_trichotomy(fwd, bwd, tol=1e-10)
    assert report.passed
    assert report.min_margin >= -(1e-10 + report.truncation_slack)


def test_norm_system_margins_nonuniform(nonuniform_norms):
    fwd, bwd = (on_batch(nf, 32, 9) for nf in nonuniform_norms)
    report = verify_norm_trichotomy(fwd, bwd, tol=1e-9)
    assert report.passed


def test_equal_time_records_have_zero_margin(uniform_norms):
    fwd, bwd = (on_batch(nf, 8, 9) for nf in uniform_norms)
    report = verify_norm_trichotomy(fwd, bwd, tol=1e-10)
    diag = [r for r in report.records if r["t"] == r["s"]]
    assert diag
    for r in diag:
        assert r["margin"] == pytest.approx(0.0, abs=1e-12)


def test_mismatched_sources_rejected(uniform_norms, nonuniform_norms, grid10):
    with pytest.raises(StructuralError):
        verify_norm_trichotomy(uniform_norms[0], nonuniform_norms[1])
    with pytest.raises(StructuralError):
        verify_norm_trichotomy(uniform_norms[1], uniform_norms[0])
    fwd = uniform_norms[0]
    coarse = build_norm_family("backward", fwd.operator, fwd.family, fwd.rates,
                               HORIZON, STEP, grid10[::2])
    for check in (verify_norm_trichotomy, verify_norm_trichotomy_unprojected,
                  verify_sufficiency, theorem_tables):
        with pytest.raises(StructuralError, match="same times"):
            check(fwd, coarse)


def test_families_on_different_batches_are_rejected(uniform_norms):
    fwd, bwd = uniform_norms
    for other in (on_batch(bwd, 32, 1), on_batch(bwd, 8, 0)):
        for check in (verify_norm_trichotomy, verify_norm_trichotomy_unprojected,
                      verify_sufficiency, theorem_tables):
            with pytest.raises(StructuralError, match="same sample batch"):
                check(fwd, other)


def test_sufficiency_loop_uniform(uniform_norms, uniform_operator, split_family,
                                  exp_rates, grid10):
    fwd, bwd = (on_batch(nf, 32, 9) for nf in uniform_norms)
    report = verify_sufficiency(fwd, bwd)
    assert report.passed
    assert report.label == "sufficiency"
    # a flat bound of 3 already dominates the constant-outer-rate system
    flat = check_trichotomy(uniform_operator, split_family, exp_rates, grid10,
                            bound=lambda a: 3.0)
    assert flat.passed


def test_sufficiency_loop_nonuniform(nonuniform_norms):
    fwd, bwd = (on_batch(nf, 32, 9) for nf in nonuniform_norms)
    report = verify_sufficiency(fwd, bwd)
    assert report.passed
    # at seed 2024 the report is pinned to the bit
    report = verify_sufficiency(*(on_batch(nf, 32, 2024) for nf in nonuniform_norms))
    assert report.bound_values[-1] == 33.215729163209964 and report.envelope[-1] == 11.0
    assert hashlib.sha256(json.dumps(report.payload(), sort_keys=True).encode()).hexdigest() \
        == "2d89bb5201a1d22b2ca2e78d35177df0045c81c896fe158c72320d21d9625134"
    assert hashlib.sha256(report.rows.margin().tobytes()).hexdigest() \
        == "432fda345f6967dec99046b01acd78ad8df43a18e8fc500aa64ad74c22e8991f"


def test_unprojected_system_and_lemma(uniform_norms, nonuniform_norms):
    for families in (uniform_norms, nonuniform_norms):
        fwd, bwd = (on_batch(nf, 16, 9) for nf in families)
        report = verify_norm_trichotomy_unprojected(fwd, bwd, tol=1e-9)
        assert report.passed
        lemma = [r for r in report.records
                 if r["tag"].startswith("projection_bound")]
        assert lemma and all(r["margin"] >= -1e-10 for r in lemma)


def test_unprojected_reduces_to_projected_on_range_vectors(uniform_norms):
    # for x already in the stable range the two right-hand sides coincide
    fwd, _ = uniform_norms
    x = np.eye(3)[:, 0]
    p1 = fwd.family.stack(1, [2.0])[0]
    assert fwd.evaluate_many(2.0, (p1 @ x)[:, None])[0] == pytest.approx(
        fwd.evaluate_many(2.0, x[:, None])[0], rel=1e-14)


def test_exponential_specialization_passes(uniform_operator, split_family,
                                           grid10):
    report = check_rate_specialization(
        "exponential", (1.0, 2.0, 0.5, 0.25), uniform_operator, split_family,
        grid10, HORIZON, STEP, tol=1e-9, samples=16, seed=3)
    assert report.passed
    assert report.label == "exponential_rates"


def test_specialization_with_the_family_rates_shares_their_report():
    grid = make_grid(2.0, 0.5)
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    e = GrowthRate.exponential
    rates = {"h": e(1.0), "k": e(2.0), "mu": e(0.5), "nu": e(0.25)}
    operator = rate_model(GrowthRate.polynomial(1.0), *rates.values(), family)
    fwd, bwd = (build_norm_family(variant, operator, family, rates, 1.0, 0.5,
                                  grid, 8, 3) for variant in norms.VARIANTS)
    report = verify_norm_trichotomy(fwd, bwd, 1e-9)
    special = check_rate_specialization("exponential", (1.0, 2.0, 0.5, 0.25),
                                        operator, family, grid, 1.0, 0.5,
                                        1e-9, 8, 3)
    assert special.payload() == report.payload()
    assert special.tables[0] is report.tables[0]  # the kept projected table
    assert special.tables[0] is theorem_tables(fwd, bwd)[0]
    assert special.label == "exponential_rates"
    assert report.label == "norm_trichotomy"
    again = verify_norm_trichotomy(fwd, bwd, 1e-9)
    assert again.tables[0] is report.tables[0]


def small_model_families(rates):
    grid = make_grid(2.0, 0.5)
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    operator = rate_model(GrowthRate.polynomial(1.0), *rates.values(), family)
    build = lambda rates: [build_norm_family(variant, operator, family, rates,
                                             1.0, 0.5, grid, 8, 3)
                           for variant in norms.VARIANTS]
    return grid, build


def test_families_built_again_find_the_kept_tables():
    e = GrowthRate.exponential
    rates = {"h": e(1.0), "k": e(2.0), "mu": e(0.5), "nu": e(0.25)}
    grid, build = small_model_families(rates)
    first, second = build(rates), build(dict(rates))
    assert first[0] is not second[0]
    assert first[0].terms == second[0].terms
    tables = theorem_tables(*first)
    assert theorem_tables(*second) is tables
    report = verify_norm_trichotomy(*first, 1e-9)
    assert verify_norm_trichotomy(*second, 1e-9).tables[0] is tables[0]
    unprojected = verify_norm_trichotomy_unprojected(*second, 1e-9)
    assert all(a is b for a, b in zip(unprojected.tables, tables[1:]))
    assert report.tables == [tables[0]]
    other = build({**rates, "h": e(1.5)})  # another stable term
    assert theorem_tables(*other) is not tables


def test_values_draw_the_vectors_only_for_terms_not_kept(monkeypatch):
    draws = []
    projected = norms._projected

    def counted(*args):
        draws.append(args)
        return projected(*args)

    monkeypatch.setattr(norms, "_projected", counted)
    e = GrowthRate.exponential
    rates = {"h": e(1.0), "k": e(2.0), "mu": e(0.5), "nu": e(0.25)}
    grid, build = small_model_families(rates)
    fwd, bwd = build(rates)
    want = [nf.values() for nf in (fwd, bwd)]
    assert len(draws) == 2  # the backward family's center term was not kept
    for nf, values in zip([fwd, bwd, *build(rates)], want * 2):
        assert nf.values().tobytes() == values.tobytes()
    assert len(draws) == 2


def test_polynomial_specialization_passes():
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    poly = GrowthRate.polynomial
    u = GrowthRate.constant(40.0)
    operator = rate_model(u, poly(1.0), poly(1.0), poly(1.0), poly(1.0), family)
    grid = make_grid(10.0, 0.5)
    report = check_rate_specialization(
        "polynomial", (1.0, 1.0, 1.0, 1.0), operator, family, grid,
        HORIZON, STEP, tol=1e-9, samples=16, seed=3)
    assert report.passed


def test_specialization_rejects_bad_exponents(uniform_operator, split_family,
                                              grid10):
    with pytest.raises(ValueError):
        check_rate_specialization("exponential", (0.0, 1.0, 1.0, 1.0),
                                  uniform_operator, split_family, grid10,
                                  HORIZON, STEP)
    with pytest.raises(ValueError):
        check_rate_specialization("logarithmic", (1.0, 1.0, 1.0, 1.0),
                                  uniform_operator, split_family, grid10,
                                  HORIZON, STEP)


def test_coupled_stable_block_full_pipeline():
    # generator with a nondiagonalizable stable block: the restricted norms
    # must capture the transient growth of e^{-d} [[1, d], [0, 1]], which a
    # scalar-block fixture never exercises
    a = np.zeros((4, 4))
    a[0, 0] = a[1, 1] = -1.0
    a[0, 1] = 1.0
    a[2, 2] = 2.0
    a[3, 3] = 0.25
    grid = make_grid(5.0, 0.5)
    operator = from_generator(GeneratorSpec.constant(a, 1e-2), anchors=grid)
    family = ProjectorFamily.coordinate_split(2, 1, 1)
    e = GrowthRate.exponential
    rates = {"h": e(0.5), "k": e(2.0), "mu": e(0.5), "nu": e(0.25)}

    def stable_oracle(t, s):
        d = t - s
        block = math.exp(-d) * np.array([[1.0, d], [0.0, 1.0]])
        return math.exp(0.5 * d) * np.linalg.svd(block, compute_uv=False)[0]

    for t, s in [(1.0, 0.0), (4.5, 1.5), (5.0, 0.0)]:
        got = required_factor(operator, family, rates, t, s, "stable_decay")
        assert got == pytest.approx(stable_oracle(t, s), rel=1e-8)

    uniform = check_uniform(operator, family, rates, grid)
    oracle = max(1.0, max(stable_oracle(t, s)
                          for t in grid for s in grid if t >= s))
    assert uniform.uniform_constant == pytest.approx(oracle, abs=1e-6)

    fwd = build_norm_family("forward", operator, family, rates, 4.0, 0.5, grid, 8, 13)
    bwd = build_norm_family("backward", operator, family, rates, 4.0, 0.5, grid, 8, 13)
    assert fwd.horizon_delta_rel < 1e-6 and bwd.horizon_delta_rel < 1e-6
    theorem = verify_norm_trichotomy(fwd, bwd, tol=1e-7)
    assert theorem.passed, theorem.min_margin
    assert verify_sufficiency(fwd, bwd).passed
    assert check_compatibility(fwd).passed


def test_dichotomy_specialization_has_vacuous_center_rows(exp_rates):
    family = ProjectorFamily.constant(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                      np.zeros((2, 2)))
    u = GrowthRate.constant(40.0)
    operator = rate_model(u, exp_rates["h"], exp_rates["k"], exp_rates["mu"],
                          exp_rates["nu"], family)
    grid = make_grid(6.0, 0.5)
    report = check_rate_specialization(
        "exponential", (1.0, 2.0, 0.5, 0.25), operator, family, grid,
        HORIZON, STEP, tol=1e-9, samples=8, seed=3)
    assert report.passed
    center = [r for r in report.records
              if r["tag"] in ("center_growth", "center_decay")]
    assert center and all(r["vacuous"] for r in center)
    assert report.vacuous_count == len(center)


def reference_theorem_rows(fwd, bwd, grid, samples, seed, unprojected):
    """Per-pair loop over the four norm inequalities: (tag, t, s, id, margin)."""
    ids, x = util.test_vector_batch(fwd.family.dimension, samples, seed)
    family, rates = fwd.family, fwd.rates
    inverses = build_inverses(fwd.operator, family)
    rows = []
    for i, t in enumerate(grid):
        for s in grid[:i + 1]:
            u = fwd.operator.evaluate(t, s)
            y1, y3 = family.stack(1, [s])[0] @ x, family.stack(3, [s])[0] @ x
            sides = (
                ("stable_decay", fwd.evaluate_many(t, u @ y1),
                 fwd.evaluate_many(s, x if unprojected else y1),
                 rates["h"].ratios([s], [t])[0]),
                ("unstable_growth",
                 bwd.evaluate_many(s, inverses[2].evaluate(t, s) @ x),
                 bwd.evaluate_many(t, x if unprojected
                                   else family.stack(2, [t])[0] @ x),
                 rates["k"].ratios([s], [t])[0]),
                ("center_growth", fwd.evaluate_many(t, u @ y3),
                 fwd.evaluate_many(s, x if unprojected else y3),
                 rates["mu"].ratios([t], [s])[0]),
                ("center_decay",
                 bwd.evaluate_many(s, inverses[3].evaluate(t, s) @ x),
                 bwd.evaluate_many(t, x if unprojected
                                   else family.stack(3, [t])[0] @ x),
                 rates["nu"].ratios([t], [s])[0]))
            for tag, lhs, base, quotient in sides:
                margins = quotient * base - lhs
                k = int(np.argmin(margins))
                rows.append((tag, t, s, ids[k], float(margins[k])))
    if unprojected:
        for t in grid:
            for nf, label in ((fwd, "projection_bound_forward"),
                              (bwd, "projection_bound_backward")):
                base = nf.evaluate_many(t, x)
                for j in (1, 2, 3):
                    margins = base - nf.evaluate_many(t, family.stack(j, [t])[0] @ x)
                    k = int(np.argmin(margins))
                    rows.append((label, t, t, ids[k], float(margins[k])))
    return rows


def bits(x):
    """An array or scalar's dtype, shape and bytes: equal only if bit-equal."""
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def table_bits(table) -> list:
    """Every field of a table of ``theorem_tables``, kept or derived, as ``bits``."""
    return [table.tags, list(table.ids), table.binds, table.vector_ids().tolist(),
            *(bits(c) for c in (table.t, table.s, table.value, table.rhs, table.vector,
                                table.vacuous, table.margin()))]


CHUNKS = util.chunks


def table_budget(monkeypatch, budget: int) -> list[int]:
    """Sets the one run budget; returns the list that gathers how many
    chunks each tag's walk over the outer times takes (the walks over
    per-item counts: a norm term's kernel walks a count of equal items)."""
    monkeypatch.setattr(util, "BUDGET", budget)
    counts = []
    monkeypatch.setattr(norms, "chunks", lambda items, width: (
        np.ndim(items) and counts.append(len(list(CHUNKS(items, width))))
        or CHUNKS(items, width)))
    return counts


# budgets of a table chunk and the chunks they give G=5 with a batch of 10:
# one outer time each, a few each, and one chunk
@pytest.mark.parametrize("budget, chunks", [(1, 5), (240, 3), (1 << 16, 1)],
                         ids=["one_time", "few_times", "one_chunk"])
def test_batched_theorem_records_match_per_pair_loop(monkeypatch, budget, chunks):
    # G=5 grid, non-commuting rotating unstable block, nonzero central member
    a = np.diag([-1.5, 2.5, 2.5, 0.0])
    a[1, 2], a[2, 1] = 1.0, -1.0
    grid = make_grid(2.0, 0.5)
    horizon, step = 1.0, 0.5
    operator = from_generator(GeneratorSpec.constant(a, 0.05),
                              anchors=query_lattice(grid, horizon, step))
    family = ProjectorFamily.coordinate_split(1, 2, 1)
    e = GrowthRate.exponential
    rates = {"h": e(1.0), "k": e(2.0), "mu": e(0.5), "nu": e(0.25)}
    fwd, bwd = (build_norm_family(variant, operator, family, rates, horizon,
                                  step, grid, 6, 17)
                for variant in ("forward", "backward"))
    counts = table_budget(monkeypatch, budget)
    for verify, unprojected in ((verify_norm_trichotomy, False),
                                (verify_norm_trichotomy_unprojected, True)):
        report = verify(fwd, bwd)
        got = [tuple(r[k] for k in ("tag", "t", "s", "vector_id", "margin"))
               for r in report.records]
        assert got == reference_theorem_rows(fwd, bwd, grid, 6, 17, unprojected)
    tables = theorem_tables(fwd, bwd)
    again = [build_norm_family(variant, operator, family, rates, horizon, step,
                               iter(grid), 6, 17) for variant in ("forward", "backward")]
    assert theorem_tables(*again) is tables
    other = theorem_tables(on_batch(fwd, 6, 18), on_batch(bwd, 6, 18))
    assert other is not tables
    assert theorem_tables(on_batch(fwd, 6, 18), on_batch(bwd, 6, 18)) is other
    assert counts == [chunks] * 8  # two tables, four tags each


@pytest.mark.parametrize("name", ["nonuniform_example", "dichotomy_example"])
def test_theorem_tables_are_bit_equal_across_chunk_budgets(monkeypatch, name):
    scenario = parse_scenario(SCENARIOS / f"{name}.json")
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    fwd, bwd = runner._norm_families(scenario, operator, grid)
    batch = scenario.dimension + scenario.samples
    tables, counts = [], []
    for budget in (1, 40 * batch, 1 << 16):  # one outer time a chunk, a few, one chunk
        counts.append(table_budget(monkeypatch, budget))
        tables.append(norms._theorem_tables(fwd, bwd))  # not kept: built anew
    assert set(counts[0]) == {len(grid)}
    assert all(1 < c < len(grid) for c in counts[1]) and set(counts[2]) == {1}
    for other in tables[1:]:
        assert [table_bits(t) for t in other] == [table_bits(t) for t in tables[0]]
    if name == "dichotomy_example":  # no central member: zero, vacuous center columns
        for table in tables[0][:2]:
            assert table.tags[2:] == ["center_growth", "center_decay"]
            assert table.vacuous[:, 2:].all() and not table.value[:, 2:].any()
            assert not table.margin()[:, 2:].any() and not table.rhs[:, 2:].any()


def test_theorem_tables_transient_memory_stays_below_its_tables():
    # at G=201 all pairs' (pairs, batch) sides of one tag would take 4x the tables
    scenario = parse_scenario(SCENARIOS / "nonuniform_example.json")
    scenario = dataclasses.replace(scenario, grid_step=0.05)
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    fwd, bwd = runner._norm_families(scenario, operator, grid)
    for nf in (fwd, bwd):
        nf.values()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        theorem_tables(fwd, bwd)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == 201
    assert peak - after < after - before, (peak - after, after - before)


def held_arrays(root) -> list[np.ndarray]:
    """Every array reachable from ``root`` through containers and attributes."""
    seen, todo, arrays = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif hasattr(obj, "__dict__") and not callable(obj):
            todo += vars(obj).values()
    return arrays


def test_norm_systems_keep_no_pair_by_vector_array():
    scenario = parse_scenario(SCENARIOS / "nonuniform_example.json")
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    fwd, bwd = runner._norm_families(scenario, operator, grid)
    for verify in (verify_norm_trichotomy, verify_norm_trichotomy_unprojected):
        assert verify(fwd, bwd, scenario.tol_theorem).passed
    batch = scenario.dimension + scenario.samples
    shapes = {a.shape for a in held_arrays(operator.kept)}
    assert (len(grid), 4, batch) in shapes  # the kept term values
    assert len(grid) == 21 and (231, batch) not in shapes


@pytest.mark.parametrize("as_input", [list, iter])
def test_iterator_times_keep_the_truncation_slack(as_input):
    # a transient hump past the horizon, so doubling it moves the norms
    grid = make_grid(2.0, 0.25)
    operator = from_generator(
        GeneratorSpec.constant([[-1.0, 10.0], [0.0, -2.0]], 0.01),
        anchors=query_lattice(grid, 0.25, 0.25))
    family = ProjectorFamily.coordinate_split(2, 0, 0)
    nf = build_norm_family("forward", operator, family,
                           {"h": GrowthRate.exponential(0.5)}, 0.25, 0.25,
                           as_input(grid))
    assert nf.horizon_delta_abs == pytest.approx(1.031, abs=1e-3)
    assert nf.horizon_flagged


def screened_stacks(term, times, horizon) -> list[np.ndarray]:
    """The narrow lattice stacks at ``times`` of ``term`` built there out to
    ``horizon``, as its screen (``_view``) is handed them."""
    seen, view = [], norms._view
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "_view", lambda stack: seen.append(stack.copy()) or view(stack))
        norms.NormTerm(term.operator, term.tag, term.family, term.rate, horizon,
                       term.step, times)
    return seen


def test_families_keep_only_the_narrow_stacks(uniform_norms, grid10):
    # the whole stacks serve the horizon-doubling pass and are dropped after
    # it; a narrow one is kept, as a copy, only where the kernel may multiply it
    for nf in uniform_norms:
        stacks = [screened_stacks(term, grid10, HORIZON) for term in nf.terms]
        for term, seen in zip(nf.terms, stacks):
            for t, stack in zip(grid10, seen):
                kept = term.at(t)[0][0]
                assert kept is None or (kept.base is None and bits(kept) == bits(stack))
        for i, t in enumerate(grid10):
            future = len(norms._future_times(t, HORIZON, STEP))
            assert len(stacks[0][i]) == future
            assert len(stacks[2][i]) == (future if nf.variant == "forward" else t / STEP + 1)


@pytest.mark.parametrize("budget", [1, 200])  # one time a run; 22 lattice pairs a run
def test_terms_built_in_runs_match_a_one_pass_build(monkeypatch, nonuniform_operator,
                                                     split_family, exp_rates, grid10, budget):
    build = lambda tag: norms.NormTerm(nonuniform_operator, tag, split_family,
                                       exp_rates[norms.TERMS[tag][1]], HORIZON, STEP, grid10)
    whole = [build(tag) for tag in norms.TERMS]
    runs, build_run = [], norms.NormTerm._build_run
    monkeypatch.setattr(norms.NormTerm, "_build_run", lambda self, times, lattices: (
        runs.append(len(times)) or build_run(self, times, lattices)))
    monkeypatch.setattr(util, "BUDGET", budget)
    for one, term in zip(whole, [build(tag) for tag in norms.TERMS]):
        assert [bits(b) for b in term.basis] == [bits(b) for b in one.basis]
        for t in grid10:
            (view, peak), (want, want_peak) = term.at(t), one.at(t)
            assert [bits(v) for v in view] == [bits(v) for v in want]
            assert bits(peak) == bits(want_peak)
            assert view[0] is None or view[0].base is None
    assert max(runs) < len(grid10)  # no term built in one run


def broadcast_term(stack, x):
    """The reference norm term: every matrix times x in one broadcast product."""
    images = stack.reshape(stack.shape[:1] + (1,) * (x.ndim - 2)
                           + stack.shape[1:]) @ x
    return np.sqrt(np.square(images).sum(axis=-2).max(axis=0, initial=0.0))


def kept_term(stack, x):
    """The norm-term kernel on the whole stack, screened as a family keeps it."""
    return norms._term(norms._view(stack), norms._block(x))


@pytest.mark.parametrize("n", [3, 4])
def test_chunked_term_matches_one_shot(monkeypatch, n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((23, n, n)) * np.logspace(-3, 3, 23)[:, None, None]
    for x in (rng.standard_normal((n, 9)), rng.standard_normal((5, n, 9)),
              rng.standard_normal((2, 3, n, 9))):
        want = broadcast_term(stack, x)
        monkeypatch.setattr(util, "BUDGET", 4 * x.size)  # 6 chunks
        assert np.array_equal(kept_term(stack, x), want)


def test_term_skipping_zero_coordinates_keeps_the_bits(monkeypatch):
    monkeypatch.setattr(util, "BUDGET", 64)  # several chunks
    rng = np.random.default_rng(11)
    n = 4
    block = np.zeros((23, n, n))  # a coordinate block: rows and columns 1, 2
    block[:, 1:3, 1:3] = rng.standard_normal((23, 2, 2)) * np.logspace(
        -3, 3, 23)[:, None, None]
    x = rng.standard_normal((3, n, 9))
    one = x.copy()  # only 1 live: rows 0 (-0.0) and 2 zero, 3 meets a zero column
    one[:, 0], one[:, 2], one[:, 3] = -0.0, 0.0, -1.0
    gemv = np.zeros((20, 7, n, n))  # two live coordinates, one image row
    gemv[:, :, 2, [0, 3]] = rng.standard_normal((20, 7, 2))
    cases = [(block, x), (block, one), (block, one[0]), (block, one[:, :, :1]),
             (block, x[0, :, :1]), (block, -0.0 * x), (np.zeros((5, n, n)), x),
             (np.zeros((0, n, n)), x), (1e-30 * block, one),
             *((g, x[0]) for g in gemv)]
    for stack, vectors in cases:
        got = kept_term(stack, vectors)
        assert got.shape == vectors.shape[:-2] + vectors.shape[-1:]
        assert np.array_equal(got, broadcast_term(stack, vectors))
    assert np.count_nonzero(broadcast_term(block, one)) == one[:, 0].size
    lone = one[0].copy()
    lone[0, 4] = np.inf  # meets the zero column 0: 0 * inf is NaN
    with np.errstate(invalid="ignore"):
        want = broadcast_term(block, lone)
        got = kept_term(block, lone)
    assert np.isnan(want[4]) and np.isfinite(np.delete(want, 4)).all()
    assert np.array_equal(got, want, equal_nan=True)


def one_entry_stack(rng, m):
    """An (m, 3, 3) stack whose column k is nonzero only in row (k + 1) % 3,
    with mixed signs, a tie of +-2.5 as the largest |entry| of column 0, and
    -0.0 elsewhere in each column."""
    stack = np.full((m, 3, 3), -0.0)
    for k in range(3):
        stack[:, (k + 1) % 3, k] = rng.standard_normal(m)
    stack[[1, 4], 1, 0] = 2.5, -2.5
    stack[2, 0, 1] = -9.0  # column 1's largest |entry| is negative
    return stack


def test_kept_screen_term_matches_the_broadcast_product():
    rng = np.random.default_rng(7)
    stack = one_entry_stack(rng, 12)
    lone = [np.zeros((3, 8)) for _ in range(3)]  # one live row each
    for k, x in enumerate(lone):
        x[k] = rng.standard_normal(8) * np.logspace(-5, 5, 8)
        x[k, 3] = -0.0
    tiny = np.full((3, 5), -0.0)
    tiny[0] = [1.0, 1e10, -1e-10, 3.0, -0.0]
    cases = [(stack, x) for x in lone] + [
        (stack, lone[1][None].repeat(2, axis=0)), (-stack, lone[2]),
        (1e-170 * stack, tiny), (1e-165 * stack, tiny)]  # squares underflow
    for m in (0, 1, 5):
        cases.append((stack[:m], lone[0]))
    for stack_, x in cases:
        want = broadcast_term(stack_, x)
        assert np.array_equal(kept_term(stack_, x), want)
    assert (broadcast_term(1e-170 * stack, tiny) == 0.0).any()


def test_kept_screen_term_overflows_as_the_broadcast_product():
    stack = one_entry_stack(np.random.default_rng(8), 6)
    x = np.zeros((3, 4))
    x[0] = [1.0, -1e200, 1e100, 1e-300]  # (2.5 * 1e200) ** 2 overflows
    for scale in (1.0, 1e200):  # the square or the product overflows
        with np.errstate(over="raise"):
            for term in (broadcast_term, kept_term):
                with pytest.raises(FloatingPointError):
                    term(scale * stack, x)
        with np.errstate(over="ignore"):
            want = broadcast_term(scale * stack, x)
            assert np.isinf(want).any()
            assert np.array_equal(kept_term(scale * stack, x), want)


def test_kept_screen_term_takes_the_full_path_on_nonfinite_entries():
    stack = one_entry_stack(np.random.default_rng(9), 6)
    x = np.zeros((3, 4))
    x[1] = [1.0, -2.0, 0.5, 3.0]
    bad_stack = stack.copy()
    bad_stack[3, 2, 0] = np.inf  # column 0 meets x's zero row 0: 0 * inf
    nan_stack = stack.copy()
    nan_stack[2, 1, 2] = np.nan  # column 2 meets x's zero row 2
    bad_x = x.copy()
    bad_x[2, 1] = np.inf  # row 2 meets the zero column 2 of the cut stack
    nan_x = x.copy()
    nan_x[1, 2] = np.nan
    cut = stack.copy()
    cut[:, :, 2] = 0.0
    with np.errstate(invalid="ignore"):
        for stack_, x_ in ((bad_stack, x), (nan_stack, x), (cut, bad_x),
                           (stack, nan_x)):
            want = broadcast_term(stack_, x_)
            assert np.isnan(want).any()
            assert np.array_equal(kept_term(stack_, x_), want, equal_nan=True)


def lattice_stacks(term, t):
    """term's narrow stack at t, which it keeps where it keeps one, and its
    whole stack out to twice the horizon: the narrow stack of the same term
    built at twice the horizon."""
    (narrow,), (whole,) = (screened_stacks(term, [t], h) for h in (term.horizon,
                                                                    2.0 * term.horizon))
    kept = term.at(t)[0][0]
    assert kept is None or bits(kept) == bits(narrow)
    return narrow, whole


def example_families():
    """The grid of the nonuniform example and its forward and backward norm
    families, built as a run builds them."""
    example = parse_scenario(SCENARIOS / "nonuniform_example.json")
    grid = make_grid(example.grid_max, example.grid_step)
    operator = runner._build_operator(example, grid)
    return grid, [build_norm_family(variant, operator, example.family,
                                    example.rates, example.horizon,
                                    example.grid_step, grid)
                  for variant in norms.VARIANTS]


def oblique_families(grid, horizon, step):
    s = np.array([[1.0, 0.5, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    s_inv = np.linalg.inv(s)
    operator = from_generator(
        GeneratorSpec.constant(s @ np.diag([-1.0, 1.2, 0.1]) @ s_inv, 0.05),
        anchors=query_lattice(grid, horizon, step))
    family = ProjectorFamily.constant(*(s @ np.diag(np.eye(3)[j]) @ s_inv
                                        for j in range(3)))
    e = GrowthRate.exponential
    rates = {"h": e(0.3), "k": e(0.3), "mu": e(0.1), "nu": e(0.1)}
    return [build_norm_family(variant, operator, family, rates, horizon, step,
                              grid) for variant in norms.VARIANTS]


def dropped_stack_cases():
    """Stacks whose screen drops them, each with vectors holding inf, -inf and
    NaN beside finite columns: n = 3 with one live column of one nonzero row
    and with none, n = 1 with every entry nonzero, with a zero entry and with
    none nonzero, and empty lattices."""
    rng = np.random.default_rng(12)
    one = np.full((6, 3, 3), -0.0)
    one[:, 2, 1] = rng.standard_normal(6)
    x = rng.standard_normal((3, 7))
    x[1, 0], x[0, 1], x[2, 2], x[:, 3] = np.inf, -np.inf, np.nan, 0.0
    x[1, 4], x[0, 4] = -np.inf, np.nan
    line = np.array([[1.0, np.inf, -np.inf, np.nan, 0.0, -0.0, 1e200]])
    dense = rng.standard_normal((5, 1, 1))
    holed = dense.copy()
    holed[3] = 0.0
    return [(one, x), (one, np.stack([x, x[::-1]])), (np.zeros((4, 3, 3)), x),
            (np.zeros((0, 3, 3)), x), (dense, line), (-dense, line[None]),
            (holed, line), (np.zeros((3, 1, 1)), line), (np.zeros((0, 1, 1)), line)]


def test_terms_keep_a_stack_only_where_the_kernel_may_multiply_it():
    # the nonuniform example's terms keep no lattice stack at any time
    grid, families = example_families()
    assert all(term.at(t)[0][0] is None for nf in families for term in nf.terms
               for t in grid)
    # ode_block_g41's rank-2 unstable term keeps its stacks, as copies, and only it
    tree = json.loads((WORKLOADS / "ode_block_g41.json").read_text())["scenario"]
    scenario = scenario_from_tree(tree)
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    for nf in runner._norm_families(scenario, operator, grid):
        for term in nf.terms:
            kept = [term.at(t)[0][0] for t in grid]
            if term.tag == "unstable_growth":
                seen = screened_stacks(term, grid, term.horizon)
                assert all(k.base is None and bits(k) == bits(s) for k, s in zip(kept, seen))
            else:
                assert all(k is None for k in kept)
    # where the stack is dropped, the screen gives the product's bits, NaN
    # where it gives NaN, on non-finite vectors too
    for stack, x in dropped_stack_cases():
        assert norms._view(stack)[0] is None
        with np.errstate(invalid="ignore", over="ignore"):
            want, got = broadcast_term(stack, x), kept_term(stack, x)
        assert got.shape == want.shape and not np.isinf(want).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert bits(np.nan_to_num(got)) == bits(np.nan_to_num(want))
    with np.errstate(invalid="ignore", over="ignore"):
        cases = [broadcast_term(*case) for case in dropped_stack_cases()]
    assert np.isnan(cases[0][[0, 1, 2, 4]]).all() and np.isfinite(cases[0][[3, 5, 6]]).all()
    assert np.isinf(cases[4][[1, 2, 6]]).all() and np.isnan(cases[6][[1, 2]]).all()
    assert not cases[3].any() and not cases[8].any()  # empty lattices: 0


def test_basis_norms_are_the_kernel_on_the_identity():
    stack = one_entry_stack(np.random.default_rng(10), 10)
    stack[8, 1, 0] = -30.0  # past the cut: column 0's largest |entry|
    stack[7, 0, 1] = -40.0  # past the cut: column 1 has two rows when whole
    nonfinite = stack.copy()
    nonfinite[9, 1, 0] = np.inf  # past the cut, meets x's zero row 0 below
    values = np.array([1.0, -2.0, 0.5, 3.0, -0.0, 1e-3])
    for whole in (stack, nonfinite):
        for k in (0, 1):
            x = np.zeros((2, 3, 6))
            x[:, k] = values, -7.0 * values
            with np.errstate(invalid="ignore"):
                for seen in (whole[:5], whole):
                    assert np.array_equal(kept_term(seen, x),
                                          broadcast_term(seen, x), equal_nan=True)
    with np.errstate(invalid="ignore"):
        assert np.isnan(broadcast_term(nonfinite, x)).all()
    assert np.isfinite(broadcast_term(nonfinite[:5], x)).all()

    example_grid, families = example_families()
    grid = make_grid(2.0, 0.25)
    cases = [(nf, example_grid) for nf in families]
    cases += [(nf, grid) for nf in rank_two_block_families(grid, 1.0, 0.25)
              + oblique_families(grid, 1.0, 0.25)]
    for nf, at in cases:
        identity = np.eye(nf.family.dimension)
        for term in nf.terms:
            for i, t in enumerate(at):
                for basis, seen in zip(term.basis, lattice_stacks(term, t)):
                    assert basis[i].tobytes() == broadcast_term(seen, identity).tobytes()
    assert any(nf.horizon_flagged for nf, _ in cases)


def test_one_entry_columns_never_reach_the_full_product(monkeypatch):
    full_term, term, full, shortcuts = norms._full_term, norms._term, [], []
    monkeypatch.setattr(norms, "_full_term",  # the shapes of the stacks it takes
                        lambda stack, wide: full.append(stack.shape) or full_term(stack, wide))

    def counted_term(view, block):
        before = len(full)
        out = term(view, block)
        shortcuts.append(len(full) == before and out.any())
        return out

    monkeypatch.setattr(norms, "_term", counted_term)
    report = run(parse_scenario(SCENARIOS / "nonuniform_example.json"))  # G=21
    assert report.overall == "pass"
    # each shared term is evaluated once per time, and none while it is built:
    # 336 kernel calls, none of them the full product, 168 nonzero one-row shortcuts
    assert not full
    assert len(shortcuts) == 336
    assert sum(shortcuts) == 168


def test_terms_are_built_without_the_kernel(monkeypatch):
    calls = []
    for name in ("_term", "_full_term"):
        monkeypatch.setattr(norms, name, lambda *args: calls.append(args))
    families = [*example_families()[1],
                *rank_two_block_families(make_grid(2.0, 0.25), 1.0, 0.25)]
    assert all(len(term.basis) == 2 for nf in families for term in nf.terms)
    assert not calls


def test_empty_batch_gives_empty_norms(uniform_norms):
    fwd, _ = uniform_norms
    assert fwd.evaluate_many(1.0, np.zeros((3, 0))).shape == (0,)
    assert fwd.evaluate_many(1.0, np.zeros((0, 3, 5))).shape == (0, 5)


def test_variants_share_their_stable_and_unstable_terms(uniform_norms):
    fwd, bwd = uniform_norms
    assert [term.tag for term in fwd.terms] == list(norms.VARIANTS["forward"])
    assert [term.tag for term in bwd.terms] == list(norms.VARIANTS["backward"])
    assert fwd.terms[0] is bwd.terms[0] and fwd.terms[1] is bwd.terms[1]
    assert fwd.terms[2] is not bwd.terms[2]


def reference_fullnorm_limit(nf):
    """The crosscheck limit from full-norm required factors over each term's
    lattice pairs at the horizon, built apart from the family's stacks."""
    lattices = {"s": [norms._future_times(t, nf.horizon, nf.step) for t in nf.times],
                "t": [norms._past_times(t, nf.step) for t in nf.times]}
    requirement = np.ones(len(nf.times))
    for tag in norms.VARIANTS[nf.variant]:
        binds = norms.TERMS[tag][2]
        requirement = np.maximum(requirement, [max(
            required_factor(nf.operator, nf.family, nf.rates,
                            *((tau, t) if binds == "s" else (t, tau)), tag, full=True)
            for tau in lattice) for t, lattice in zip(nf.times, lattices[binds])])
    return [3.0 * float(v) for v in np.maximum.accumulate(requirement)]


def rank_two_block_families(grid, horizon, step):
    # the ode_block workload's operator: a rotating rank-2 unstable block
    a = np.zeros((4, 4))
    a[0, 0], a[1:3, 1:3], a[3, 3] = -1.5, [[2.5, 1.0], [-1.0, 2.5]], 0.0
    operator = from_generator(GeneratorSpec.constant(a, 0.05),
                              anchors=query_lattice(grid, horizon, step))
    family = ProjectorFamily.coordinate_split(1, 2, 1)
    e = GrowthRate.exponential  # h and k outgrow the blocks: peaks above 1
    rates = {"h": e(2.0), "k": e(3.0), "mu": e(0.5), "nu": e(0.25)}
    return [build_norm_family(variant, operator, family, rates, horizon, step,
                              grid) for variant in norms.VARIANTS]


def test_crosscheck_limit_is_the_full_norm_factor_envelope():
    _, cases = example_families()
    block = rank_two_block_families(make_grid(2.0, 0.25), 1.0, 0.25)
    cases += block + rank_two_block_families([0.125, 0.5, 1.75, 3.0], 1.0, 0.25)
    for nf in cases:
        report = check_compatibility(on_batch(nf, 4, 3))
        want = reference_fullnorm_limit(nf)
        assert report.crosscheck_limit == want
        assert max(want) > 3.0  # some peak above the floor of 1
    # a time a family was not built at is built on first use
    assert 3.0 not in block[0].terms[0]._kept
    block[0].evaluate_many(3.0, np.ones((4, 1)))
    assert 3.0 in block[0].terms[0]._kept


def test_compatibility_reads_the_kept_values(uniform_norms, nonuniform_norms,
                                            grid10):
    block = rank_two_block_families(make_grid(2.0, 0.25), 1.0, 0.25)
    for (fwd, bwd), grid in ((uniform_norms, grid10), (nonuniform_norms, grid10),
                             (block, make_grid(2.0, 0.25))):
        _, x = util.test_vector_batch(fwd.family.dimension, 8, 21)
        for nf in (on_batch(fwd, 8, 21), on_batch(bwd, 8, 21)):
            values = nf.values()[:, 0]
            assert np.array_equal(values, [nf.evaluate_many(t, x) for t in grid])
            report = check_compatibility(nf)
            assert report.ratios == values.max(axis=1).tolist()
            assert report.lower_margin == float(values.min()) - 1.0


def unscreened_peak(term, t):
    """A term's peak at t with every map of its lattice through the SVD."""
    j, _, binds, rising = norms.TERMS[term.tag]
    if binds == "s":
        lattice = norms._future_times(t, term.horizon, term.step)
        pairs = np.stack((lattice, np.full(len(lattice), t)), axis=1)
        maps = term.operator.evaluate_many(pairs) @ term.family.stack(j, pairs[:, 1])
    else:
        lattice = norms._past_times(t, term.step)
        pairs = np.stack((np.full(len(lattice), t), lattice), axis=1)
        maps = build_inverses(term.operator, term.family)[j].stack(pairs)
    return float(np.max(term.rate.ratios(*(pairs.T if rising else pairs.T[::-1]))
                        * util.opnorms(maps)))


def vanishing_center_terms(grid, horizon, step):
    """Future terms of a family whose member 3 is 0 before t = 1, over a
    full generator; a steep center rate puts weighted maps below 1e-150."""
    a = np.array([[-1.0, 0.4, 0.2], [0.3, 1.2, -0.5], [0.1, 0.2, 0.1]])
    operator = from_generator(GeneratorSpec.constant(a, 0.05),
                              anchors=query_lattice(grid, horizon, step))
    family = ProjectorFamily(3, [batched(lambda t: [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                                 batched(lambda t: [[0, 0, 0], [0, 1, 0], [0, 0, t < 1.0]]),
                                 batched(lambda t: [[0, 0, 0], [0, 0, 0], [0, 0, t >= 1.0]])])
    return [norms.NormTerm(operator, tag, family, GrowthRate.exponential(rate),
                           horizon, step, grid)
            for tag, rate in (("stable_decay", 1.0), ("center_growth", 80.0),
                              ("center_growth", 0.5))]


def test_screened_peaks_are_the_unscreened_maximum(monkeypatch):
    example_grid, families = example_families()
    grid = make_grid(2.0, 0.25)
    cases = [(term, example_grid) for nf in families for term in nf.terms]
    cases += [(term, grid) for nf in rank_two_block_families(grid, 1.0, 0.25)
              + oblique_families(grid, 1.0, 0.25) for term in nf.terms]
    vanishing = vanishing_center_terms(grid, 5.0, 0.5)
    cases += [(term, grid) for term in vanishing]
    for term, at in cases:
        for t in at:
            assert term.at(t)[1] == unscreened_peak(term, t)
    assert [term.at(0.5)[1] for term in vanishing[1:]] == [0.0, 0.0]
    steep = np.abs(screened_stacks(vanishing[1], [2.0], vanishing[1].horizon)[0])
    assert steep[steep > 0.0].min() < 1e-150

    # the screen sends only a part of the lattice maps to the SVD
    sent = []
    monkeypatch.setattr(norms, "opnorms", lambda stack: sent.append(len(stack))
                        or util.opnorms(stack))
    term = families[0].terms[0]
    rebuilt = norms.NormTerm(term.operator, term.tag, term.family, term.rate,
                             term.horizon, term.step, example_grid)
    assert [rebuilt.at(t)[1] for t in example_grid] == [term.at(t)[1] for t in example_grid]
    lattice = len(norms._future_times(0.0, term.horizon, term.step))
    assert 0 < sum(sent) < len(example_grid) * lattice // 2


def test_run_sends_each_grid_pair_norm_of_u_and_w_to_the_svd_once(monkeypatch):
    """On the nonuniform example (G=21) every off-diagonal grid pair's U, W_2
    and W_3 reaches the SVD once per run: the checks and factor tables read
    the norms kept beside them. numpy's spectral norm takes its SVD through
    ``numpy.linalg._linalg.svd``, which is wrapped here."""
    example = parse_scenario(SCENARIOS / "nonuniform_example.json")
    grid = make_grid(example.grid_max, example.grid_step)
    pairs = util.grid_pairs(grid)
    pairs = pairs[pairs[:, 0] > pairs[:, 1]]  # U(t, t) = I at every t
    operator = runner._build_operator(example, grid)
    inverses = build_inverses(operator, example.family)
    want = [m.tobytes() for stack in (operator.evaluate_many(pairs), inverses[2].stack(pairs),
                                      inverses[3].stack(pairs)) for m in stack]
    assert len(set(want)) == len(want) == 3 * 210
    sent = Counter()
    svd = np.linalg._linalg.svd

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        sent.update(m.tobytes() for m in a.reshape(-1, *a.shape[-2:]))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg._linalg, "svd", counting)
    assert run(example).overall == "pass"
    assert [sent[m] for m in want] == [1] * len(want)
