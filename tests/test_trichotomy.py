import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricho import (GrowthRate, EvolutionOperator, GeneratorSpec,
                    PreconditionError, ProjectorFamily, build_inverses,
                    check_dichotomy, check_trichotomy, check_trichotomy_full,
                    check_uniform, conjugate, from_generator, identity_operator,
                    rate_model, required_factor)
from tricho.trichotomy import INEQUALITIES, TERMS, factor_table
from tricho.util import grid_pairs, make_grid, opnorms, range_basis


def test_stable_factor_is_outer_quotient(nonuniform_operator, split_family, exp_rates):
    got = required_factor(nonuniform_operator, split_family, exp_rates,
                          1.0, 0.0, "stable_decay")
    assert got == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("t", [1.0, 4.0, 9.0])
def test_unstable_factor_grows_like_outer_rate(nonuniform_operator, split_family,
                                               exp_rates, t):
    got = required_factor(nonuniform_operator, split_family, exp_rates,
                          t, 0.0, "unstable_growth")
    assert got == pytest.approx(t + 1.0, rel=1e-12)


def test_equal_time_factors_are_one(nonuniform_operator, split_family, exp_rates):
    for tag in ("stable_decay", "unstable_growth", "center_growth",
                "center_decay"):
        got = required_factor(nonuniform_operator, split_family, exp_rates,
                              2.0, 2.0, tag)
        assert got == pytest.approx(1.0, rel=1e-12)


def test_unstable_factor_matches_direct_svd_route(nonuniform_operator,
                                                  split_family, exp_rates):
    # independent oracle: smallest singular value of the forward restriction
    t, s = 3.5, 1.0
    basis_s = range_basis(split_family.member(2, s))
    sigma = np.linalg.svd(nonuniform_operator.evaluate(t, s) @ basis_s,
                          compute_uv=False)
    oracle = exp_rates["k"].ratio(t, s) / sigma[-1]
    got = required_factor(nonuniform_operator, split_family, exp_rates,
                          t, s, "unstable_growth")
    assert got == pytest.approx(oracle, rel=1e-10)


def test_center_decay_factor_matches_direct_svd_route(nonuniform_operator,
                                                      split_family, exp_rates):
    t, s = 5.0, 2.0
    basis_s = range_basis(split_family.member(3, s))
    sigma = np.linalg.svd(nonuniform_operator.evaluate(t, s) @ basis_s,
                          compute_uv=False)
    oracle = exp_rates["nu"].ratio(s, t) / sigma[-1]
    got = required_factor(nonuniform_operator, split_family, exp_rates,
                          t, s, "center_decay")
    assert got == pytest.approx(oracle, rel=1e-10)


def test_affine_bound_passes(nonuniform_operator, split_family, exp_rates, grid10):
    report = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                              grid10, bound=lambda a: 3.0 * (a + 1.0))
    assert report.passed
    assert report.uniform_constant == pytest.approx(11.0, rel=1e-12)


def test_constant_bound_fails_on_long_grid(nonuniform_operator, split_family,
                                           exp_rates):
    grid = make_grid(20.0, 0.5)
    report = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                              grid, bound=lambda a: 10.0)
    assert report.passed is False
    assert report.envelope[-1] == pytest.approx(21.0, rel=1e-12)


def test_identity_operator_flat_envelope():
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    one = GrowthRate.constant(20.0)
    rates = {"h": one, "k": one, "mu": one, "nu": one}
    report = check_trichotomy(identity_operator(3), family, rates,
                              make_grid(10.0, 1.0))
    assert all(v == pytest.approx(1.0) for v in report.envelope)
    assert report.passed is None  # no bound supplied, evidence only


def test_envelope_is_monotone_and_floored(nonuniform_operator, split_family,
                                          exp_rates, grid10):
    report = check_trichotomy(nonuniform_operator, split_family, exp_rates, grid10)
    env = report.envelope
    assert all(b >= a for a, b in zip(env, env[1:]))
    assert all(v >= 1.0 for v in env)
    assert report.uniform_constant == env[-1]


def test_fullnorm_envelope_within_projector_factor(nonuniform_operator,
                                                   split_family, exp_rates,
                                                   grid10):
    projected = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                                 grid10)
    full = check_trichotomy_full(nonuniform_operator, split_family, exp_rates,
                                 grid10)
    # orthonormal members: the two systems need the same bounding function,
    # and in general full <= 3 * projected
    np.testing.assert_allclose(full.envelope, projected.envelope, rtol=1e-12)
    assert all(f <= 3.0 * p + 1e-12
               for f, p in zip(full.envelope, projected.envelope))


@pytest.mark.parametrize("t_max", [5.0, 10.0, 20.0])
def test_uniform_constant_tracks_grid_length(nonuniform_operator, split_family,
                                             exp_rates, t_max):
    report = check_uniform(nonuniform_operator, split_family, exp_rates,
                           make_grid(t_max, 0.5))
    assert report.uniform_constant >= t_max + 0.9
    assert report.basis == "grid-evidence"


def test_uniform_constant_with_constant_outer_rate(uniform_operator,
                                                   split_family, exp_rates,
                                                   grid10):
    report = check_uniform(uniform_operator, split_family, exp_rates, grid10,
                           constant=1.0)
    assert report.uniform_constant == pytest.approx(1.0, abs=1e-12)
    assert report.passed


def test_uniform_identity_scenario():
    one = GrowthRate.constant(20.0)
    rates = {"h": one, "k": one, "mu": one, "nu": one}
    report = check_uniform(identity_operator(2),
                           ProjectorFamily.coordinate_split(1, 1, 0),
                           rates, make_grid(5.0, 1.0))
    assert report.uniform_constant == pytest.approx(1.0)


def test_uniform_constant_bounds_projected_system(nonuniform_operator,
                                                  split_family, exp_rates,
                                                  grid10):
    uniform = check_uniform(nonuniform_operator, split_family, exp_rates,
                            grid10)
    const = uniform.uniform_constant
    report = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                              grid10, bound=lambda a: const)
    assert report.passed


def test_uniform_and_trichotomy_agree_on_a_constant_bound(nonuniform_operator,
                                                          split_family, exp_rates,
                                                          grid10):
    # a constant just under the uniform constant 11, inside the absolute
    # slack of 1e-12 that the trichotomy pass rule adds to its relative one
    c = (11.0 - 0.5e-12) / (1.0 + 1e-9)
    uniform = check_uniform(nonuniform_operator, split_family, exp_rates, grid10, c)
    bounded = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                               grid10, bound=lambda a: c)
    assert uniform.uniform_constant == 11.0
    assert uniform.passed == bounded.passed is True


def test_refining_grid_never_lowers_envelope(nonuniform_operator, split_family,
                                             exp_rates):
    coarse = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                              make_grid(10.0, 2.0))
    fine = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                            make_grid(10.0, 1.0))
    for t, value in zip(coarse.grid, coarse.envelope):
        i = fine.grid.index(t)
        assert fine.envelope[i] >= value - 1e-12


def test_factors_invariant_under_orthogonal_conjugation(nonuniform_operator,
                                                        exp_rates, rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated_family = ProjectorFamily.constant(
        *(q @ np.diag([float(i == j) for i in range(3)]) @ q.T for j in range(3)))
    rotated = conjugate(nonuniform_operator,
                        lambda times: np.broadcast_to(q, (len(times), 3, 3)))
    grid = make_grid(6.0, 1.0)
    base = check_trichotomy(nonuniform_operator,
                            ProjectorFamily.coordinate_split(1, 1, 1),
                            exp_rates, grid)
    moved = check_trichotomy(rotated, rotated_family, exp_rates, grid)
    for a, b in zip(base.records, moved.records):
        assert b["factor"] == pytest.approx(a["factor"], rel=1e-10, abs=1e-10)


def dichotomy_fixture(exp_rates):
    family = ProjectorFamily.constant(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                      np.zeros((2, 2)))
    u = GrowthRate.polynomial(1.0)
    operator = rate_model(u, exp_rates["h"], exp_rates["k"], exp_rates["mu"],
                          exp_rates["nu"], family)
    return family, operator


def test_dichotomy_matches_trichotomy_stable_unstable_rows(exp_rates, grid10):
    family, operator = dichotomy_fixture(exp_rates)
    rates_hk = {"h": exp_rates["h"], "k": exp_rates["k"]}
    report = check_dichotomy(operator, family, rates_hk, grid10)
    assert report.label == "dichotomy"
    tri = check_trichotomy(operator, family, exp_rates, grid10)
    for a, b in zip(report.records, tri.records):
        assert a["factor"] == pytest.approx(b["factor"], abs=1e-14)
    center = [r for r in report.records
              if r["tag"] in ("center_growth", "center_decay")]
    assert center and all(r["factor"] == 0.0 for r in center)


def test_uniform_exponential_dichotomy_constant_one():
    family = ProjectorFamily.constant(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                      np.zeros((2, 2)))
    operator = EvolutionOperator(2, lambda pairs: np.array(
        [np.diag([math.exp(-(t - s)), math.exp(t - s)]) for t, s in pairs]))
    e1 = GrowthRate.exponential(1.0)
    report = check_dichotomy(operator, family, {"h": e1, "k": e1},
                             make_grid(8.0, 1.0))
    assert report.uniform_constant == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("as_input", [list, iter])
def test_dichotomy_takes_an_iterator_grid(exp_rates, grid10, as_input):
    family, operator = dichotomy_fixture(exp_rates)
    report = check_dichotomy(operator, family, exp_rates, as_input(grid10))
    want = check_dichotomy(operator, family, exp_rates, grid10)
    assert report.grid == grid10
    assert report.records == want.records


def test_dichotomy_rejects_nonzero_third_member(nonuniform_operator,
                                                split_family, exp_rates):
    with pytest.raises(PreconditionError):
        check_dichotomy(nonuniform_operator, split_family, exp_rates,
                        [0.0, 1.0])


def test_dichotomy_names_the_first_time_member_3_is_nonzero(exp_rates):
    zero, third = np.zeros((2, 2)), np.diag([0.0, 1.0])
    family = ProjectorFamily(2, [lambda t: np.diag([1.0, 0.0]),
                                 lambda t: third if t == 0.0 else zero,
                                 lambda t: zero if t == 0.0 else third])
    operator = identity_operator(2)
    with pytest.raises(PreconditionError, match=r"nonzero at t=0\.5$"):
        check_dichotomy(operator, family, exp_rates, [0.0, 0.5, 1.0])
    with pytest.raises(PreconditionError, match=r"nonzero at t=2$"):
        check_dichotomy(operator, family, exp_rates, [0, 2, 3])
    report = check_dichotomy(operator, family, exp_rates, [0.0])
    assert report.envelope == [1.0]


def test_equal_time_grid_envelope_is_one(exp_rates, grid10):
    family, operator = dichotomy_fixture(exp_rates)
    report = check_dichotomy(operator, family,
                             {"h": exp_rates["h"], "k": exp_rates["k"]}, [2.0])
    assert report.envelope == [1.0]


def test_rank_zero_member_gives_vacuous_factor(exp_rates):
    family, operator = dichotomy_fixture(exp_rates)
    got = required_factor(operator, family, exp_rates, 2.0, 1.0, "center_growth")
    assert got == 0.0


# -- the paper's connections between the systems, as properties -------------

OBLIQUE = np.array([[1.0, -2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)
exponents = st.floats(0.1, 3.0)


@st.composite
def constant_systems(draw):
    """An RK4 operator of a constant generator A = V diag(a) V^-1, anchored on
    a grid of G <= 11 times, with V the identity or ``OBLIQUE``, and the
    family V E_j V^-1: (operator, family, grid)."""
    a = [draw(st.floats(-2.0, -0.5)), draw(st.floats(0.5, 2.5)), draw(st.floats(-0.3, 0.3))]
    v = OBLIQUE if draw(st.booleans()) else np.eye(3)
    v_inv = np.linalg.inv(v)
    grid = make_grid(0.25 * draw(st.integers(1, 10)), 0.25)
    operator = from_generator(GeneratorSpec.constant(v @ np.diag(a) @ v_inv, 0.05),
                              anchors=grid)
    family = ProjectorFamily.constant(*(v @ np.diag(e) @ v_inv for e in np.eye(3)))
    return operator, family, grid


def exponential_rates(h, k, mu, nu):
    return {key: GrowthRate.exponential(a)
            for key, a in zip(("h", "k", "mu", "nu"), (h, k, mu, nu))}


@PROPERTY
@given(constant_systems(), exponents, exponents, exponents, exponents)
def test_full_factors_lie_between_projected_and_member_norm_times_projected(
        system, h, k, mu, nu):
    # |M B| <= |M P_j| <= |M B| |P_j| for B an orthonormal basis of Range P_j,
    # with P_j at s for the decay tags (M = U) and at t for the growth tags
    # (M = W); the oblique family reaches |P_1| = |P_2| = sqrt(5)
    operator, family, grid = system
    rates = exponential_rates(h, k, mu, nu)
    projected, full = (factor_table(operator, family, rates, grid, f) for f in (False, True))
    pairs = grid_pairs(grid)
    for column, (j, _, binds, _) in enumerate(TERMS.values()):
        member = opnorms(family.stack(j, pairs[:, 1 if binds == "s" else 0]))
        assert np.all(projected[:, column] <= full[:, column] * (1.0 + 1e-12))
        assert np.all(full[:, column] <= member * projected[:, column] * (1.0 + 1e-12))


@PROPERTY
@given(constant_systems(), exponents, exponents, exponents, exponents,
       st.floats(0.1, 1.0), st.floats(1.0, 3.0))
def test_a_slower_rate_never_raises_its_factor(system, h, k, mu, nu, lower, higher):
    # h and k divide out growth, mu and nu bound the central drift from both sides
    operator, family, grid = system
    base = factor_table(operator, family, exponential_rates(h, k, mu, nu), grid)
    column = dict(zip(INEQUALITIES, base.T))
    for tag, rates in (("stable_decay", (h * lower, k, mu, nu)),
                       ("unstable_growth", (h, k * lower, mu, nu)),
                       ("center_growth", (h, k, mu * higher, nu)),
                       ("center_decay", (h, k, mu, nu * higher))):
        moved = factor_table(operator, family, exponential_rates(*rates), grid)
        assert np.all(moved[:, INEQUALITIES.index(tag)] <= column[tag])


@PROPERTY
@given(constant_systems(), exponents, exponents, exponents, exponents,
       st.floats(0.5, 2.0))
def test_a_passing_uniform_constant_is_a_passing_trichotomy_bound(
        system, h, k, mu, nu, scale):
    operator, family, grid = system
    rates = exponential_rates(h, k, mu, nu)
    constant = scale * check_uniform(operator, family, rates, grid).uniform_constant
    uniform = check_uniform(operator, family, rates, grid, constant)
    if uniform.passed:
        assert check_trichotomy(operator, family, rates, grid, lambda a: constant).passed
