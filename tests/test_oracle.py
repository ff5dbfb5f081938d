"""tricho against the closed forms of ``oracle``, and the oracle against
itself: its ``expm`` against the eigendecomposition, its factor formulas
against the norms of the maps ``expm`` gives, and the shipped scenarios'
factor tables against their closed forms."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from tricho import parse_scenario, runner
from tricho.scenario import read_tree
from tricho.trichotomy import factor_table
from tricho.util import grid_pairs, make_grid

from oracle import (SETTINGS, constant_factors, constant_systems, diagonal_factors, evolution,
                    expm, family_members)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EPS = np.finfo(float).eps


def test_expm_of_known_matrices():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), rtol=0, atol=EPS)
    np.testing.assert_allclose(expm(np.array([[0.0, 1.0], [0.0, 0.0]])),
                               [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=4 * EPS)
    theta = 20.0  # 1-norm 20: two squarings
    c, s = math.cos(theta), math.sin(theta)
    np.testing.assert_allclose(expm(np.array([[0.0, theta], [-theta, 0.0]])),
                               [[c, s], [-s, c]], rtol=0, atol=1e-14)
    # three squarings, each doubling the relative error of e^{30/8}: 3.4e-14
    np.testing.assert_allclose(expm(np.diag([-30.0, 0.5, 30.0])),
                               np.diag(np.exp([-30.0, 0.5, 30.0])), rtol=1e-13, atol=1e-26)


@SETTINGS
@given(constant_systems())
def test_expm_matches_the_eigendecomposition_within_1e_10(system):
    """Norm-wise relative. ``expm`` reads A = V D V^-1 as rounded, which
    alone moves e^{At} by about cond(V) eps t |A| relative; the worst seen
    over 1,000 draws of the strategy is 7.1e-12."""
    v, d, _, t = system
    want = evolution(v, d, t, 0.0)
    got = expm((v * d) @ np.linalg.inv(v) * t)
    assert np.linalg.norm(got - want, 2) <= 1e-10 * np.linalg.norm(want, 2)


@SETTINGS
@given(constant_systems())
def test_closed_form_factors_are_norms_of_the_maps_expm_gives(system):
    """Full factors: q |e^{A tau} P_j| for the decay tags and q |e^{-A tau} P_j|
    for the growth tags, each within 1e-10 of q |e^{+-A tau}| |P_j|. A
    projected factor never exceeds its full one: the basis Q of Range P_j
    has P_j Q = Q and |Q| = 1."""
    v, d, sizes, t = system
    exponents = (1.0, 2.0, 0.5, 0.25)
    pairs = [(t, 0.0), (t, t / 3)]
    full = constant_factors(v, d, sizes, exponents, pairs, full=True)
    projected = constant_factors(v, d, sizes, exponents, pairs)
    assert (projected <= full * (1.0 + 1e-12)).all()
    a, p = (v * d) @ np.linalg.inv(v), family_members(v, sizes)
    h, k, mu, nu = exponents
    for row, (t, s) in enumerate(pairs):
        tau = t - s
        forward, backward = expm(a * tau), expm(-a * tau)
        for col, (u, j, q) in enumerate(((forward, 0, math.exp(h * tau)),
                                         (backward, 1, math.exp(k * tau)),
                                         (forward, 2, math.exp(-mu * tau)),
                                         (backward, 2, math.exp(-nu * tau)))):
            scale = q * np.linalg.norm(u, 2) * np.linalg.norm(p[j], 2)
            assert abs(q * np.linalg.norm(u @ p[j], 2) - full[row, col]) <= 1e-10 * scale


def rate_model_quotients(scenario, pairs) -> np.ndarray:
    """The closed-form factors of the rate model of exponential h, k, mu, nu
    and outer rate u(t) = t + 1, in ``INEQUALITIES`` order: u(s)/u(t),
    u(t)/u(s), u(s)/u(t) nu(s)/nu(t) and u(t)/u(s) mu(s)/mu(t). The inner
    rates cancel but for the center's second one, and both center members
    share P3."""
    t, s = pairs.T
    mu, nu = (scenario.rates[key].exponent for key in ("mu", "nu"))
    assert scenario.rates["u"].kind == "polynomial" and scenario.rates["u"].exponent == 1.0
    down, up = (s + 1.0) / (t + 1.0), (t + 1.0) / (s + 1.0)
    return np.stack((down, up, down * np.exp(-nu * (t - s)), up * np.exp(-mu * (t - s))), axis=1)


@pytest.mark.parametrize("step", [None, 0.1], ids=["own_step", "step_0.1"])
@pytest.mark.parametrize("full", [False, True], ids=["projected", "full"])
def test_rate_model_factors_are_the_closed_form_quotients(step, full):
    """Within 4 eps relative: each factor is a product of three or four
    rounded quotients, each within about an ulp. Measured: 2.2 eps."""
    scenario = parse_scenario(SCENARIOS / "nonuniform_example.json")
    grid = make_grid(scenario.grid_max, step or scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    got = factor_table(operator, scenario.family, scenario.rates, grid, full)
    want = rate_model_quotients(scenario, grid_pairs(grid))
    assert (np.abs(got - want) <= 4 * EPS * want).all()


@pytest.mark.parametrize("full", [False, True], ids=["projected", "full"])
def test_periodic_ode_factors_match_the_closed_form_within_1e_6(full):
    """A(t) = diag(b + a cos(w t)) integrates to
    U_kk(t, s) = exp(b_k (t - s) + (a_k / w)(sin w t - sin w s)). At RK4 step
    0.01 every factor is within 8.3e-8 relative of it."""
    path = SCENARIOS / "ode_periodic_example.json"
    scenario, builtin = parse_scenario(path), read_tree(path)["operator"]["builtin"]
    b, a, omega = (np.array(builtin[key]) for key in ("base", "amplitude", "omega"))
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    pairs = grid_pairs(grid)
    t, s = pairs[:, :1], pairs[:, 1:]
    diagonal = np.exp(b * (t - s) + a / omega * (np.sin(omega * t) - np.sin(omega * s)))
    h, k, mu, nu = (scenario.rates[key].exponent for key in ("h", "k", "mu", "nu"))
    quotients = np.exp(np.array([h, k, -mu, -nu]) * (t - s))
    want = diagonal_factors(diagonal, quotients)
    got = factor_table(runner._build_operator(scenario, grid), scenario.family,
                       scenario.rates, grid, full)
    assert (np.abs(got - want) <= 1e-6 * want).all()
