"""tricho against the closed forms of ``oracle``, and the oracle against
itself: its ``expm`` against the eigendecomposition, its factor formulas
against the norms of the maps ``expm`` gives, and the factor tables of the
shipped scenarios, of generators across a rate gap and of the strategy's
constant systems against their closed forms."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from tricho import (GeneratorSpec, GrowthRate, ProjectorFamily, from_generator, parse_scenario,
                    run, runner, scenario_from_tree)
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


RATE_GAP = np.array([-1.5, -1.6, -1.7, 2.5, 2.6, 2.7, 0.0, 0.05])  # stable, unstable, center


def gap_case(v: np.ndarray, bound: float) -> tuple:
    """(V, d, sizes, tree): the rate-gap generator V diag(RATE_GAP) V^-1 at
    RK4 step 0.05, its family V E_j V^-1 on the blocks (3, 3, 2), and the
    other keys of ``ode_periodic_example.json`` with structural tolerance
    1e-6 and ``bounds.uniform`` ``bound``."""
    sizes = (3, 3, 2)
    tree = read_tree(SCENARIOS / "ode_periodic_example.json")
    tree.update(dimension=8, bounds={"uniform": bound}, projectors={
        "type": "explicit", "matrices": [p.tolist() for p in family_members(v, sizes)]})
    tree["operator"] = {"type": "ode", "step": 0.05,
                        "matrix": ((v * RATE_GAP) @ np.linalg.inv(v)).tolist()}
    tree["tolerances"]["structural"] = 1e-6
    return v, RATE_GAP, sizes, tree


def heat_case() -> tuple:
    """(V, d, sizes, tree) of ``heat_galerkin_example.json``: A = Q diag(4 - k^2) Q
    in 8 sine modes, Q_ik = sqrt(2/9) sin(i k pi / 9) symmetric and orthogonal,
    with modes 3-8 stable, mode 1 unstable and mode 2 central."""
    k = np.arange(1, 9)
    order = [2, 3, 4, 5, 6, 7, 0, 1]
    v = (math.sqrt(2 / 9) * np.sin(np.outer(k, k) * math.pi / 9))[:, order]
    tree = read_tree(SCENARIOS / "heat_galerkin_example.json")
    return v, (4.0 - k ** 2.0)[order], (6, 1, 1), tree


RATE_GAP_CASES = {  # ROADMAP item 8's cases A, B and C
    "oblique": lambda: gap_case(np.eye(8) + 0.3 * np.random.default_rng(7).standard_normal((8, 8)),
                                25.0),
    "orthogonal": lambda: gap_case(
        np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))[0], 25.0),
    "heat": heat_case,
}


@pytest.mark.parametrize("case", RATE_GAP_CASES)
def test_factors_keep_their_accuracy_across_a_rate_gap(case):
    """Every projected and full factor within 1e-4 of the closed form,
    relative to the factor, not to |U|: each member's block is integrated in
    its own frame, so no rounding of the unstable range, grown by e^{gap t},
    reaches the stable one. Measured: 4.6e-5 (oblique and orthogonal, step
    0.05) and 2.7e-6 (heat, step 0.01); U P_j formed in the full space reads
    5.5e4, 2.2e2 and 4.5e19 off."""
    v, d, sizes, tree = RATE_GAP_CASES[case]()
    scenario = scenario_from_tree(tree)
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    for full in (False, True):
        got = factor_table(operator, scenario.family, scenario.rates, grid, full)
        want = constant_factors(v, d, sizes, (1.0, 2.0, 0.5, 0.25), grid_pairs(grid), full)
        assert (np.abs(got - want) <= 1e-4 * want).all()
    checks = {c["name"]: c for c in run(scenario).checks}
    assert all(checks[name]["status"] == "pass" for name in ("uniform", "trichotomy_full", "norms"))
    assert checks["uniform"]["payload"]["uniform_constant"] == pytest.approx(1.0, rel=1e-4)


STEP = 0.05


@SETTINGS
@given(constant_systems())
def test_constant_generator_factors_match_the_closed_form(system):
    """The factor tables of a constant ``from_generator`` operator on
    ``family_members``, relative to each factor, within twice cond(V) times
    RK4's leading error over the longest pair, t h^4 max|d|^5 / 120 at step
    h, plus 1e-10 for rounding. RK4 on a block B = R D_J R^-1 is R times
    RK4 on D_J times R^-1, so cond(V) carries its eigenvalues' relative
    error into a factor. Measured: 0.57 of the bound with it truncated, 1.8e-12
    where rounding dominates."""
    v, d, sizes, t = system
    grid = [0.0, t / 2, t]
    operator = from_generator(GeneratorSpec.constant((v * d) @ np.linalg.inv(v), STEP),
                              anchors=grid)
    family = ProjectorFamily.constant(*family_members(v, sizes))
    rates = {key: GrowthRate.exponential(a) for key, a in zip("h k mu nu".split(),
                                                                (1.0, 2.0, 0.5, 0.25))}
    bound = 2 * np.linalg.cond(v) * t * STEP ** 4 * np.abs(d).max() ** 5 / 120 + 1e-10
    for full in (False, True):
        got = factor_table(operator, family, rates, grid, full)
        want = constant_factors(v, d, sizes, (1.0, 2.0, 0.5, 0.25), grid_pairs(grid), full)
        assert (np.abs(got - want) <= bound * want).all()
