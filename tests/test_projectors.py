import math
from pathlib import Path

import numpy as np
import pytest

from tricho import (EvolutionOperator, GeneratorSpec, GrowthRate,
                    NotStronglyInvariantError, ProjectorFamily, StructuralError,
                    build_inverses, check_compatible, check_inverse_properties,
                    check_invariance, check_orthogonal,
                    compute_restricted_inverse, from_generator,
                    identity_operator, parse_scenario, rate_model)
from tricho import projectors, runner
from tricho.evolution import check_cocycle, conjugate
from tricho.util import grid_pairs, make_grid, opnorm

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

E_MINUS_2 = 0.1353352832366127  # frozen reciprocal of e^2

GRID = [0.0, 1.0, 2.5, 4.0]


def diag3(a, b, c):
    return np.diag([float(a), float(b), float(c)])


def test_coordinate_split_is_exactly_orthogonal(split_family):
    report = check_orthogonal(split_family, GRID, 1e-12)
    assert report.passed
    assert report.worst == 0.0


def test_sum_violation_detected():
    family = ProjectorFamily.constant(diag3(1, 0, 0), diag3(1, 0, 0),
                                      diag3(0, 1, 1))
    report = check_orthogonal(family, [0.0], 1e-10)
    assert not report.passed
    assert report.residuals["sum_identity"] == pytest.approx(1.0)


def test_non_idempotent_member_detected():
    family = ProjectorFamily.constant(2 * diag3(1, 0, 0), diag3(0, 1, 0),
                                      diag3(0, 0, 1))
    report = check_orthogonal(family, [0.0], 1e-10)
    assert not report.passed
    # (2E)^2 - 2E = 2E, spectral norm 2
    assert report.residuals["idempotency"] == pytest.approx(2.0)


def test_dimension_mismatch_is_structural():
    family = ProjectorFamily(3, [lambda t: np.eye(2),
                                 lambda t: np.zeros((3, 3)),
                                 lambda t: np.zeros((3, 3))])
    with pytest.raises(StructuralError):
        check_orthogonal(family, [0.0], 1e-10)


def test_invariance_of_model_operator_is_exact(nonuniform_operator, split_family):
    pairs = [(t, s) for t in GRID for s in GRID if t >= s]
    report = check_invariance(split_family, nonuniform_operator, pairs, 1e-12)
    assert report.passed
    assert report.worst == 0.0


def test_identity_operator_commutes(split_family):
    report = check_invariance(split_family, identity_operator(3),
                              [(2.0, 1.0)], 1e-14)
    assert report.passed


def test_rotation_breaks_invariance_of_axis_projector():
    def rot(t, s):
        a = t - s
        return np.array([[math.cos(a), math.sin(a)],
                         [-math.sin(a), math.cos(a)]])

    operator = EvolutionOperator(
        2, lambda pairs: np.array([rot(t, s) for t, s in pairs]))
    family = ProjectorFamily.constant(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                      np.zeros((2, 2)))
    report = check_invariance(family, operator, [(math.pi / 2, 0.0)], 1e-10)
    assert not report.passed
    # U P1 - P1 U at a quarter turn is the antidiagonal of ones
    assert report.residuals["commutation"] == pytest.approx(1.0)


def test_restricted_inverse_scalar_block(uniform_operator, split_family):
    w = compute_restricted_inverse(uniform_operator, split_family, 2, 1.0, 0.0)
    np.testing.assert_allclose(w, E_MINUS_2 * np.diag([0.0, 1.0, 0.0]),
                               rtol=1e-14, atol=1e-16)


def test_restricted_inverse_equal_times_is_projector(uniform_operator, split_family):
    for j in (2, 3):
        w = compute_restricted_inverse(uniform_operator, split_family, j, 3.0, 3.0)
        np.testing.assert_allclose(w, split_family.member(j, 3.0), atol=1e-14)


def collapse_operator():
    return EvolutionOperator(3, lambda pairs: np.array(
        [np.eye(3) if t == s else np.diag([1.0, 0.0, 1.0]) for t, s in pairs]))


def test_rank_collapse_raises():
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    with pytest.raises(NotStronglyInvariantError):
        compute_restricted_inverse(collapse_operator(), family, 2, 1.0, 0.0)


def test_compatible_on_model_operator(uniform_operator, split_family):
    report = check_compatible(split_family, uniform_operator, GRID, 1e-10)
    assert report.passed
    assert report.worst <= 1e-14


def test_compatible_fails_on_collapse(split_family):
    report = check_compatible(split_family, collapse_operator(), GRID, 1e-10)
    assert not report.passed
    assert report.notes  # the rank failure is recorded, not raised


def test_zero_third_member_is_vacuously_compatible(exp_rates):
    family = ProjectorFamily.constant(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                      np.zeros((2, 2)))
    u = GrowthRate.constant(20.0)
    operator = rate_model(u, exp_rates["h"], exp_rates["k"], exp_rates["mu"],
                          exp_rates["nu"], family)
    report = check_compatible(family, operator, GRID, 1e-10)
    assert report.passed


@pytest.mark.parametrize("j", [2, 3])
def test_inverse_identities_model_operator(nonuniform_operator, split_family, j):
    report = check_inverse_properties(nonuniform_operator, split_family, j,
                                      make_grid(5.0, 0.5), 1e-10)
    assert report.passed, report.residuals


@pytest.mark.parametrize("j", [2, 3])
def test_inverse_identities_ode_operator(split_family, j):
    grid = make_grid(5.0, 0.5)
    gen = GeneratorSpec.constant(np.diag([-1.0, 2.0, 0.25]), 1e-3)
    operator = from_generator(gen, anchors=grid)
    report = check_inverse_properties(operator, split_family, j, grid, 1e-10)
    assert report.passed, report.residuals


def test_inverse_range_containment_oblique():
    # oblique (non-orthogonal) projectors still admit restricted inverses
    p1 = np.array([[1.0, 1.0], [0.0, 0.0]])
    p2 = np.eye(2) - p1
    family = ProjectorFamily.constant(np.zeros((2, 2)), p2, np.zeros((2, 2)))
    operator = EvolutionOperator(
        2, lambda pairs: np.array([np.eye(2) * math.exp(t - s) for t, s in pairs]))
    w = compute_restricted_inverse(operator, family, 2, 2.0, 1.0)
    assert opnorm(w - p2 @ w) <= 1e-12
    assert opnorm(operator.evaluate(2.0, 1.0) @ w - p2) <= 1e-12


def test_inverses_cache_is_shared(monkeypatch, split_family, exp_rates):
    # a fresh operator, so that no other test has stored its W yet
    operator = rate_model(GrowthRate.constant(80.0), exp_rates["h"],
                          exp_rates["k"], exp_rates["mu"], exp_rates["nu"],
                          split_family)
    computed = []
    compute = projectors.restricted_inverses

    def counted(operator, family, index, pairs):
        computed.extend((index, t, s) for t, s in pairs)
        return compute(operator, family, index, pairs)

    monkeypatch.setattr(projectors, "restricted_inverses", counted)
    inv = build_inverses(operator, split_family)
    first = inv[2].evaluate(2.0, 1.0)
    assert build_inverses(operator, split_family) is inv
    assert np.array_equal(build_inverses(operator, split_family)[2]
                          .evaluate(2.0, 1.0), first)
    assert computed == [(2, 2.0, 1.0)]
    assert check_compatible(split_family, operator, [0.0, 1.0, 2.0], 1e-10).passed
    assert len(computed) == len(set(computed)) == 2 * 6


def test_batched_inverse_identities_match_per_triple_loop():
    # rank-2 unstable block that rotates, so U and W do not commute blockwise
    a = np.diag([-1.5, 2.5, 2.5, 0.0])
    a[1, 2], a[2, 1] = 1.0, -1.0
    grid = make_grid(2.0, 0.5)
    operator = from_generator(GeneratorSpec.constant(a, 0.05), anchors=grid[::2])
    family = ProjectorFamily.coordinate_split(1, 2, 1)
    for j in (2, 3):
        want = {key: 0.0 for key in ("right_inverse", "left_inverse",
                                     "cocycle", "range", "equal_time")}
        for t in grid:
            want["equal_time"] = max(want["equal_time"], opnorm(
                compute_restricted_inverse(operator, family, j, t, t)
                - family.member(j, t)))
        for i, t in enumerate(grid):
            for k, s in enumerate(grid[:i + 1]):
                w = compute_restricted_inverse(operator, family, j, t, s)
                u = operator.evaluate(t, s)
                p_t, p_s = family.member(j, t), family.member(j, s)
                for key, value in (("right_inverse", opnorm(u @ w - p_t)),
                                   ("left_inverse", opnorm(w @ u @ p_s - p_s)),
                                   ("range", opnorm(w - p_s @ w))):
                    want[key] = max(want[key], value)
                for t0 in grid[:k + 1]:
                    want["cocycle"] = max(want["cocycle"], opnorm(
                        compute_restricted_inverse(operator, family, j, t, t0)
                        - compute_restricted_inverse(operator, family, j, s, t0)
                        @ w))
        report = check_inverse_properties(operator, family, j, grid, 1e-9)
        assert report.residuals == want
        assert report.passed


S = np.array([[0.0, 1.0, 0.3], [-1.0, 0.0, 0.5], [-0.3, -0.5, 0.0]])  # skew


def rotating_frame(times) -> np.ndarray:
    """Q(t) = expm(t S) in Rodrigues' form, I + sin(θt)/θ S + (1 - cos(θt))/θ² S²
    with θ = |S|_F / sqrt(2), over an array of times as an (m, 3, 3) stack."""
    theta = math.sqrt(1.0 + 0.09 + 0.25)
    t = np.asarray(times, dtype=float)[:, None, None]
    return (np.eye(3) + np.sin(theta * t) / theta * S
            + (1.0 - np.cos(theta * t)) / theta ** 2 * (S @ S))


def test_structural_checks_pass_in_a_rotating_frame():
    """The nonuniform example moved into the frame Q(t): U'(t, s) = Q(t) U(t, s)
    Q(s)^T and P'_j(t) = Q(t) P_j Q(t)^T are the same system in other
    coordinates. |U| reaches 4.4e7 on this grid, so residuals that are not
    relative to it read rounding times |U| (invariance 7.7e-9 and
    compatibility up to 2.0e-9 against tol 1e-10)."""
    scenario = parse_scenario(SCENARIOS / "nonuniform_example.json")
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    q = rotating_frame([1.0, 2.5, 3.5])  # orthogonal, and Q(1) Q(2.5) = Q(3.5)
    assert np.allclose(q @ np.swapaxes(q, 1, 2), np.eye(3), 0, 1e-14)
    assert np.allclose(q[0] @ q[1], q[2], 0, 1e-14) and len(grid) == 21
    operator = conjugate(runner._build_operator(scenario, grid), rotating_frame)
    family = ProjectorFamily(3, [
        lambda t, j=j: (lambda q: q @ scenario.family.member(j, 0.0) @ q.T)(
            rotating_frame([t])[0]) for j in (1, 2, 3)])
    tol = scenario.tol_structural
    assert tol == 1e-10
    invariance = check_invariance(family, operator, grid_pairs(grid), tol)
    compatibility = check_compatible(family, operator, grid, tol)
    for report in (invariance, compatibility, check_cocycle(operator, grid, tol)):
        assert report.passed, report.residuals
    assert max(*invariance.residuals.values(), *compatibility.residuals.values()) < 1e-14
