"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The whole suite is required to finish well under a minute on a desktop
machine; the structural portion under a second and the grid-reproduction
portion under ten.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from tricho import (GeneratorSpec, GrowthRate, ProjectorFamily,
                    build_norm_family, check_compatibility, check_cocycle,
                    check_identity, check_inverse_properties, check_orthogonal,
                    check_rate_specialization, check_trichotomy, check_uniform,
                    emit, from_generator, parse_scenario, rate_model, run,
                    verify_norm_trichotomy, verify_sufficiency)
from tricho.util import make_grid

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
HORIZON = 5.0
STEP = 0.5


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def norm_stacks(uniform_operator, nonuniform_operator, split_family, exp_rates,
                grid10):
    """Both norm variants for both model-operator variants, built once."""
    out = {}
    for key, operator in (("uniform", uniform_operator),
                          ("nonuniform", nonuniform_operator)):
        fwd = build_norm_family("forward", operator, split_family, exp_rates,
                                HORIZON, STEP, grid10, samples=32, seed=2024)
        bwd = build_norm_family("backward", operator, split_family, exp_rates,
                                HORIZON, STEP, grid10, samples=32, seed=2024)
        out[key] = (fwd, bwd)
    return out


def test_criterion_1_structural_suite(split_family, nonuniform_operator, grid10):
    started = time.perf_counter()
    ortho = check_orthogonal(split_family, grid10, 1e-12)
    ident = check_identity(nonuniform_operator, grid10, 1e-12)
    cocyc = check_cocycle(nonuniform_operator, grid10, 1e-12)
    elapsed = time.perf_counter() - started
    ok = ortho.passed and ident.passed and cocyc.passed and elapsed < 1.0
    _verdict(1, ok,
             f"orthogonality {ortho.worst:.2e}, identity {ident.worst:.2e}, "
             f"cocycle {cocyc.worst:.2e}, runtime {elapsed:.2f}s (< 1 s)")


def test_criterion_2_inverse_identity_suite(split_family, nonuniform_operator):
    grid = make_grid(5.0, 0.5)
    gen = GeneratorSpec.constant(np.diag([-1.0, 2.0, 0.25]), 1e-3)
    ode_operator = from_generator(gen, anchors=grid)

    worst = 0.0
    ok = True
    for operator in (nonuniform_operator, ode_operator):
        for j in (2, 3):
            report = check_inverse_properties(operator, split_family, j,
                                              grid, 1e-10)
            ok = ok and report.passed
            worst = max(worst, report.worst)
    triples = len(grid) * (len(grid) + 1) * (len(grid) + 2) // 6
    _verdict(2, ok, f"inverse identities on model + ODE operators, "
                    f"all {triples} grid triples, worst residual {worst:.2e} "
                    f"(<= 1e-10)")


def test_criterion_3_nonuniform_reproduction(nonuniform_operator, split_family,
                                             exp_rates):
    started = time.perf_counter()
    bounded = check_trichotomy(nonuniform_operator, split_family, exp_rates,
                               make_grid(10.0, 0.5),
                               bound=lambda a: 3.0 * (a + 1.0))
    constants = {}
    for t_max in (5.0, 10.0, 20.0):
        report = check_uniform(nonuniform_operator, split_family, exp_rates,
                               make_grid(t_max, 0.5))
        constants[t_max] = report.uniform_constant
    elapsed = time.perf_counter() - started
    ok = (bounded.passed
          and all(constants[t] >= t + 0.9 for t in constants)
          and elapsed < 10.0)
    _verdict(3, ok,
             f"3(a+1) bound passed={bounded.passed}, uniform constants "
             f"{ {k: round(v, 2) for k, v in constants.items()} } "
             f"(each >= T+0.9), runtime {elapsed:.2f}s (< 10 s)")


def test_criterion_4_norm_necessity(norm_stacks):
    details = []
    ok = True
    for key, (fwd, bwd) in norm_stacks.items():
        sens = max(fwd.horizon_delta_rel, bwd.horizon_delta_rel)
        report = verify_norm_trichotomy(fwd, bwd, tol=1e-9)
        ok = ok and report.passed and sens < 1e-6
        details.append(f"{key}: min margin {report.min_margin:.2e} >= "
                       f"-(1e-9 + {report.truncation_slack:.1e}), "
                       f"sensitivity {sens:.1e}")
    _verdict(4, ok, "; ".join(details))


def test_criterion_5_sufficiency_loop(norm_stacks):
    details = []
    ok = True
    for key, (fwd, bwd) in norm_stacks.items():
        report = verify_sufficiency(fwd, bwd)
        ok = ok and bool(report.passed)
        details.append(f"{key}: envelope {report.envelope[-1]:.2f} <= "
                       f"bound {report.bound_values[-1]:.2f}")
    _verdict(5, ok, "measured-constant bound dominates the projected system "
                    f"({'; '.join(details)})")


def test_criterion_6_uniform_theorem(norm_stacks, uniform_operator,
                                     split_family, exp_rates, grid10):
    fwd, bwd = norm_stacks["uniform"]
    compat_f = check_compatibility(fwd)
    compat_b = check_compatibility(bwd)
    c = max(compat_f.c_uniform, compat_b.c_uniform)
    margins = verify_norm_trichotomy(fwd, bwd, tol=1e-9)
    classified = check_uniform(uniform_operator, split_family, exp_rates,
                               grid10, constant=3.0)
    ok = (compat_f.passed and compat_b.passed and c <= 3.0
          and margins.passed and classified.passed
          and classified.uniform_constant <= 3.0)
    _verdict(6, ok, f"uniformly compatible with c = {c:.3f} <= 3, norm system "
                    f"margins hold, uniform constant "
                    f"{classified.uniform_constant:.3f} <= 3")


def test_criterion_7_rate_specializations(uniform_operator, split_family,
                                          exp_rates, grid10):
    exp_report = check_rate_specialization(
        "exponential", (1.0, 2.0, 0.5, 0.25), uniform_operator, split_family,
        grid10, HORIZON, STEP, tol=1e-9, samples=16, seed=2024)

    poly = GrowthRate.polynomial
    poly_operator = rate_model(GrowthRate.constant(40.0), poly(1.0), poly(2.0),
                               poly(0.5), poly(0.25), split_family)
    poly_report = check_rate_specialization(
        "polynomial", (1.0, 2.0, 0.5, 0.25), poly_operator, split_family,
        grid10, HORIZON, STEP, tol=1e-9, samples=16, seed=2024)

    di_family = ProjectorFamily.constant(np.diag([1.0, 0.0]),
                                         np.diag([0.0, 1.0]),
                                         np.zeros((2, 2)))
    di_operator = rate_model(GrowthRate.constant(40.0), exp_rates["h"],
                             exp_rates["k"], exp_rates["mu"], exp_rates["nu"],
                             di_family)
    di_report = check_rate_specialization(
        "exponential", (1.0, 2.0, 0.5, 0.25), di_operator, di_family,
        grid10, HORIZON, STEP, tol=1e-9, samples=16, seed=2024)
    center = [r for r in di_report.records
              if r["tag"] in ("center_growth", "center_decay")]

    ok = (exp_report.passed and poly_report.passed and di_report.passed
          and bool(center) and all(r["vacuous"] for r in center))
    _verdict(7, ok, f"exponential margin {exp_report.min_margin:.1e}, "
                    f"polynomial margin {poly_report.min_margin:.1e}, "
                    f"dichotomy passes with {len(center)} vacuous center rows")


def test_criterion_8_determinism(tmp_path):
    paths = {}
    for label in ("first", "second"):
        scenario = parse_scenario(SCENARIOS / "uniform_example.json")
        report = run(scenario)
        paths[label] = emit(report, "both", tmp_path / label)
    pairs = list(zip(paths["first"], paths["second"]))
    ok = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    _verdict(8, ok, f"two runs, {len(pairs)} report files byte-identical")
