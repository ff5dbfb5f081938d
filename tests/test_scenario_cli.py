import copy
import csv
import gc
import io
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from tricho import (ProjectorFamily, ScenarioError, emit, parse_scenario, run,
                    scenario_from_tree)
from tricho import norms, runner
from tricho.cli import main
from tricho.reports import (CheckReport, CompatibilityReport, Rows, TheoremReport,
                            TrichotomyReport)
from tricho.scenario import CHECK_NAMES, read_tree
from tricho.util import make_grid

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_tree(**overrides):
    tree = {
        "dimension": 3,
        "operator": {"type": "rate_model"},
        "projectors": {"type": "coordinate_split", "sizes": [1, 1, 1]},
        "rates": {
            "h": {"kind": "exponential", "exponent": 1.0},
            "k": {"kind": "exponential", "exponent": 2.0},
            "mu": {"kind": "exponential", "exponent": 0.5},
            "nu": {"kind": "exponential", "exponent": 0.25},
            "u": {"kind": "tabulated", "table": [[0.0, 1.0], [40.0, 1.0]]},
        },
        "grid": {"t_max": 10.0, "step": 0.5},
        "horizon": 5.0,
        "seed": 7,
        "checks": ["orthogonality"],
    }
    tree.update(overrides)
    return tree


def write_tree(tmp_path, tree, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


def test_minimal_scenario_parses(tmp_path):
    scenario = parse_scenario(write_tree(tmp_path, minimal_tree()))
    assert scenario.dimension == 3
    assert scenario.grid_step == 0.5
    assert scenario.checks == ["orthogonality"]
    assert scenario.samples == 32  # default
    assert isinstance(scenario.family, ProjectorFamily)
    assert scenario.generator is None  # the rate model


def test_checks_key_is_optional():
    tree = minimal_tree()
    del tree["checks"]
    scenario = scenario_from_tree(tree)
    assert scenario.checks == []


def test_zero_step_rejected():
    tree = minimal_tree(grid={"t_max": 10.0, "step": 0.0})
    with pytest.raises(ScenarioError, match="step must be positive"):
        scenario_from_tree(tree)


def test_block_sizes_must_sum_to_dimension():
    tree = minimal_tree(projectors={"type": "coordinate_split",
                                    "sizes": [1, 1, 2]})
    with pytest.raises(ScenarioError, match="sum to dimension"):
        scenario_from_tree(tree)


def test_missing_rate_named():
    tree = minimal_tree()
    del tree["rates"]["mu"]
    with pytest.raises(ScenarioError, match="rates.mu"):
        scenario_from_tree(tree)


def test_unknown_check_rejected():
    with pytest.raises(ScenarioError, match="unknown check"):
        scenario_from_tree(minimal_tree(checks=["spectral_gap"]))


def test_rate_model_requires_outer_rate():
    tree = minimal_tree()
    del tree["rates"]["u"]
    with pytest.raises(ScenarioError, match="rates.u"):
        scenario_from_tree(tree)


def test_rate_instantiation_of_mixed_rates_fails_at_parse():
    tree = minimal_tree(checks=["rate_instantiation"])
    tree["rates"]["h"] = {"kind": "polynomial", "exponent": 1.0}
    with pytest.raises(ScenarioError, match="rate_instantiation"):
        scenario_from_tree(tree)
    tree["rate_instantiation"] = {"kind": "polynomial", "exponents": [1, 2, 0.5, 0.25]}
    assert scenario_from_tree(tree).instantiation == ("polynomial", [1.0, 2.0, 0.5, 0.25])


def test_short_tabulated_span_rejected():
    tree = minimal_tree()
    tree["rates"]["u"] = {"kind": "tabulated", "table": [[0.0, 1.0], [12.0, 1.0]]}
    with pytest.raises(ScenarioError, match="t_max \\+ 2\\*horizon"):
        scenario_from_tree(tree)


WRONG_TYPES = {
    "horizon": {"horizon": "abc"},
    "tolerances": {"tolerances": "x"},
    "tolerances.structural": {"tolerances": {"structural": "x"}},
    "tolerances.theorem": {"tolerances": {"theorem": [1e-9]}},
    "bounds.trichotomy": {"bounds": {"trichotomy": [1]}},
    "rate_instantiation": {"rate_instantiation": [1]},
}


@pytest.mark.parametrize("key", WRONG_TYPES)
def test_wrong_typed_key_fails_at_parse(key):
    overrides = WRONG_TYPES[key]
    with pytest.raises(ScenarioError, match=key.replace(".", r"\.")):
        scenario_from_tree(minimal_tree(**overrides))


@pytest.mark.parametrize("table", [
    [[0.0, 0.0], [40.0, 0.0]],           # below 1
    [[0.0, 1.0], [40.0, float("nan")]],  # not finite
    [[0.0, 2.0], [40.0, 1.5]],           # decreasing
], ids=["below_one", "nan", "decreasing"])
def test_invalid_tabulated_rate_fails_at_parse(table):
    tree = minimal_tree()
    tree["rates"]["u"] = {"kind": "tabulated", "table": table}
    with pytest.raises(ScenarioError, match=r"rates\.u\.table"):
        scenario_from_tree(tree)


BOOLEANS = {  # JSON true/false where a number is asked for
    "dimension": {"dimension": True,
                  "projectors": {"type": "coordinate_split", "sizes": [1, 0, 0]}},
    "horizon": {"horizon": True},
    "seed": {"seed": True},
    "samples": {"samples": False},
    "projectors.sizes": {"projectors": {"type": "coordinate_split",
                                        "sizes": [1, True, 1]}},
    "bounds.uniform": {"bounds": {"uniform": True}},
    "rate_instantiation.exponents": {"rate_instantiation": {
        "kind": "exponential", "exponents": [1.0, True, 0.5, 0.25]}},
    "operator.builtin.omega": {"operator": {"type": "ode", "step": 0.01, "builtin": {
        "name": "periodic_diag", "omega": True}}},
    "operator.builtin.base": {"operator": {"type": "ode", "step": 0.01, "builtin": {
        "name": "periodic_diag", "base": [-1.0, True, 0.0]}}},
    "operator.builtin.amplitude": {"operator": {"type": "ode", "step": 0.01, "builtin": {
        "name": "periodic_diag", "amplitude": [0.0, 0.0, False]}}},
    "operator.matrix": {"operator": {"type": "ode", "step": 0.01, "matrix": [
        [-1.0, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 0.0]]}},
    "projectors.matrices": {"projectors": {"type": "explicit", "matrices": [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, True, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]}},
    "rates.u.table": {"rates": {**minimal_tree()["rates"], "u": {
        "kind": "tabulated", "table": [[0, True], [40, True]]}}},
}


@pytest.mark.parametrize("key", BOOLEANS)
def test_boolean_for_a_number_fails_at_parse(key):
    with pytest.raises(ScenarioError, match=key.replace(".", r"\.")):
        scenario_from_tree(minimal_tree(**BOOLEANS[key]))


NONFINITE = {
    "bounds.trichotomy.value": {"bounds": {"trichotomy": {
        "kind": "constant", "value": float("nan")}}},
    "bounds.trichotomy.coeff": {"bounds": {"trichotomy": {
        "kind": "affine", "coeff": float("inf"), "offset": 3.0}}},
    "bounds.uniform": {"bounds": {"uniform": float("nan")}},
    "rate_instantiation.exponents": {"rate_instantiation": {
        "kind": "exponential", "exponents": [1.0, float("nan"), 0.5, 0.25]}},
    # an integer too large for a float
    "grid.t_max-huge": {"grid": {"t_max": 10 ** 400, "step": 0.5}},
    "projectors.matrices-huge": {"projectors": {"type": "explicit", "matrices": [
        [[10 ** 400, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]}},
    "rate_instantiation.exponents-huge": {"rate_instantiation": {
        "kind": "exponential", "exponents": [1.0, 10 ** 400, 0.5, 0.25]}},
    "rate_instantiation.exponents-overflow": {"rate_instantiation": {
        "kind": "exponential", "exponents": [1.0, 100, 0.5, 0.25]}},
    "rates.u-huge": {"rates": {**minimal_tree()["rates"], "u": {
        "kind": "tabulated", "table": [[0, 1], [10 ** 400, 1]]}}},
    # a rate whose ratio over the widest gap a check takes overflows a float
    "rates.k-overflow": {"rates": {**minimal_tree()["rates"], "k": {
        "kind": "exponential", "exponent": 100}}},
    "rates.nu-overflow": {"rates": {**minimal_tree()["rates"], "nu": {
        "kind": "polynomial", "exponent": 400}}},
    "rates.mu-overflow": {"rates": {**minimal_tree()["rates"], "mu": {
        "kind": "exponential", "exponent": 1e308}}},  # exponent * gap is inf
}


@pytest.mark.parametrize("key", NONFINITE)
def test_nonfinite_number_exits_2_naming_its_key(tmp_path, capsys, key):
    tree = json.loads((SCENARIOS / "uniform_example.json").read_text())
    tree.update(NONFINITE[key])
    path = write_tree(tmp_path, tree)  # json writes the NaN and Infinity literals
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert key.partition("-")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_that_overflows_only_past_the_widest_gap_runs(tmp_path):
    # e^(36 * 10.5) is a float; e^(36 * (t_max + 2*horizon)) is not
    tree = json.loads((SCENARIOS / "uniform_example.json").read_text())
    tree["rates"]["h"]["exponent"] = 36
    code = main(["--scenario", str(write_tree(tmp_path, tree)),
                 "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as the CLI runs
def test_overflow_inside_a_check_ends_it_in_error(tmp_path):
    tree = json.loads((SCENARIOS / "uniform_example.json").read_text())
    tree["rates"]["mu"]["exponent"] = 36
    out = tmp_path / "out"
    code = main(["--scenario", str(write_tree(tmp_path, tree)), "--out", str(out)])
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "records.csv", "report.json", "summary.csv"]
    checks = json.loads((out / "report.json").read_text())["checks"]
    errors = {c["name"]: c["payload"]["error"] for c in checks
              if c["status"] == "error"}
    assert errors and all(e.startswith("FloatingPointError: overflow")
                          for e in errors.values())


def test_bounds_validation():
    tree = minimal_tree(bounds={"trichotomy": {"kind": "affine", "coeff": -1.0,
                                               "offset": 2.0}})
    with pytest.raises(ScenarioError, match="nonnegative"):
        scenario_from_tree(tree)
    tree = minimal_tree(bounds={"uniform": 0.5})
    with pytest.raises(ScenarioError, match="uniform"):
        scenario_from_tree(tree)
    # a trichotomy bound of 1 at t = 0 parses; CLI_PARSE_ERRORS has one below
    for bound in ({"kind": "constant", "value": 1.0},
                  {"kind": "affine", "coeff": 0.0, "offset": 1.0}):
        scenario = scenario_from_tree(minimal_tree(bounds={"trichotomy": bound}))
        assert scenario.bounds["trichotomy"](0.0) == 1.0


def test_uniform_example_scenario_all_pass():
    scenario = parse_scenario(SCENARIOS / "uniform_example.json")
    report = run(scenario)
    assert report.overall == "pass"
    assert report.exit_code == 0
    assert [c["name"] for c in report.checks] == scenario.checks
    assert all(c["status"] == "pass" for c in report.checks)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_example_cli_all_pass(tmp_path, capsys, path):
    out = tmp_path / "out"
    code = main(["--scenario", str(path), "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == len(json.loads(path.read_text())["checks"]) + 1
    assert all(row.endswith(",pass") for row in rows)
    text = capsys.readouterr().out
    assert "overall: pass" in text
    total, emitted = re.search(r"^wrote .* in (\S+)s \(emit (\S+)s\)$", text, re.M).groups()
    assert 0.0 <= float(emitted) <= float(total)


def test_failed_prerequisite_skips_dependents(tmp_path):
    # a generator that mixes the first two coordinates: P1 is not invariant
    matrix = [[-1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]
    tree = minimal_tree(checks=["invariance", "compatibility", "uniform", "norms"],
                        operator={"type": "ode", "step": 0.1, "matrix": matrix},
                        grid={"t_max": 2.0, "step": 0.5}, horizon=1.0)
    report = run(scenario_from_tree(tree))
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses == {"invariance": "fail", "compatibility": "fail",
                        "uniform": "skipped", "norms": "skipped"}
    assert report.exit_code == 1


def test_failed_splitting_check_skips_no_norm_check():
    tree = read_tree(SCENARIOS / "nonuniform_example.json")
    tree["bounds"]["trichotomy"] = {"kind": "constant", "value": 3.0}
    report = run(scenario_from_tree(tree))
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["trichotomy"] == statuses["trichotomy_full"] == "fail"
    assert "skipped" not in statuses.values()
    assert all(statuses[name] == "pass" for name in (
        "norms", "norm_trichotomy", "norm_trichotomy_unprojected",
        "rate_instantiation"))
    assert report.exit_code == 1


def test_precondition_failure_recorded_as_error(tmp_path):
    # dichotomy with a nonzero third member fails at parse; a scenario built
    # past the parser reaches check_dichotomy's own guard
    scenario = scenario_from_tree(minimal_tree())
    scenario.checks = ["dichotomy"]
    report = run(scenario)
    assert report.checks[0]["status"] == "error"
    assert "error" in report.checks[0]["payload"]
    assert report.overall == "error"
    assert report.exit_code == 2


def test_dichotomy_without_a_center_member_parses():
    tree = minimal_tree(checks=["dichotomy"], projectors={
        "type": "coordinate_split", "sizes": [1, 2, 0]})
    assert run(scenario_from_tree(tree)).overall == "pass"


def test_csv_row_count_for_three_point_grid(tmp_path):
    tree = minimal_tree(checks=["trichotomy"],
                        grid={"t_max": 2.0, "step": 1.0})
    report = run(scenario_from_tree(tree))
    emit(report, "csv", tmp_path)
    rows = (tmp_path / "records.csv").read_text().strip().splitlines()
    body = [r for r in rows[1:] if r.startswith("trichotomy,")]
    # 6 ordered pairs on a 3-point grid, 4 inequalities each
    assert len(body) == 24


def test_emit_is_deterministic(tmp_path):
    scenario = parse_scenario(SCENARIOS / "nonuniform_example.json")
    report1 = run(scenario)
    report2 = run(parse_scenario(SCENARIOS / "nonuniform_example.json"))
    emit(report1, "both", tmp_path / "a")
    emit(report2, "both", tmp_path / "b")
    for name in ("report.json", "records.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_emit_writes_a_shared_block_as_a_deep_copy_of_it(tmp_path):
    report = run(parse_scenario(SCENARIOS / "nonuniform_example.json"))
    blocks = {e["name"]: e["rows"] for e in report.checks}
    shared = blocks["rate_instantiation"][0][1]
    assert shared is blocks["norm_trichotomy"][0][1]  # the kept projected table
    emit(report, "csv", tmp_path / "shared")
    for entry in report.checks:
        entry["rows"] = copy.deepcopy(entry["rows"])  # no block shared
    emit(report, "csv", tmp_path / "copied")
    text = (tmp_path / "shared" / "records.csv").read_bytes()
    assert text == (tmp_path / "copied" / "records.csv").read_bytes()
    assert text.count(b"\nrate_instantiation,") == shared.value.size


def test_emit_summary_only_when_no_records(tmp_path):
    report = run(scenario_from_tree(minimal_tree(checks=[])))
    paths = emit(report, "csv", tmp_path)
    assert [p.name for p in paths] == ["summary.csv"]


def test_ode_scenario_full_chain(tmp_path):
    # block-diagonal generator matching the rate exponents: uniformly
    # trichotomic, so every stage up to the norm theorems must pass
    tree = minimal_tree(
        operator={"type": "ode", "matrix": [[-1.0, 0.0, 0.0],
                                            [0.0, 2.0, 0.0],
                                            [0.0, 0.0, 0.25]],
                  "step": 0.01},
        grid={"t_max": 4.0, "step": 0.5},
        horizon=3.0,
        samples=16,
        tolerances={"structural": 1e-8, "theorem": 1e-7},
        bounds={"uniform": 1.5},
        checks=["orthogonality", "cocycle", "invariance", "compatibility",
                "trichotomy", "uniform", "norms", "norm_trichotomy",
                "rate_instantiation"])
    report = run(scenario_from_tree(tree))
    assert report.overall == "pass"
    assert all(c["status"] == "pass" for c in report.checks)


def test_builtin_operator_parses_and_runs(tmp_path):
    tree = minimal_tree(
        dimension=2,
        operator={"type": "ode", "builtin": {"name": "rotation", "omega": 1.0},
                  "step": 0.01},
        projectors={"type": "coordinate_split", "sizes": [1, 1, 0]},
        grid={"t_max": 3.0, "step": 0.5},
        tolerances={"structural": 1e-6, "theorem": 1e-9},
        checks=["cocycle"])
    report = run(scenario_from_tree(tree))
    assert report.overall == "pass"


def test_rotation_coefficient_matches_the_broadcast_matrix_bit_for_bit():
    omega = 0.7
    scenario = scenario_from_tree(ode_tree(2, builtin={"name": "rotation",
                                                      "omega": omega}))
    times = np.linspace(0.0, 3.0, 7)
    old = np.broadcast_to(np.array([[0.0, omega], [-omega, 0.0]]), (len(times), 2, 2))
    got = np.asarray(scenario.generator.coefficient(times))
    assert got.shape == old.shape and got.tobytes() == old.tobytes()


def test_cli_roundtrip_and_overrides(tmp_path, capsys):
    scenario_path = write_tree(tmp_path, minimal_tree())
    out = tmp_path / "out"
    code = main(["--scenario", str(scenario_path), "--out", str(out),
                 "--format", "json", "--grid-max", "4.0", "--seed", "11"])
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    tree = json.loads((out / "report.json").read_text())
    assert tree["scenario"]["grid"]["t_max"] == 4.0
    assert tree["scenario"]["seed"] == 11
    assert tree["overall"] == "pass"


CLI_PARSE_ERRORS = {  # case -> (scenario file or tree, options, text of the error)
    "negative_step": (minimal_tree(grid={"t_max": 1.0, "step": -1.0}), [],
                      "step must be positive"),
    "grid_step_over_t_max": ("nonuniform_example.json", ["--grid-step", "20"],
                             "grid.step"),
    "horizon_past_rate_table": ("uniform_example.json", ["--horizon", "100"],
                                "horizon"),
    "negative_seed_option": ("uniform_example.json", ["--seed", "-1"], "seed"),
    "negative_seed_in_file": (minimal_tree(seed=-1), [], "seed"),
    "dimension_too_large_to_build": (minimal_tree(
        dimension=10 ** 400, projectors={"type": "coordinate_split",
                                         "sizes": [10 ** 400, 0, 0]}),
        [], "dimension"),
    "samples_too_large_to_build": (minimal_tree(samples=10 ** 30), [], "samples"),
    "periodic_diag_coefficient_overflows": (minimal_tree(operator={
        "type": "ode", "step": 0.01, "builtin": {
            "name": "periodic_diag", "base": [1e308, 1e308, 0],
            "amplitude": [1e308, 0, 0]}}), [], "operator.builtin"),
    # an unknown key, at each level that has an optional one
    "misspelt_checks": ({**{key: value for key, value in minimal_tree().items()
                            if key != "checks"}, "chekcs": ["orthogonality"]},
                        [], "scenario.chekcs is not a known key"),
    "misspelt_horizon": (minimal_tree(horizn=2.0), [], "scenario.horizn is not"),
    "misspelt_theorem_tolerance": (minimal_tree(tolerances={"theorm": 1.0}), [],
                                   "tolerances.theorm is not"),
    "extra_rate": (minimal_tree(rates={**minimal_tree()["rates"], "v": {
        "kind": "exponential", "exponent": 1.0}}), [], "rates.v is not"),
    "misspelt_uniform_bound": (minimal_tree(bounds={"uniformm": 2.0}), [],
                               "bounds.uniformm is not"),
    # a trichotomy bound below 1 at t = 0, just under the limit
    "constant_trichotomy_bound_below_one": (minimal_tree(bounds={"trichotomy": {
        "kind": "constant", "value": 0.999}}), [], "bounds.trichotomy.value"),
    "affine_trichotomy_offset_below_one": (minimal_tree(bounds={"trichotomy": {
        "kind": "affine", "coeff": 5.0, "offset": 0.999}}), [],
        "bounds.trichotomy.offset"),
    "extra_builtin_key": (minimal_tree(operator={
        "type": "ode", "step": 0.01,
        "builtin": {"name": "periodic_diag", "omega": 1.0, "phase": 0.5}}),
        [], "operator.builtin.phase is not"),
    "misspelt_grid_step": (minimal_tree(grid={"t_max": 10.0, "step": 0.5,
                                              "stpe": 0.25}), [], "grid.stpe is not"),
    "matrix_on_rate_model": (minimal_tree(operator={
        "type": "rate_model", "matrix": np.eye(3).tolist()}), [],
        "operator.matrix is not"),
    "matrix_and_builtin": (minimal_tree(operator={
        "type": "ode", "step": 0.01, "matrix": np.eye(3).tolist(),
        "builtin": {"name": "periodic_diag"}}), [], "operator takes either"),
    "matrices_on_coordinate_split": (minimal_tree(projectors={
        "type": "coordinate_split", "sizes": [1, 1, 1],
        "matrices": [np.eye(3).tolist()] * 3}), [], "projectors.matrices is not"),
    "misspelt_rate_exponent": (minimal_tree(rates={**minimal_tree()["rates"], "h": {
        "kind": "exponential", "exponent": 1.0, "exponnt": 2.0}}), [],
        "rates.h.exponnt is not"),
    "misspelt_bound_coeff": (minimal_tree(bounds={"trichotomy": {
        "kind": "affine", "coeff": 1.0, "offset": 3.0, "cofe": 2.0}}), [],
        "bounds.trichotomy.cofe is not"),
    "extra_instantiation_key": (minimal_tree(rate_instantiation={
        "kind": "exponential", "exponents": [1.0, 2.0, 0.5, 0.25], "extra": 1}),
        [], "rate_instantiation.extra is not"),
    # dichotomy needs member 3 to vanish
    "dichotomy_with_a_center_block": (minimal_tree(checks=["dichotomy"]), [],
                                      "projectors.sizes[2] gives a nonzero"),
    "dichotomy_with_a_center_matrix": (minimal_tree(
        checks=["dichotomy"], projectors={"type": "explicit", "matrices": [
            np.diag([1.0, 0, 0]).tolist(), np.diag([0, 1.0, 0]).tolist(),
            np.diag([0, 0, 1.0]).tolist()]}), [], "projectors.matrices[2] gives a nonzero"),
}


def test_sizes_past_numpy_limit_fail_at_parse_naming_the_key():
    # 8 * n * n and 8 * n * (n + samples) bytes against numpy's limit; parse
    # only: a size just inside it would still be far too large to run
    limit = np.iinfo(np.intp).max
    n = math.isqrt(limit // 8) + 1
    with pytest.raises(ScenarioError, match="^dimension"):
        scenario_from_tree(minimal_tree(dimension=n, projectors={
            "type": "coordinate_split", "sizes": [n, 0, 0]}))
    assert scenario_from_tree(minimal_tree(samples=limit // 24 - 3)).samples
    with pytest.raises(ScenarioError, match="^samples"):
        scenario_from_tree(minimal_tree(samples=limit // 24 - 2))


@pytest.mark.parametrize("case", CLI_PARSE_ERRORS)
def test_cli_parse_error_exit_code(tmp_path, capsys, case):
    scenario, options, named = CLI_PARSE_ERRORS[case]
    path = (SCENARIOS / scenario if isinstance(scenario, str)
            else write_tree(tmp_path, scenario))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "o"), *options])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_unwritable_out_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    code = main(["--scenario", str(write_tree(tmp_path, minimal_tree())),
                 "--out", str(taken)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]


def test_scenario_echo_is_sorted_and_complete():
    scenario = parse_scenario(SCENARIOS / "uniform_example.json")
    keys = list(scenario.echo)
    assert keys == sorted(keys)


def ode_tree(dimension, **operator):
    sizes = [1, 1, dimension - 2]
    return minimal_tree(dimension=dimension,
                        operator={"type": "ode", "step": 0.01, **operator},
                        projectors={"type": "coordinate_split", "sizes": sizes})


def test_periodic_diag_base_length_fails_at_parse():
    tree = ode_tree(3, builtin={"name": "periodic_diag", "base": [-1.0, 2.0]})
    with pytest.raises(ScenarioError, match=r"operator\.builtin\.base"):
        scenario_from_tree(tree)


def test_rotation_dimension_fails_at_parse():
    tree = ode_tree(3, builtin={"name": "rotation", "omega": 1.0})
    with pytest.raises(ScenarioError, match=r"operator\.builtin\.name"):
        scenario_from_tree(tree)


@pytest.mark.parametrize("key", ["base", "amplitude"])
def test_rotation_rejects_the_periodic_diag_keys_at_parse(tmp_path, capsys, key):
    # rotation reads only omega: a base or amplitude would be ignored
    tree = ode_tree(2, builtin={"name": "rotation", "omega": 1.0, key: [0.5, -0.5]})
    with pytest.raises(ScenarioError, match=rf"operator\.builtin\.{key} is not"):
        scenario_from_tree(tree)
    code = main(["--scenario", str(write_tree(tmp_path, tree)), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert f"operator.builtin.{key}" in capsys.readouterr().err


def test_nonfinite_operator_matrix_fails_at_parse():
    matrix = [[-1.0, 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ScenarioError, match=r"operator\.matrix"):
        scenario_from_tree(ode_tree(3, matrix=matrix))


def test_emitted_files_match_the_in_memory_report(tmp_path):
    scenario = scenario_from_tree(minimal_tree(
        grid={"t_max": 2.0, "step": 0.5}, horizon=1.0, samples=4,
        checks=["trichotomy", "norm_trichotomy_unprojected"]))
    report = run(scenario)
    assert report.overall == "pass"
    emit(report, "both", tmp_path)

    tree = json.loads((tmp_path / "report.json").read_text())
    assert tree["checks"] == [
        {key: e[key] for key in ("name", "status", "payload")}
        for e in report.checks]
    splitting, theorem = (e["payload"] for e in report.checks)
    for tag, pointwise in splitting["pointwise"].items():
        assert splitting["binding"][tag]["factor"]["factor"] == max(pointwise)
    for tag, margin in theorem["worst_per_tag"].items():
        assert theorem["binding"][tag]["margin"] == margin

    with (tmp_path / "records.csv").open() as fh:
        rows = list(csv.reader(fh))
    memory = [[check, repr(rows_.grid[rows_.t[p]]), repr(rows_.grid[rows_.s[p]]),
               tag, repr(float(rows_.value[p, j])),
               "" if rows_.margin is None else repr(float(rows_.margin[p, j])),
               "" if rows_.vector is None else str(rows_.vector[p, j])]
              for e in report.checks for check, rows_ in e["rows"]
              for p in range(len(rows_.t)) for j, tag in enumerate(rows_.tags)]
    assert rows[0] == list(runner.COLUMNS)
    assert rows[1:] == memory
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = runner._build_operator(scenario, grid)
    families = [norms.build_norm_family(
        variant, operator, scenario.family, scenario.rates, scenario.horizon,
        scenario.grid_step, grid, scenario.samples, scenario.seed)
        for variant in norms.VARIANTS]
    records = norms.verify_norm_trichotomy_unprojected(
        *families, scenario.tol_theorem).records
    vectors = [row[-1] for row in rows if row[0] == "norm_trichotomy_unprojected"]
    assert vectors == [r["vector_id"] for r in records]
    assert all(row[-1] == "" for row in rows[1:] if row[0] == "trichotomy")


def test_run_frees_its_norm_families(monkeypatch):
    refs = []
    build = norms.build_norm_family

    def tracked(*args):
        family = build(*args)
        refs.append(weakref.ref(family))
        return family

    monkeypatch.setattr(norms, "build_norm_family", tracked)
    scenario = scenario_from_tree(minimal_tree(
        grid={"t_max": 2.0, "step": 0.5}, horizon=1.0, samples=4,
        checks=["norms", "norm_trichotomy", "rate_instantiation"]))
    gc.collect()
    gc.disable()  # freed by reference counting, not by a later collection
    try:
        report = run(scenario)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert report.overall == "pass"
    assert refs and not alive


@pytest.mark.parametrize("where", ["payload", "rows"])
def test_emit_refuses_nonfinite_numbers(tmp_path, where):
    entry = {"name": "x", "status": "pass", "payload": {}, "rows": []}
    if where == "payload":
        entry["payload"]["value"] = float("nan")
    else:
        entry["rows"].append(("x", Rows([0.0], np.zeros(1, int), np.zeros(1, int),
                                        ["tag"], np.array([[float("nan")]]),
                                        np.zeros((1, 1)), None)))
    report = runner.RunReport(scenario={}, checks=[entry], overall="pass")
    with pytest.raises(ValueError):
        emit(report, "json" if where == "payload" else "csv", tmp_path)


def per_record_rows(check, report):
    """The rows of one report as a per-record writer gives them."""
    if isinstance(report, CheckReport):
        return [(check, "", "", key, value, report.tol - value)
                for key, value in report.residuals.items()]
    if isinstance(report, CompatibilityReport):
        return [(check, t, "", "compatibility_ratio", c, limit - c) for t, c, limit
                in zip(report.grid, report.ratios, report.crosscheck_limit)]
    if isinstance(report, TrichotomyReport):
        return [(check, r["t"], r["s"], r["tag"], r["factor"],
                 "" if r["margin"] is None else r["margin"]) for r in report.records]
    return [(check, r["t"], r["s"], r["tag"], r["lhs"], r["margin"], r["vector_id"])
            for r in report.records]


def test_records_csv_matches_a_csv_writer_over_the_records(tmp_path, monkeypatch):
    reports = []  # (check, report) in the order the runner asks for rows
    for cls in (CheckReport, CompatibilityReport, TrichotomyReport, TheoremReport):
        def wrapped(self, check, original=cls.csv_rows):
            reports.append((check, self))
            return original(self, check)
        monkeypatch.setattr(cls, "csv_rows", wrapped)
    scenario = scenario_from_tree(minimal_tree(  # P3 = 0: vacuous center rows
        grid={"t_max": 2.0, "step": 0.5}, horizon=1.0, samples=4,
        checks=list(CHECK_NAMES),
        projectors={"type": "coordinate_split", "sizes": [1, 2, 0]},
        bounds={"trichotomy": {"kind": "affine", "coeff": 1.0, "offset": 40.0},
                "uniform": 1000.0}))
    report = run(scenario)
    assert report.overall == "pass"
    emit(report, "csv", tmp_path)

    rows = [row for check, rep in reports for row in per_record_rows(check, rep)]
    assert any(r["margin"] is not None for _, rep in reports
               if isinstance(rep, TrichotomyReport) for r in rep.records)
    assert any(r["vacuous"] for _, rep in reports
               if isinstance(rep, TheoremReport) for r in rep.records)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(runner.COLUMNS)
    writer.writerows(row + ("",) * (len(runner.COLUMNS) - len(row)) for row in rows)
    assert (tmp_path / "records.csv").read_text() == want.getvalue()


def test_records_csv_matches_its_oracles_across_chunk_boundaries(tmp_path, monkeypatch):
    """Chunks of 7 records end inside a pair of 4 tags, and the kept trichotomy
    value column is written by blocks whose chunks end at other records."""
    monkeypatch.setattr(runner, "_CHUNK", 7)
    test_records_csv_matches_a_csv_writer_over_the_records(tmp_path, monkeypatch)
    test_emit_writes_a_shared_block_as_a_deep_copy_of_it(tmp_path)


@pytest.mark.parametrize("chunk", [3, runner._CHUNK])
def test_records_csv_writes_every_float_cell_as_its_repr(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(runner, "_CHUNK", chunk)
    value = np.array([[-0.0, 0.0], [5e-324, 1.7976931348623157e308], [1e16, 1e-05],
                      [0.1 + 0.2, -0.0], [0.0, -5e-324]])
    grid, at = [0.0, 0.5, 1.0], np.array([0, 1, 2, 2, 1])
    vector = np.array(["e1", "r02"])[np.arange(10).reshape(5, 2) % 2]
    blocks = [("a", Rows(grid, at, at[::-1], ["x", "y"], value, -value[::-1], vector)),
              ("empty", Rows(grid, at[:0], at[:0], ["p", "q", "r", "s"], np.zeros((0, 4)))),
              ("narrow", Rows(grid, at[:1], at[:1], [], np.zeros((1, 0)))),
              ("b", Rows(grid, at, None, ["x", "y"], value)),  # shares a's value column
              ("c", Rows([], None, None, ["u", "v"], np.array([[0.0, -0.0]]), value[:1]))]
    entry = {"name": "x", "status": "pass", "payload": {}, "rows": blocks}
    emit(runner.RunReport(scenario={}, checks=[entry], overall="pass"), "csv", tmp_path)

    def cell(column, p, j):  # one cell as a per-record writer gives it
        if column is None:
            return ""
        return str(column[p, j]) if column.dtype.kind == "U" else repr(float(column[p, j]))
    want = [",".join(runner.COLUMNS)]
    for check, rows in blocks:
        for p, j in np.ndindex(rows.value.shape):
            times = ["" if i is None else repr(rows.grid[i[p]]) for i in (rows.t, rows.s)]
            cells = [cell(c, p, j) for c in (rows.value, rows.margin, rows.vector)]
            want.append(",".join([check, *times, rows.tags[j], *cells]))
    text = (tmp_path / "records.csv").read_text()
    assert text == "\n".join(want) + "\n"
    assert text.startswith(want[0] + "\na,0.0,0.5,x,-0.0,-0.0,e1\na,0.0,0.5,y,0.0,5e-324,r02\n")
