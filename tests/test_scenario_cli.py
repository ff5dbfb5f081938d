import json
from pathlib import Path

import pytest

from tricho import ScenarioError, emit, parse_scenario, run, scenario_from_tree
from tricho import runner
from tricho.cli import main

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


def test_short_tabulated_span_rejected():
    tree = minimal_tree()
    tree["rates"]["u"] = {"kind": "tabulated", "table": [[0.0, 1.0], [12.0, 1.0]]}
    with pytest.raises(ScenarioError, match="t_max \\+ 2\\*horizon"):
        scenario_from_tree(tree)


def test_bounds_validation():
    tree = minimal_tree(bounds={"trichotomy": {"kind": "affine", "coeff": -1.0,
                                               "offset": 2.0}})
    with pytest.raises(ScenarioError, match="nonnegative"):
        scenario_from_tree(tree)
    tree = minimal_tree(bounds={"uniform": 0.5})
    with pytest.raises(ScenarioError, match="uniform"):
        scenario_from_tree(tree)


def test_uniform_example_scenario_all_pass():
    scenario = parse_scenario(SCENARIOS / "uniform_example.json")
    report = run(scenario)
    assert report.overall == "pass"
    assert report.exit_code == 0
    assert [c["name"] for c in report.checks] == scenario.checks
    assert all(c["status"] == "pass" for c in report.checks)


def test_ode_example_cli_all_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--scenario", str(SCENARIOS / "ode_periodic_example.json"),
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.endswith(",pass") for row in rows)
    assert "overall: pass" in capsys.readouterr().out


def test_failed_prerequisite_skips_dependents(tmp_path):
    tree = minimal_tree(checks=["uniform", "norms"],
                        bounds={"uniform": 5.0},
                        grid={"t_max": 10.0, "step": 0.5})
    tree["rates"]["u"] = {"kind": "polynomial", "exponent": 1.0}
    report = run(scenario_from_tree(tree))
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["uniform"] == "fail"
    assert statuses["norms"] == "skipped"
    assert report.exit_code == 1


def test_precondition_failure_recorded_as_error(tmp_path):
    # dichotomy requested with a nonzero third member
    tree = minimal_tree(checks=["dichotomy"])
    report = run(scenario_from_tree(tree))
    assert report.checks[0]["status"] == "error"
    assert "error" in report.checks[0]["payload"]
    assert report.overall == "error"
    assert report.exit_code == 2


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


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = write_tree(tmp_path, minimal_tree(grid={"t_max": 1.0, "step": -1.0}))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "step must be positive" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


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


def test_nonfinite_operator_matrix_fails_at_parse():
    matrix = [[-1.0, 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ScenarioError, match=r"operator\.matrix"):
        scenario_from_tree(ode_tree(3, matrix=matrix))


def test_streamed_report_text_matches_whole_text():
    value = {"a": [], "b": {}, "c": [{"x": 1.5, "y": [1, 2]}, {"x": None}],
             "d": [[1, 2], [3]], "e": "s", "f": ({"g": True, "h": {}},),
             "i": [{"j": 1}, {"k": [2.5]}]}
    pieces = []
    runner._write_json(value, pieces.append)
    assert "".join(pieces) == runner._json_text(value)
