"""Self-test of the benchmark on tiny-grid variants of its workloads (G=5).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import record_reference  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Workload and reference directories for G=5 variants of every workload."""
    root = tmp_path_factory.mktemp("tiny")
    workload_dir, reference_dir = root / "workloads", root / "reference"
    workload_dir.mkdir()
    for name in NAMES:
        workload = json.loads((bench.WORKLOADS / f"{name}.json").read_text())
        workload["scenario"].update(grid={"t_max": 2.0, "step": 0.5},
                                    horizon=1.0)
        (workload_dir / f"{name}.json").write_text(json.dumps(workload))
        record_reference.record(name, workload_dir, reference_dir)
    return workload_dir, reference_dir


def test_workloads_match_spec_and_references():
    assert sorted(NAMES) == sorted(p.stem for p in bench.WORKLOADS.glob("*.json"))
    for name in NAMES:
        workload, reference = bench.load_workload(name)
        assert workload["why"]
        assert reference["seed"] == bench.DEFAULT_SEED
        assert (sorted(c["name"] for c in reference["checks"])
                == sorted(workload["scenario"]["checks"]))


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace):
    result = bench.measure(NAMES[0], bench.DEFAULT_SEED, 1, bool(trace), *tiny)
    out = capsys.readouterr().out
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         out, re.M), name
    assert re.search(r"^\s+fail_frac\s+0 fraction", out, re.M)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 11


def test_counts_repeat_across_traced_runs(tiny):
    counts = [{k: v["value"] for k, v in
               bench.measure("ode_periodic_g21", seed, 1, True, *tiny)
               ["metrics"].items() if v["unit"] == "count"}
              for seed in (1, 2)]
    assert counts[0] == counts[1]
    assert counts[0]["evolution.coeff_calls"] > 0
    assert all(isinstance(v, int) for v in counts[0].values())


@pytest.mark.parametrize("kind, seed, fails", [
    ("values", 7, True),
    ("sampled", bench.DEFAULT_SEED, True),
    ("sampled", 7, False),  # sampled values move with the seed
])
def test_perturbed_reference_value_sets_fail_frac(tiny, tmp_path, kind, seed,
                                                  fails):
    workload_dir, reference_dir = tiny
    name = "rate_g101"
    reference = json.loads((reference_dir / f"{name}.json").read_text())
    check = next(c for c in reference["checks"] if c[kind])
    key = next(iter(check[kind]))
    check[kind][key] += 1e-9 * max(1.0, abs(check[kind][key]))
    (tmp_path / f"{name}.json").write_text(json.dumps(reference))
    result = bench.measure(name, seed, 1, False, workload_dir, tmp_path)
    assert (result["failed"] > 0) is fails
    assert result["correct"] is not fails


def test_tracing_leaves_report_bytes_unchanged(tiny, tmp_path):
    workload_dir, _ = tiny
    for name in NAMES:
        scenario = json.loads((workload_dir / f"{name}.json").read_text())
        path = tmp_path / f"{name}.scenario.json"
        path.write_text(json.dumps(dict(scenario["scenario"], seed=5)))
        outputs = []
        for flags in ([], ["--trace", str(tmp_path / f"{name}.trace.json")]):
            out = tmp_path / f"{name}{len(outputs)}"
            subprocess.run([sys.executable, str(BENCH / "child.py"), str(path),
                            str(tmp_path / "result.json"), "--out", str(out),
                            *flags], env=bench.child_env(), check=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"report.json", "records.csv", "summary.csv"}
        trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
        assert {s["name"] for s in trace["spans"]} >= {"runner.run",
                                                      "runner.emit"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
