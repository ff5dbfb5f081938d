#!/usr/bin/env python3
"""Time-to-verdict benchmark for tricho, one workload scenario per run.

    python3 bench/run.py --workload rate_g101 --seed 2024 --seconds 40 --trace 0

A run writes the workload's scenario (``bench/workloads/<name>.json``) with
``--seed`` as its sampling seed, then spawns fresh child processes
(``bench/child.py``) one at a time. Each child makes the public calls of
``tricho.cli.main``: ``parse_scenario`` -> ``run`` -> ``emit``. The first
child always runs; another starts only while a repeat of the last one would
end within ``--seconds`` of the run's start, and every child runs to its
verdict. ``TRICHO_THREADS`` is removed from the children's environment.

``--trace 0`` reports the end-to-end metrics, medians over the run's
children: ``wall_s`` (spawn to exit), ``setup_s`` (spawn to
``parse_scenario`` returning; ten extra children stop there),
``peak_rss_mb`` (``os.wait4`` rusage) and ``output_mb`` (bytes ``emit``
wrote). ``--trace 1`` runs pairs of an untraced and a traced child and
reports the per-layer metrics of ``per_layer_units``: self times and call counts
from the traced child's spans (``bench/tracer.py``), check times from the
untraced child's ``RunReport.timing``, and the tracing overhead.

Every child's verdicts are compared with ``bench/reference/<name>.json``
(see ``bench/record_reference.py``). A check fails when its status differs
or a headline value deviates by more than 1e-12 relative; sampled values
are compared only at the reference seed. A child that crashes or exits
nonzero fails every check. ``fail_frac`` = failed / attempted checks is
printed, and the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
REFERENCES = BENCH / "reference"
RUNS = ROOT / ".bench_runs"

DEFAULT_SEED = 2024
SETUP_CHILDREN = 10
RUN_LIMIT_S = 170.0  # children still running then are killed
REL_TOL = 1e-12

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "output_mb": "MB"}

# per-layer time metric -> trace names whose self times it sums
LAYER_TIMES = {
    "scenario.parse_s": ("scenario.parse",),
    "evolution.build_s": ("evolution.build",),
    "evolution.evaluate_s": ("evolution.evaluate",),
    "evolution.cocycle_s": ("evolution.cocycle",),
    "projectors.inverse_s": ("projectors.inverse", "projectors.inverse_lookup"),
    "projectors.structure_s": ("projectors.structure",),
    "util.svd_s": ("util.svd",),
    "trichotomy.systems_s": ("trichotomy.systems", "trichotomy.required_factor"),
    "norms.build_s": ("norms.build",),
    "norms.theorem_s": ("norms.theorem", "norms.evaluate_many"),
    "reports.payload_s": ("reports.payload",),
    "runner.emit_s": ("runner.emit",),
}
# per-layer count metric -> trace name whose calls it counts
LAYER_COUNTS = {
    "evolution.evaluate_calls": "evolution.evaluate",
    "evolution.coeff_calls": "evolution.coeff",
    "projectors.inverse_calls": "projectors.inverse_lookup",
    "projectors.inverse_computes": "projectors.inverse",
    "util.svd_calls": "util.svd",
    "trichotomy.required_factor_calls": "trichotomy.required_factor",
    "norms.family_builds": "norms.build",
    "norms.evaluate_many_calls": "norms.evaluate_many",
}


def per_layer_units(check_names) -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["projectors.inverse_hit_ratio"] = "ratio"
    units["runner.run_s"] = "s"
    units.update({f"runner.check.{name}_s": "s" for name in check_names})
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict:
    """Environment of a child: this checkout's sources, default threading."""
    env = dict(os.environ)
    env.pop("TRICHO_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    """One finished child process, as seen from outside."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    result: dict | None
    setup_s: float | None
    output_bytes: int


class Run:
    """Spawns children for one benchmark run inside a scratch directory."""

    def __init__(self, directory: Path, scenario: dict):
        self.dir = directory
        self.scenario_path = directory / "scenario.json"
        self.scenario_path.write_text(json.dumps(scenario, indent=2))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._spawned = 0

    def spawn(self, *flags: str) -> Child:
        self._spawned += 1
        tag = f"child{self._spawned}"
        result_path = self.dir / f"{tag}.result.json"
        out_dir = self.dir / f"{tag}.out"
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.scenario_path),
               str(result_path), "--out", str(out_dir), *flags]
        with open(self.dir / f"{tag}.log", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.deadline - started), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = None
        if proc.returncode != 0:
            log_tail = (self.dir / f"{tag}.log").read_text(errors="replace")
            print(f"child exited with {proc.returncode}:\n{log_tail[-2000:]}",
                  file=sys.stderr)
        setup = None if result is None else result["parsed_at"] - started
        output = 0
        if result is not None and "paths" in result:
            output = sum(os.path.getsize(p) for p in result["paths"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return Child(wall_s=wall, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
                     exit_code=proc.returncode, result=result, setup_s=setup,
                     output_bytes=output)


@contextmanager
def run_directory(name: str):
    directory = RUNS / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


# -- correctness gate --------------------------------------------------------

def _close(got, want: float) -> bool:
    return (isinstance(got, (int, float))
            and abs(got - want) <= REL_TOL * max(1.0, abs(want)))


def _check_matches(want: dict, have: dict | None, with_sampled: bool) -> bool:
    if have is None or have["status"] != want["status"]:
        return False
    kinds = ("values", "sampled") if with_sampled else ("values",)
    return all(_close(have[kind].get(key), value)
               for kind in kinds for key, value in want[kind].items())


def failed_checks(reference: dict, child: Child, seed: int) -> int:
    """Checks of one child that disagree with the stored reference."""
    wanted = reference["checks"]
    if child.exit_code != 0 or child.result is None:
        return len(wanted)
    got = {c["name"]: c for c in child.result["checks"]}
    with_sampled = seed == reference["seed"]
    return sum(not _check_matches(want, got.get(want["name"]), with_sampled)
               for want in wanted)


# -- metrics -------------------------------------------------------------------

def end_to_end(setup_children: list[Child], children: list[Child]) -> dict:
    setups = [c.setup_s for c in setup_children + children
              if c.setup_s is not None]
    return {
        "wall_s": statistics.median(c.wall_s for c in children),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "output_mb": statistics.median(c.output_bytes for c in children) / 1e6,
    }


def layer_metrics(plain: Child, traced: Child, trace: dict,
                  check_names) -> dict:
    self_time: dict[str, float] = {}
    calls: dict[str, int] = dict(trace["counts"])
    for span in trace["spans"]:
        self_time[span["name"]] = self_time.get(span["name"], 0.0) + span["self"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    for leaf in trace["leaves"]:
        self_time[leaf["name"]] = self_time.get(leaf["name"], 0.0) + leaf["self"]
        calls[leaf["name"]] = calls.get(leaf["name"], 0) + leaf["count"]

    metrics = {metric: sum(self_time.get(n, 0.0) for n in names)
               for metric, names in LAYER_TIMES.items()}
    metrics.update({metric: calls.get(name, 0)
                    for metric, name in LAYER_COUNTS.items()})
    lookups = metrics["projectors.inverse_calls"]
    metrics["projectors.inverse_hit_ratio"] = (
        1.0 - metrics["projectors.inverse_computes"] / lookups if lookups else 0.0)
    timing = plain.result["timing"] if plain.result else {}
    metrics["runner.run_s"] = plain.result["run_s"] if plain.result else 0.0
    metrics.update({f"runner.check.{name}_s": timing.get(name, 0.0)
                    for name in check_names})
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics


def median_metrics(samples: list[dict]) -> dict:
    """Per-key median; counts keep an integer that was measured."""
    return {key: (statistics.median_low if isinstance(value, int)
                  else statistics.median)(s[key] for s in samples)
            for key, value in samples[0].items()}


# -- entry point -------------------------------------------------------------

def load_workload(name: str, workload_dir: Path = WORKLOADS,
                  reference_dir: Path = REFERENCES) -> tuple[dict, dict]:
    workload = json.loads((workload_dir / f"{name}.json").read_text())
    reference = json.loads((reference_dir / f"{name}.json").read_text())
    return workload, reference


def measure(name: str, seed: int, seconds: float, trace: bool,
            workload_dir: Path = WORKLOADS,
            reference_dir: Path = REFERENCES) -> dict:
    """Run one workload and return the contract's result object."""
    workload, reference = load_workload(name, workload_dir, reference_dir)
    scenario = dict(workload["scenario"], seed=seed)
    check_names = [c["name"] for c in reference["checks"]]
    children: list[Child] = []
    with run_directory(name) as directory:
        run = Run(directory, scenario)
        start = time.monotonic()

        def another_fits(last_s: float) -> bool:
            return time.monotonic() - start + last_s <= seconds

        if trace:
            samples = []
            trace_path = directory / "trace.json"
            while True:
                began = time.monotonic()
                plain = run.spawn()
                traced = run.spawn("--trace", str(trace_path))
                children += [plain, traced]
                if traced.result is None:
                    break
                spans = json.loads(trace_path.read_text())
                samples.append(layer_metrics(plain, traced, spans, check_names))
                if not another_fits(time.monotonic() - began):
                    break
            metrics = median_metrics(samples) if samples else {}
            units = per_layer_units(check_names)
        else:
            run.spawn("--setup-only")  # warm-up: bytecode and file caches
            # set-up samples before and after the full children, so that
            # one burst of load on the machine does not move all of them
            setups = [run.spawn("--setup-only")
                      for _ in range(SETUP_CHILDREN // 2)]
            while True:
                children.append(run.spawn())
                if not another_fits(children[-1].wall_s):
                    break
            setups += [run.spawn("--setup-only")
                       for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
            metrics = end_to_end(setups, children)
            units = END_TO_END

    attempted = len(check_names) * len(children)
    failed = sum(failed_checks(reference, c, seed) for c in children)
    fail_frac = failed / attempted
    print(f"workload {name}, seed {seed}, {len(children)} child run(s)"
          f"{' (untraced + traced pairs)' if trace else ''}")
    for key, unit in units.items():
        print(f"  {key:<40} {metrics.get(key, float('nan')):>14.6g} {unit}")
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} fraction"
          f"  ({failed} of {attempted} checks failed)")
    return {"correct": failed == 0 and bool(metrics),
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items() if key in metrics}}


def main(argv=None) -> int:
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    parser = argparse.ArgumentParser(
        description="Time-to-verdict benchmark for tricho scenarios.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tricho" / "__init__.py").is_file():
        print(f"error: no tricho sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
