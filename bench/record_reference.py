#!/usr/bin/env python3
"""Record the correctness references of the benchmark workloads.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs one untraced child per workload (all of them when none is named) at
the default seed and writes ``bench/reference/<name>.json``: each check's
status with its seed-independent and sampled headline values, as read
from the in-memory ``RunReport``. Re-record only for a change that is meant
to alter verdicts or values.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench


def record(name: str, workload_dir: Path = bench.WORKLOADS,
           reference_dir: Path = bench.REFERENCES) -> Path:
    workload = json.loads((workload_dir / f"{name}.json").read_text())
    scenario = dict(workload["scenario"], seed=bench.DEFAULT_SEED)
    with bench.run_directory(name) as directory:
        child = bench.Run(directory, scenario).spawn()
    if child.exit_code != 0 or child.result is None:
        raise SystemExit(f"{name}: child exited with {child.exit_code}")
    reference = {"seed": bench.DEFAULT_SEED, "checks": child.result["checks"]}
    reference_dir.mkdir(parents=True, exist_ok=True)
    path = reference_dir / f"{name}.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    names = argv or sorted(p.stem for p in bench.WORKLOADS.glob("*.json"))
    for name in names:
        print(record(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
