"""One measured tricho run, spawned fresh by ``bench/run.py`` for each sample.

Makes the same three public calls as ``tricho.cli.main``:
``parse_scenario`` -> ``run`` -> ``emit``. It records the monotonic clock
reading right after ``parse_scenario`` returns (the parent compares it with
its own reading at spawn time), the check statuses and headline values read
from the in-memory ``RunReport``, and the paths ``emit`` wrote, as JSON.

Usage:
    python3 bench/child.py SCENARIO RESULT_JSON [--out DIR]
                           [--setup-only] [--trace TRACE_JSON]

With ``--setup-only`` it stops after parsing. ``--trace`` installs the
wrappers of ``bench/tracer.py`` before ``tricho`` is used and writes the
spans at exit; without it the tracer is never imported. The exit code is the
CLI's: 0 all checks passed, 1 a check failed, 2 a scenario error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SPLITTING = ("trichotomy", "trichotomy_full", "uniform", "dichotomy")


def _splitting_values(payload: dict) -> dict:
    return {"uniform_constant": payload["uniform_constant"],
            "envelope_last": payload["envelope"][-1]}


def headline(entry: dict) -> tuple[dict, dict]:
    """Seed-independent and sampled headline values of one check entry.

    Seed-independent: each splitting system's uniform constant and last
    envelope value, and each norm family's horizon deltas (the theorem
    checks carry theirs as ``truncation_slack``). Sampled: ``c_uniform``
    and ``min_margin``, which move with the sampling seed.
    """
    name, payload = entry["name"], entry["payload"]
    if entry["status"] in ("skipped", "error"):
        return {}, {}
    if name in SPLITTING:
        return _splitting_values(payload), {}
    if name == "norms":
        values = {f"{variant}.horizon_delta_{kind}":
                  payload["horizon_sensitivity"][variant][kind]
                  for variant in ("forward", "backward")
                  for kind in ("abs", "rel")}
        sampled = {f"{variant}.c_uniform": payload[variant]["c_uniform"]
                   for variant in ("forward", "backward")}
        return values, sampled
    if name == "norm_trichotomy":
        necessity = payload["necessity"]
        values = {"truncation_slack": necessity["truncation_slack"],
                  **{f"sufficiency.{k}": v for k, v in
                     _splitting_values(payload["sufficiency"]).items()}}
        return values, {"min_margin": necessity["min_margin"]}
    if name in ("norm_trichotomy_unprojected", "rate_instantiation"):
        return ({"truncation_slack": payload["truncation_slack"]},
                {"min_margin": payload["min_margin"]})
    return {}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("result")
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    import tricho

    if Path(tricho.__file__).resolve().parent != SRC / "tricho":
        print(f"error: imported tricho from {tricho.__file__}, not {SRC}",
              file=sys.stderr)
        return 3

    scenario = tricho.parse_scenario(args.scenario)
    result = {"parsed_at": time.monotonic()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    start = time.perf_counter()
    report = tricho.run(scenario)
    result["run_s"] = time.perf_counter() - start
    paths = tricho.emit(report, "both", args.out)

    checks = []
    for entry in report.checks:
        values, sampled = headline(entry)
        checks.append({"name": entry["name"], "status": entry["status"],
                       "values": values, "sampled": sampled})
    result.update(overall=report.overall, checks=checks,
                  timing=dict(report.timing),
                  paths=[str(p) for p in paths])
    if tracer is not None:
        tracer.dump(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
