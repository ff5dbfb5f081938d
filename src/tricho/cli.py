"""Command-line front end: parse a scenario, run its checks, emit reports.

Exit codes: 0 all requested checks passed, 1 at least one check failed or
was skipped behind a failure, 2 scenario/parse/setup error or a report that
cannot be written out.
"""
from __future__ import annotations

import argparse
import sys
import time

from .runner import emit, run
from .scenario import read_tree, scenario_from_tree


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricho",
        description="Verify trichotomy/dichotomy inequality systems and "
                    "Lyapunov-type norm characterizations for an evolution "
                    "operator scenario at grid scale.")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default="report",
                        help="output directory (default: ./report)")
    parser.add_argument("--format", default="both",
                        choices=["json", "csv", "both"],
                        help="report format (default: both)")
    parser.add_argument("--grid-max", type=float, default=None,
                        help="override grid.t_max")
    parser.add_argument("--grid-step", type=float, default=None,
                        help="override grid.step")
    parser.add_argument("--horizon", type=float, default=None,
                        help="override the future-supremum horizon")
    parser.add_argument("--tol", type=float, default=None,
                        help="override tolerances.theorem")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    return parser


_OVERRIDES = {"grid_max": ("grid", "t_max"), "grid_step": ("grid", "step"),
              "horizon": ("horizon",), "tol": ("tolerances", "theorem"),
              "seed": ("seed",)}


def _apply_overrides(tree, args) -> None:
    """Write the given overrides into the scenario tree, where the parser
    checks them like every other value."""
    for option, (*section, key) in _OVERRIDES.items():
        value = getattr(args, option)
        if value is None or not isinstance(tree, dict):
            continue
        node = tree.setdefault(section[0], {}) if section else tree
        if isinstance(node, dict):  # otherwise the parser names the wrong type
            node[key] = value


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        tree = read_tree(args.scenario)
        _apply_overrides(tree, args)
        report = run(scenario_from_tree(tree))
    except (ValueError, MemoryError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    emit_started = time.perf_counter()
    try:
        paths = emit(report, args.format, args.out)
    except (OSError, ValueError) as exc:  # ValueError: a value JSON cannot hold
        print(f"error: cannot write reports to {args.out}: "
              f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return 2
    emit_s = time.perf_counter() - emit_started
    for entry in report.checks:
        elapsed = report.timing.get(entry["name"])
        suffix = f" ({elapsed:.3f}s)" if elapsed is not None else ""
        print(f"[{entry['status']:>7}] {entry['name']}{suffix}")
    print(f"overall: {report.overall}")
    print(f"wrote {', '.join(str(p) for p in paths)} "
          f"in {time.perf_counter() - started:.3f}s (emit {emit_s:.3f}s)")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
