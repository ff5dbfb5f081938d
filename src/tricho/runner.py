"""Orchestrates the checks requested by a scenario and emits reports.

Checks run in dependency stages (structure -> cocycle -> invariance ->
splitting systems -> norms -> norm theorems); when any check of an earlier
stage fails, later requested checks are marked "skipped", never "passed".
All output files are byte-stable for a fixed scenario and seed: numbers are
written as their shortest round-trip ``repr`` and wall-clock timing stays
out of the emitted artifacts (it is kept on the in-memory report and
printed by the CLI). ``report.json`` holds check summaries, each with the
records that bind it; the per-pair records are written only to
``records.csv``.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evolution, norms, projectors, trichotomy
from .errors import ScenarioError
from .scenario import RATE_KEYS, Scenario
from .util import grid_pairs, grid_slots, make_grid

STAGES = (
    ("orthogonality",),
    ("cocycle",),
    ("invariance", "compatibility"),
    ("trichotomy", "trichotomy_full", "uniform", "dichotomy"),
    ("norms",),
    ("norm_trichotomy", "norm_trichotomy_unprojected", "rate_instantiation"),
)


@dataclass
class RunReport:
    scenario: dict
    checks: list[dict]
    overall: str
    timing: dict[str, float] = field(default_factory=dict)  # stdout only

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}.get(self.overall, 2)


class _Workspace:
    """Lazily built shared objects for one run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.grid = make_grid(scenario.grid_max, scenario.grid_step)
        self.family = _build_family(scenario)
        self.operator = _build_operator(scenario, self.family, self.grid)
        self._inverses = None
        self._memo = {}  # (what, h, k, mu, nu) -> object built for that rate set

    @property
    def inverses(self):
        if self._inverses is None:
            self._inverses = projectors.build_inverses(self.operator, self.family)
        return self._inverses

    def _once(self, what, rates, build):
        key = (what, *(rates[name] for name in RATE_KEYS))
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def factors(self, rates):
        """The projected factor table over the grid pairs."""
        return self._once("factors", rates, lambda: trichotomy.factor_table(
            self.operator, self.family, rates, grid_pairs(self.grid),
            inverses=self.inverses))

    def norm_families(self, rates):
        """Forward and backward norm families."""
        s = self.scenario
        return self._once("families", rates, lambda: tuple(
            norms.build_norm_family(variant, self.operator, self.family,
                                    self.inverses, rates, s.horizon,
                                    s.grid_step, self.grid)
            for variant in norms.VARIANTS))

    def compatibility(self, rates):
        """Sandwich-constant reports of the forward and backward families."""
        s = self.scenario
        return self._once("compatibility", rates, lambda: tuple(
            norms.check_compatibility(nf, self.grid, s.samples, seed=s.seed)
            for nf in self.norm_families(rates)))

    def theorem_sides(self, rates):
        """Both sides of the norm inequalities, shared by both norm systems."""
        s = self.scenario
        return self._once("sides", rates, lambda: norms.theorem_sides(
            *self.norm_families(rates), self.grid, s.samples, s.seed))

    def norm_theorem(self, rates):
        """The constant-free norm system."""
        s = self.scenario
        return self._once("theorem", rates, lambda: norms.verify_norm_trichotomy(
            *self.norm_families(rates), self.grid, s.tol_theorem, s.samples,
            s.seed, sides=self.theorem_sides(rates)))


def _build_family(scenario: Scenario) -> projectors.ProjectorFamily:
    spec = scenario.projectors
    if spec["type"] == "coordinate_split":
        return projectors.ProjectorFamily.coordinate_split(*spec["sizes"])
    return projectors.ProjectorFamily.constant(*spec["matrices"])


def _builtin_coefficient(spec: dict, dimension: int):
    """Coefficient of a builtin generator; the parser checked its keys."""
    omega = float(spec.get("omega", 1.0))
    if spec["name"] == "rotation":
        a = np.array([[0.0, omega], [-omega, 0.0]])
        return lambda t: a
    base = np.asarray(spec.get("base", [0.0] * dimension), dtype=float)
    amplitude = np.asarray(spec.get("amplitude", [0.0] * dimension), dtype=float)
    return lambda t: np.diag(base + amplitude * math.cos(omega * t))


def _build_operator(scenario: Scenario, family, grid) -> evolution.EvolutionOperator:
    spec = scenario.operator
    if spec["type"] == "rate_model":
        r = scenario.rates
        return evolution.rate_model(r["u"], r["h"], r["k"], r["mu"], r["nu"],
                                    family)
    if "matrix" in spec:
        gen = evolution.GeneratorSpec.constant(spec["matrix"], float(spec["step"]))
    else:
        coeff = _builtin_coefficient(spec["builtin"], scenario.dimension)
        gen = evolution.GeneratorSpec(scenario.dimension, coeff,
                                      float(spec["step"]))
    lattice = norms.query_lattice(grid, scenario.horizon, scenario.grid_step)
    return evolution.from_generator(gen, anchors=lattice)


def _run_check(name: str, ws: _Workspace) -> dict:
    s = ws.scenario
    grid = ws.grid
    if name == "orthogonality":
        rep = projectors.check_orthogonal(ws.family, grid, s.tol_structural)
        return _entry(name, rep.passed, rep.payload(), rep)
    if name == "cocycle":
        ident = evolution.check_identity(ws.operator, grid, s.tol_structural)
        coc = evolution.check_cocycle(ws.operator, grid_slots(len(grid)),
                                      s.tol_structural, pairs=grid_pairs(grid))
        payload = {"tol": s.tol_structural,
                   "residuals": {**ident.residuals, **coc.residuals}}
        ok = ident.passed and coc.passed
        rows = ident.csv_rows(name) + coc.csv_rows(name)
        return _entry(name, ok, payload, rows=rows)
    if name == "invariance":
        rep = projectors.check_invariance(ws.family, ws.operator,
                                          grid_pairs(grid), s.tol_structural)
        return _entry(name, rep.passed, rep.payload(), rep)
    if name == "compatibility":
        rep = projectors.check_compatible(ws.family, ws.operator, grid,
                                          s.tol_structural, ws.inverses)
        return _entry(name, rep.passed, rep.payload(), rep)
    if name in ("trichotomy", "trichotomy_full", "uniform", "dichotomy"):
        return _run_splitting(name, ws)
    if name == "norms":
        return _run_norms(ws)
    if name == "norm_trichotomy":
        fwd, bwd = ws.norm_families(s.rates)
        rep = ws.norm_theorem(s.rates)
        suff = norms.verify_sufficiency(
            fwd, bwd, grid, s.samples, s.seed, factors=ws.factors(s.rates),
            compatibility=ws.compatibility(s.rates))
        payload = {"necessity": rep.payload(), "sufficiency": suff.payload()}
        rows = rep.csv_rows(name) + suff.csv_rows(name + "_sufficiency")
        return _entry(name, rep.passed and bool(suff.passed), payload, rows=rows)
    if name == "norm_trichotomy_unprojected":
        fwd, bwd = ws.norm_families(s.rates)
        rep = norms.verify_norm_trichotomy_unprojected(
            fwd, bwd, grid, s.tol_theorem, s.samples, s.seed,
            sides=ws.theorem_sides(s.rates))
        return _entry(name, rep.passed, rep.payload(), rep)
    if name == "rate_instantiation":
        kind, exponents = _instantiation_spec(s)
        rep = ws.norm_theorem(norms.specialization_rates(kind, exponents))
        payload = {"kind": kind, "exponents": list(exponents), **rep.payload()}
        return _entry(name, rep.passed, payload, rep)
    raise ValueError(f"unknown check {name!r}")


def _instantiation_spec(s: Scenario) -> tuple[str, list[float]]:
    if s.rate_instantiation is not None:
        return (s.rate_instantiation["kind"],
                [float(v) for v in s.rate_instantiation["exponents"]])
    kinds = {s.rates[k].kind for k in ("h", "k", "mu", "nu")}
    if len(kinds) == 1 and kinds <= {"exponential", "polynomial"}:
        return kinds.pop(), [s.rates[k].exponent for k in ("h", "k", "mu", "nu")]
    raise ScenarioError(
        "rate_instantiation requested but scenario rates are mixed or "
        "tabulated; add a rate_instantiation block with kind and exponents")


def _run_splitting(name: str, ws: _Workspace) -> dict:
    s = ws.scenario
    bound = s.bounds.get("trichotomy")
    if name == "trichotomy_full":
        rep = trichotomy.check_trichotomy_full(ws.operator, ws.family, s.rates,
                                               ws.grid, bound, ws.inverses)
    else:
        check, limit = {"trichotomy": (trichotomy.check_trichotomy, bound),
                        "dichotomy": (trichotomy.check_dichotomy, bound),
                        "uniform": (trichotomy.check_uniform,
                                    s.bounds.get("uniform"))}[name]
        rep = check(ws.operator, ws.family, s.rates, ws.grid, limit,
                    ws.inverses, factors=ws.factors(s.rates))
    ok = rep.passed if rep.passed is not None else True
    return _entry(name, ok, rep.payload(), rep)


def _run_norms(ws: _Workspace) -> dict:
    s = ws.scenario
    fwd, bwd = ws.norm_families(s.rates)
    rep_f, rep_b = ws.compatibility(s.rates)
    sens = {
        "forward": {"abs": fwd.horizon_delta_abs, "rel": fwd.horizon_delta_rel,
                    "flagged": fwd.horizon_flagged},
        "backward": {"abs": bwd.horizon_delta_abs, "rel": bwd.horizon_delta_rel,
                     "flagged": bwd.horizon_flagged},
    }
    ok = (rep_f.passed and rep_b.passed
          and not fwd.horizon_flagged and not bwd.horizon_flagged)
    payload = {"forward": rep_f.payload(), "backward": rep_b.payload(),
               "horizon_sensitivity": sens}
    rows = rep_f.csv_rows("norms_forward") + rep_b.csv_rows("norms_backward")
    return _entry("norms", ok, payload, rows=rows)


def _entry(name: str, ok: bool, payload: dict, report=None, rows=None) -> dict:
    if rows is None:
        rows = report.csv_rows(name) if report is not None else []
    return {"name": name, "status": "pass" if ok else "fail",
            "payload": payload, "rows": rows}


def run(scenario: Scenario) -> RunReport:
    """Execute the requested checks in dependency order."""
    ws = _Workspace(scenario)
    stage_of = {name: i for i, names in enumerate(STAGES) for name in names}
    ordered = [name for names in STAGES for name in names
               if name in scenario.checks]

    entries = []
    timing: dict[str, float] = {}
    failed_stage = None
    for name in ordered:
        if failed_stage is not None and stage_of[name] > failed_stage:
            entries.append({"name": name, "status": "skipped",
                            "payload": {"reason": "earlier stage failed"},
                            "rows": []})
            continue
        start = time.perf_counter()
        try:
            entry = _run_check(name, ws)
        except Exception as exc:  # recorded per check, dependents skip
            entry = {"name": name, "status": "error",
                     "payload": {"error": f"{type(exc).__name__}: {exc}"},
                     "rows": []}
        timing[name] = time.perf_counter() - start
        entries.append(entry)
        if entry["status"] != "pass" and failed_stage is None:
            failed_stage = stage_of[name]

    overall = "pass"
    if any(e["status"] == "error" for e in entries):
        overall = "error"
    elif any(e["status"] in ("fail", "skipped") for e in entries):
        overall = "fail"
    return RunReport(scenario=scenario.echo, checks=entries, overall=overall,
                     timing=timing)


# -- serialization ----------------------------------------------------------

COLUMNS = ("check", "t", "s", "tag", "value", "margin", "vector")


def emit(report: RunReport, format: str, out_dir) -> list[Path]:
    """Write report files; returns the written paths.

    ``format`` is "json", "csv" or "both". Identical report contents produce
    byte-identical files; a non-finite number raises ValueError.
    """
    if format not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv or both, got {format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if format in ("json", "both"):
        tree = {
            "scenario": report.scenario,
            "overall": report.overall,
            "checks": [{"name": e["name"], "status": e["status"],
                        "payload": e["payload"]} for e in report.checks],
        }
        path = out / "report.json"
        path.write_text(json.dumps(tree, indent=2, allow_nan=False) + "\n")
        written.append(path)

    if format in ("csv", "both"):
        rows = [row for e in report.checks for row in e["rows"]]
        if not all(math.isfinite(v) for row in rows for v in row
                   if isinstance(v, float)):
            raise ValueError("cannot serialize a non-finite number")
        if rows:
            path = out / "records.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(COLUMNS)
                writer.writerows(row + ("",) * (len(COLUMNS) - len(row))
                                 for row in rows)
            written.append(path)
        path = out / "summary.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["check", "status"])
            for e in report.checks:
                writer.writerow([e["name"], e["status"]])
            writer.writerow(["overall", report.overall])
        written.append(path)
    return written
