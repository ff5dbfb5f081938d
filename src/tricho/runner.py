"""Orchestrates the checks requested by a scenario and emits reports.

Checks run in dependency stages (structure -> cocycle -> invariance ->
splitting systems -> norms -> norm theorems). When a check of a structural
stage (the first three) fails, later requested checks are marked "skipped",
never "passed". A failed splitting or norm check skips nothing: the norm
checks build their own factors, so a run shows both sides of the
characterization.
All output files are byte-stable for a fixed scenario and seed: numbers are
written as their shortest round-trip ``repr`` and wall-clock timing stays
out of the emitted artifacts (it is kept on the in-memory report and
printed by the CLI). ``report.json`` holds check summaries, each with the
records that bind it; the per-pair records go only to ``records.csv``,
written in chunks of records that format each distinct float once, and a
column whose bits several checks write once.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evolution, norms, projectors, trichotomy
from .reports import Rows
from .scenario import STAGES, STRUCTURAL, Scenario
from .util import make_grid


@dataclass
class RunReport:
    scenario: dict
    checks: list[dict]
    overall: str
    timing: dict[str, float] = field(default_factory=dict)  # stdout only

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}.get(self.overall, 2)


def _build_operator(scenario: Scenario, grid) -> evolution.EvolutionOperator:
    """The rate model, or the scenario's generator integrated over the query
    lattice; built here, not at parse time, so parsing calls no coefficient."""
    if scenario.generator is None:
        r = scenario.rates
        return evolution.rate_model(r["u"], r["h"], r["k"], r["mu"], r["nu"],
                                    scenario.family)
    lattice = norms.query_lattice(grid, scenario.horizon, scenario.grid_step)
    return evolution.from_generator(scenario.generator, anchors=lattice)


def _norm_families(scenario: Scenario, operator, grid) -> list:
    """Forward and backward norm families of the scenario's rates and sample batch."""
    return [norms.build_norm_family(variant, operator, scenario.family,
                                    scenario.rates, scenario.horizon,
                                    scenario.grid_step, grid, scenario.samples,
                                    scenario.seed)
            for variant in norms.VARIANTS]


def _run_check(name: str, scenario: Scenario, operator, grid) -> tuple[bool, dict, list]:
    """Whether one check passed, its payload and its ``records.csv`` rows."""
    s, op, family, tol = scenario, operator, scenario.family, scenario.tol_structural
    if name == "orthogonality":
        return _outcome(name, projectors.check_orthogonal(family, grid, tol))
    if name == "cocycle":
        ident = evolution.check_identity(op, grid, tol)
        coc = evolution.check_cocycle(op, grid, tol)
        payload = {"tol": tol, "residuals": {**ident.residuals, **coc.residuals}}
        return (ident.passed and coc.passed, payload,
                ident.csv_rows(name) + coc.csv_rows(name))
    if name == "invariance":
        return _outcome(name, projectors.check_invariance(family, op, grid, tol))
    if name == "compatibility":
        return _outcome(name, projectors.check_compatible(family, op, grid, tol))
    if name in ("trichotomy", "trichotomy_full", "uniform", "dichotomy"):
        limit = s.bounds.get("uniform" if name == "uniform" else "trichotomy")
        rep = getattr(trichotomy, f"check_{name}")(op, family, s.rates, grid, limit)
        return rep.passed is None or rep.passed, rep.payload(), rep.csv_rows(name)
    if name == "norms":
        fwd, bwd = _norm_families(s, op, grid)
        rep_f, rep_b = (norms.check_compatibility(nf) for nf in (fwd, bwd))
        ok = (rep_f.passed and rep_b.passed
              and not fwd.horizon_flagged and not bwd.horizon_flagged)
        payload = {"forward": rep_f.payload(), "backward": rep_b.payload(),
                   "horizon_sensitivity": {nf.variant: {
                       "abs": nf.horizon_delta_abs, "rel": nf.horizon_delta_rel,
                       "flagged": nf.horizon_flagged} for nf in (fwd, bwd)}}
        rows = rep_f.csv_rows("norms_forward") + rep_b.csv_rows("norms_backward")
        return ok, payload, rows
    if name == "norm_trichotomy":
        fwd, bwd = _norm_families(s, op, grid)
        rep = norms.verify_norm_trichotomy(fwd, bwd, s.tol_theorem)
        suff = norms.verify_sufficiency(fwd, bwd)
        payload = {"necessity": rep.payload(), "sufficiency": suff.payload()}
        rows = rep.csv_rows(name) + suff.csv_rows(name + "_sufficiency")
        return rep.passed and bool(suff.passed), payload, rows
    if name == "norm_trichotomy_unprojected":
        return _outcome(name, norms.verify_norm_trichotomy_unprojected(
            *_norm_families(s, op, grid), s.tol_theorem))
    if name == "rate_instantiation":
        kind, exponents = s.instantiation
        rep = norms.check_rate_specialization(
            kind, exponents, op, family, grid, s.horizon, s.grid_step,
            s.tol_theorem, s.samples, s.seed)
        payload = {"kind": kind, "exponents": list(exponents), **rep.payload()}
        return rep.passed, payload, rep.csv_rows(name)
    raise ValueError(f"unknown check {name!r}")


def _outcome(name: str, report) -> tuple[bool, dict, list]:
    return report.passed, report.payload(), report.csv_rows(name)


def _entry(name: str, status: str, payload: dict, rows=()) -> dict:
    return {"name": name, "status": status, "payload": payload, "rows": list(rows)}


def run(scenario: Scenario) -> RunReport:
    """Execute the requested checks in dependency order."""
    grid = make_grid(scenario.grid_max, scenario.grid_step)
    operator = _build_operator(scenario, grid)
    stage_of = {name: i for i, names in enumerate(STAGES) for name in names}
    ordered = [name for names in STAGES for name in names
               if name in scenario.checks]

    entries = []
    timing: dict[str, float] = {}
    failed_stage = None
    for name in ordered:
        if failed_stage is not None and stage_of[name] > failed_stage:
            entries.append(_entry(name, "skipped", {"reason": "earlier stage failed"}))
            continue
        start = time.perf_counter()
        try:  # an overflow raises, so no inf or nan reaches the report
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                ok, payload, rows = _run_check(name, scenario, operator, grid)
            entry = _entry(name, "pass" if ok else "fail", payload, rows)
        except Exception as exc:  # recorded per check
            entry = _entry(name, "error", {"error": f"{type(exc).__name__}: {exc}"})
        timing[name] = time.perf_counter() - start
        entries.append(entry)
        if entry["status"] != "pass" and stage_of[name] < STRUCTURAL:
            failed_stage = stage_of[name]
    operator.kept.clear()  # kept norm terms point back at the operator

    overall = "pass"
    if any(e["status"] == "error" for e in entries):
        overall = "error"
    elif any(e["status"] in ("fail", "skipped") for e in entries):
        overall = "fail"
    return RunReport(scenario=scenario.echo, checks=entries, overall=overall,
                     timing=timing)


# -- serialization ----------------------------------------------------------

COLUMNS = ("check", "t", "s", "tag", "value", "margin", "vector")
_CHUNK = 1024  # records formatted at a time; a column whose bits blocks share is held whole


def _floats(x: np.ndarray) -> np.ndarray:
    """The cells ``repr(v) + ","`` of the floats ``x``, one ``repr`` per bit
    pattern (``x`` a chunk, or a whole column several blocks write):
    deduplicated by value, -0.0 and 0.0 would merge."""
    keys, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return np.array([f"{v!r}," for v in keys.view(float).tolist()], dtype=object)[inverse]


def _column_keys(blocks) -> list[tuple]:
    """Per block, the keys of its value and margin columns (None where
    absent): a column's key is the id of the first column whose float64 bits
    equal its own, whichever object holds it. The size and a strided sample
    of the bits pick the candidates, and whole bit views confirm."""
    firsts = {}  # fingerprint -> the distinct columns that have it

    def key(a):
        if a is None:
            return None
        bits = a.ravel().view(np.int64)
        seen = firsts.setdefault((bits.size, bits[::max(1, bits.size // 32)].tobytes()), [])
        first = next((b for b in seen if np.array_equal(b.ravel().view(np.int64), bits)), None)
        if first is None:
            seen.append(first := a)
        return id(first)
    return [(key(rows.value), key(rows.margin)) for _, rows in blocks]


def _text(rows: Rows, check: str, whole: list):
    """One block of records as CSV text of check ``check``, ``_CHUNK`` records
    a piece, filled into one cell grid whose constant cells are written once.
    ``whole`` holds, per float column (value, margin), its cells formatted
    whole, or None to format them per chunk. Names and sample-vector ids hold
    no delimiter or quote."""
    size = rows.value.size
    times = np.array([f"{t!r}," for t in rows.grid], dtype=object)
    tags = np.array([f"{tag}," for tag in rows.tags], dtype=object)
    parts = np.full((min(_CHUNK, size), 7), ",", dtype=object)  # a None column: empty cells
    parts[:, 0] = check + ","
    floats = [(k, a.ravel(), cells) for k, a, cells
              in zip((4, 5), (rows.value, rows.margin), whole) if a is not None]
    if rows.vector is None:
        parts[:, 6] = "\n"
    else:
        ids, vector = np.unique(rows.vector.ravel(), return_inverse=True)
        ends = np.array([f"{v}\n" for v in ids.tolist()], dtype=object)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        cut = parts[:hi - lo]
        pair, tag = np.divmod(np.arange(lo, hi), len(rows.tags))
        cut[:, 3] = tags[tag]
        for k, at in ((1, rows.t), (2, rows.s)):
            if at is not None:
                cut[:, k] = times[at[pair]]
        for k, a, cells in floats:
            cut[:, k] = _floats(a[lo:hi]) if cells is None else cells[lo:hi]
        if rows.vector is not None:
            cut[:, 6] = ends[vector[lo:hi]]
        yield "".join(cut.ravel().tolist())


def emit(report: RunReport, format: str, out_dir) -> list[Path]:
    """Write report files; returns the written paths.

    ``format`` is "json", "csv" or "both". ``records.csv`` is written from
    the checks' columns (``Rows``) a chunk of records at a time. A value or
    margin column whose bits several blocks write is formatted once, whichever
    objects hold it. Identical report contents produce byte-identical files;
    a non-finite number raises ValueError.
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
        blocks = [block for e in report.checks for block in e["rows"]]
        if not all(np.isfinite(a).all() for _, rows in blocks
                   for a in (rows.value, rows.margin) if a is not None):
            raise ValueError("cannot serialize a non-finite number")
        if any(rows.value.size for _, rows in blocks):
            path = out / "records.csv"
            with path.open("w", newline="") as fh:
                fh.write(",".join(COLUMNS) + "\n")
                # a column whose bits several blocks write is formatted once, and
                # kept until the last of them is written
                keys = _column_keys(blocks)
                readers = Counter(key for pair in keys for key in pair if key is not None)
                kept = {}
                for (check, rows), pair in zip(blocks, keys):
                    for key, a in zip(pair, (rows.value, rows.margin)):
                        if readers[key] > 1 and key not in kept:
                            kept[key] = _floats(a.ravel())
                    fh.writelines(_text(rows, check, [kept.get(key) for key in pair]))
                    readers.subtract(key for key in pair if key is not None)
                    kept = {key: cells for key, cells in kept.items() if readers[key]}
            written.append(path)
        path = out / "summary.csv"
        lines = ["check,status", *(f"{e['name']},{e['status']}" for e in report.checks),
                 f"overall,{report.overall}"]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
