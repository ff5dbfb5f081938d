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
records that bind it; the per-pair records go only to ``records.csv``, one
row per (t, s) and one column per check, tag and field, written a chunk of
cells at a time with each distinct float of a chunk formatted once.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evolution, norms, projectors, trichotomy
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

_CELLS = 1024 * 7  # cells written a chunk at a time


def _floats(x: np.ndarray) -> np.ndarray:
    """The cells ``repr(v)`` of the floats ``x``, one ``repr`` per bit
    pattern: deduplicated by value, -0.0 and 0.0 would merge."""
    keys, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, keys.view(float).tolist())), dtype=object)[inverse]


def _header(blocks) -> tuple[list[str], list[list]]:
    """The column names after ``t,s``, ``<check>.<tag>.<field>``, a tag that
    repeats in its block numbered ``_1``, ``_2``, ...; and per block, the
    (field, array, (tags,) columns of the cell grid) of each field it has."""
    names, columns = [], []
    for check, rows in blocks:
        have = [f for f in ("value", "margin", "vector") if getattr(rows, f) is not None]
        columns.append([(f, getattr(rows, f), len(names) + 2 + i + len(have) * np.arange(
            len(rows.tags))) for i, f in enumerate(have)])
        for j, tag in enumerate(rows.tags):
            if rows.tags.count(tag) > 1:
                tag = f"{tag}_{rows.tags[:j + 1].count(tag)}"
            names += [f"{check}.{tag}.{f}" for f in have]
    return names, columns


def _rows(blocks) -> tuple[np.ndarray, list[tuple]]:
    """One row per (t, s) key, in the order keys first appear in record
    order: each row's time cells, (rows, 2), "" for no time; and the blocks
    grouped by their pair at each row (-1 where none), as (pairs, [block
    indices]). Times are told apart by their bits."""
    times = np.unique(np.concatenate([rows.grid for _, rows in blocks]).view(np.int64),
                      return_index=True)[0]  # a plain unique imports numpy.ma (~1 MB)
    width, rows_of = len(times) + 1, []  # time len(times): none
    row_of = np.full(width * width, -1, dtype=np.int32)  # key t * width + s -> row
    for _, rows in blocks:  # no key for a block of no records
        t, s = (len(times) if at is None else np.searchsorted(
            times, np.asarray(rows.grid, float).view(np.int64))[at] for at in (rows.t, rows.s))
        key = np.broadcast_to(t * width + s, rows.value.shape[:1])[:rows.value.size]
        new, first = np.unique(key[row_of[key] < 0], return_index=True)
        row_of[new[np.argsort(first)]] = np.arange(len(new)) + row_of.max() + 1
        rows_of.append(row_of[key])
    key, groups = np.argsort(row_of)[-(row_of.max() + 1):], {}
    for b, row in enumerate(rows_of):
        pair = np.full(len(key), -1, dtype=np.int32)
        pair[row] = np.arange(len(row))
        if np.count_nonzero(pair >= 0) < len(row):  # a row holds one record per tag
            raise ValueError(f"{blocks[b][0]} has two records of one tag at one (t, s)")
        groups.setdefault(pair.tobytes(), (pair, []))[1].append(b)
    texts = np.array([*map(repr, times.view(float).tolist()), ""], dtype=object)
    return texts[np.stack(np.divmod(key, width), axis=1)], list(groups.values())


def _text(blocks):
    """``records.csv``: its header, then a cell grid per chunk of about ``_CELLS``
    cells, floats formatted by ``_floats``. No name or vector id holds a comma."""
    names, columns = _header(blocks)
    times, groups = _rows(blocks)
    yield ",".join(["t", "s", *names]) + "\n"
    width = len(names) + 2
    blank = np.full((max(1, _CELLS // width), width - 2), "", dtype=object)  # rows per chunk
    for lo in range(0, len(times), len(blank)):
        chunk = slice(lo, lo + len(blank))
        cells = np.concatenate([times[chunk], blank[:len(times[chunk])]], axis=1)
        floats, spots = [], []
        for pair, members in groups:
            row = np.flatnonzero(pair[chunk] >= 0)[:, None]
            pair, spot = pair[chunk][row[:, 0]], row * width
            for f, a, cols in (c for b in members if row.size for c in columns[b]):
                if f == "vector":
                    cells[row, cols] = a[pair]
                else:
                    floats.append(a[pair])
                    spots.append(spot + cols)
        cells.reshape(-1)[np.concatenate(spots, axis=None)] = _floats(
            np.concatenate(floats, axis=None))
        yield "\n".join(map(",".join, cells.tolist())) + "\n"


def emit(report: RunReport, format: str, out_dir) -> list[Path]:
    """Write report files; returns the written paths.

    ``format`` is "json", "csv" or "both". ``records.csv`` is written from
    the checks' columns (``Rows``), one row per (t, s) key and one column per
    ``<check>.<tag>.<field>`` (``_header``, ``_rows``). Identical report
    contents give byte-identical files; a non-finite number raises ValueError.
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
                fh.writelines(_text(blocks))
            written.append(path)
        path = out / "summary.csv"
        lines = ["check,status", *(f"{e['name']},{e['status']}" for e in report.checks),
                 f"overall,{report.overall}"]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
