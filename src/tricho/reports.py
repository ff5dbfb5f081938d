"""Report containers produced by the check operations.

Each report flattens itself into a plain dict of summaries (``payload``)
and into (check, ``Rows``) blocks of ``records.csv`` columns (``csv_rows``).
Per-pair results stay the (pairs, tags) arrays the kernels produce: a
payload keeps, per tag, the records that bind (``binding``), and
``records`` builds every record as a dict on demand.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass(eq=False)
class Rows:
    """Records of one check as columns. Record ``p * len(tags) + j`` is tag
    ``tags[j]`` at the pair (grid[t[p]], grid[s[p]]), so records run in C
    order of the (pairs, tags) arrays. ``records.csv`` writes ``value``,
    ``margin`` and ``vector``, a column or time of None as empty cells.
    ``fields`` are a record's named columns after its tag and times, each
    broadcast to (pairs, tags), None where unset."""

    grid: list[float]
    t: np.ndarray | None  # (pairs,) grid indices
    s: np.ndarray | None
    tags: list[str]
    value: np.ndarray
    margin: np.ndarray | None = None
    vector: np.ndarray | None = None  # sample-vector ids
    fields: dict = field(default_factory=dict)

    def record(self, p: int, j: int) -> dict:
        return {"tag": self.tags[j], "t": self.grid[self.t[p]],
                "s": self.grid[self.s[p]], **{
                    name: None if col is None
                    else np.broadcast_to(col, self.value.shape)[p, j].item()
                    for name, col in self.fields.items()}}

    def records(self) -> list[dict]:
        return [self.record(p, j) for p, j in np.ndindex(self.value.shape)]


def _first(tags, values, pick=np.argmin) -> dict[str, tuple[int, int]]:
    """Per tag, the (pair, column) of the first record in record order whose
    value ``pick`` selects."""
    out = {}
    for tag in dict.fromkeys(tags):
        cols = [j for j, name in enumerate(tags) if name == tag]
        p, c = divmod(int(pick(values[:, cols])), len(cols))
        out[tag] = (p, cols[c])
    return out


def smallest_margins(tables: list[Rows]) -> dict[str, dict]:
    """Per tag, the first record in record order of smallest margin; no tag
    is in two tables."""
    return {tag: table.record(*at) for table in tables
            for tag, at in _first(table.tags, table.margin).items()}


@dataclass
class CheckReport:
    """Worst residual per condition for a structural check."""

    name: str
    tol: float
    residuals: dict[str, float]
    passed: bool
    notes: list[str] = field(default_factory=list)

    @property
    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def payload(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("name", "passed")}

    def csv_rows(self, check: str) -> list[tuple[str, Rows]]:
        values = np.array([list(self.residuals.values())], dtype=float)
        return [(check, Rows([], None, None, list(self.residuals), values,
                             self.tol - values))]


@dataclass
class TrichotomyReport:
    """Empirical bounding-function requirements over a time grid.

    ``rows`` holds, per (pair, inequality), the record fields factor,
    binds, bound and margin (the last two None without a bound).
    ``envelope`` is the smallest nondecreasing majorant (running maximum,
    floored at 1) of the pointwise requirements; ``uniform_constant`` is its
    maximum. Verdicts are grid-relative evidence, never proof.
    """

    label: str
    grid: list[float]
    rows: Rows
    pointwise: dict[str, list[float]]
    requirement: list[float]
    envelope: list[float]
    uniform_constant: float
    bound_values: list[float] | None = None
    passed: bool | None = None
    basis: str = "grid-evidence"

    @property
    def records(self) -> list[dict]:
        return self.rows.records()

    def payload(self) -> dict:
        # binding: per tag, the record of the largest factor and, when a
        # bound is given, the record of the smallest margin
        r = self.rows
        binding = {tag: {"factor": r.record(*at)}
                   for tag, at in _first(r.tags, r.value, np.argmax).items()}
        out = {
            "grid": list(self.grid),
            "uniform_constant": self.uniform_constant,
            "envelope": list(self.envelope),
            "requirement": list(self.requirement),
            "pointwise": {k: list(v) for k, v in self.pointwise.items()},
            "verdict_basis": self.basis,
            "binding": binding,
        }
        if self.bound_values is not None:
            out["bound_values"] = list(self.bound_values)
            for tag, at in _first(r.tags, r.margin).items():
                binding[tag]["margin"] = r.record(*at)
        return out

    def csv_rows(self, check: str) -> list[tuple[str, Rows]]:
        return [(check, self.rows)]


@dataclass
class CompatibilityReport:
    """Sandwich constants of a time-indexed norm family against the base norm."""

    grid: list[float]
    ratios: list[float]              # estimated C(t), one per grid time
    c_uniform: float                 # max over the grid
    lower_margin: float              # min of evaluator(t,x) - |x| over samples
    crosscheck_limit: list[float]    # 3 * envelope of full-norm requirements
    crosscheck_ok: bool
    samples: int
    seed: int
    passed: bool

    def payload(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "passed"}

    def csv_rows(self, check: str) -> list[tuple[str, Rows]]:
        ratios = np.array(self.ratios)[:, None]
        margin = np.array(self.crosscheck_limit)[:, None] - ratios
        return [(check, Rows(self.grid, np.arange(len(self.grid)), None,
                             ["compatibility_ratio"], ratios, margin))]


@dataclass
class TheoremReport:
    """Margins for a norm-inequality system over grid pairs and sample
    vectors: per table, the record fields vector_id, lhs, rhs, margin and
    vacuous of the worst sample vector at every (pair, inequality)."""

    label: str
    tables: list[Rows]
    worst_per_tag: dict[str, float]
    min_margin: float
    tolerance: float
    truncation_slack: float
    passed: bool
    vacuous_count: int = 0
    seed: int = 0
    samples: int = 0

    @property
    def records(self) -> list[dict]:
        return [r for table in self.tables for r in table.records()]

    def payload(self) -> dict:
        return {"min_margin": self.min_margin, "tolerance": self.tolerance,
                "truncation_slack": self.truncation_slack,
                "worst_per_tag": dict(self.worst_per_tag),
                "vacuous_count": self.vacuous_count, "samples": self.samples,
                "seed": self.seed, "binding": smallest_margins(self.tables)}

    def csv_rows(self, check: str) -> list[tuple[str, Rows]]:
        return [(check, table) for table in self.tables]
