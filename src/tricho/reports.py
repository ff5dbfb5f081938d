"""Report containers produced by the check operations.

Each report knows how to flatten itself into a plain dict of summaries
(``payload``) and into (check, t, s, tag, value, margin[, vector]) CSV rows
(``csv_rows``) so the runner can serialize any mix of checks uniformly.
Per-pair records appear only in the rows; a payload keeps, per tag, the
records that bind (``binding``).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field


def _first_max(records, key) -> dict:
    """Per tag, the first record in record order of largest ``key``."""
    best = {}
    for r in records:
        if r.tag not in best or key(r) > key(best[r.tag]):
            best[r.tag] = r
    return {tag: asdict(r) for tag, r in best.items()}


@dataclass
class ValidationReport:
    """Grid validation of a growth rate."""

    violations: list[str]
    slow_divergence: bool  # heuristic: growth over the grid looks too slow

    @property
    def ok(self) -> bool:
        return not self.violations


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
        return {
            "tol": self.tol,
            "residuals": dict(self.residuals),
            "notes": list(self.notes),
        }

    def csv_rows(self, check: str) -> list[tuple]:
        return [(check, "", "", key, value, self.tol - value)
                for key, value in self.residuals.items()]


@dataclass
class FactorRecord:
    """Minimal admissible bounding factor for one inequality at one pair."""

    tag: str
    t: float
    s: float
    factor: float
    binds: str  # which argument the bounding function is attached to: "s" or "t"
    bound: float | None = None
    margin: float | None = None


@dataclass
class TrichotomyReport:
    """Empirical bounding-function requirements over a time grid.

    ``envelope`` is the smallest nondecreasing majorant (running maximum,
    floored at 1) of the pointwise requirements; ``uniform_constant`` is its
    maximum. Verdicts are grid-relative evidence, never proof.
    """

    label: str
    grid: list[float]
    records: list[FactorRecord]
    pointwise: dict[str, list[float]]
    requirement: list[float]
    envelope: list[float]
    uniform_constant: float
    bound_values: list[float] | None = None
    passed: bool | None = None
    basis: str = "grid-evidence"

    def payload(self) -> dict:
        # binding: per tag, the record of the largest factor and, when a
        # bound is given, the record of the smallest margin
        binding = {tag: {"factor": r} for tag, r in
                   _first_max(self.records, lambda r: r.factor).items()}
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
            for tag, r in _first_max(self.records, lambda r: -r.margin).items():
                binding[tag]["margin"] = r
        return out

    def csv_rows(self, check: str) -> list[tuple]:
        return [(check, r.t, r.s, r.tag, r.factor,
                 "" if r.margin is None else r.margin)
                for r in self.records]


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
        return {
            "grid": list(self.grid),
            "ratios": list(self.ratios),
            "c_uniform": self.c_uniform,
            "lower_margin": self.lower_margin,
            "crosscheck_limit": list(self.crosscheck_limit),
            "crosscheck_ok": self.crosscheck_ok,
            "samples": self.samples,
            "seed": self.seed,
        }

    def csv_rows(self, check: str) -> list[tuple]:
        return [(check, t, "", "compatibility_ratio", c, limit - c)
                for t, c, limit in zip(self.grid, self.ratios, self.crosscheck_limit)]


@dataclass
class IneqRecord:
    """Worst-vector evaluation of one norm inequality at one pair."""

    tag: str
    t: float
    s: float
    vector_id: str
    lhs: float
    rhs: float
    margin: float
    vacuous: bool = False


@dataclass
class TheoremReport:
    """Margins for a norm-inequality system over grid pairs and sample vectors."""

    label: str
    records: list[IneqRecord]
    worst_per_tag: dict[str, float]
    min_margin: float
    tolerance: float
    truncation_slack: float
    passed: bool
    vacuous_count: int = 0
    seed: int = 0
    samples: int = 0

    def payload(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
            "truncation_slack": self.truncation_slack,
            "worst_per_tag": dict(self.worst_per_tag),
            "vacuous_count": self.vacuous_count,
            "samples": self.samples,
            "seed": self.seed,
            "binding": _first_max(self.records, lambda r: -r.margin),
        }

    def csv_rows(self, check: str) -> list[tuple]:
        return [(check, r.t, r.s, r.tag, r.lhs, r.margin, r.vector_id)
                for r in self.records]
