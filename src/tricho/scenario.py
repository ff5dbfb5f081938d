"""Scenario files: a JSON key-value tree describing one verification run.

The full schema is documented in the README. Parsing validates every
invariant up front and raises ScenarioError naming the offending key. It
turns the tree into the objects a run uses: growth rates, the projector
family, the generator of an ``ode`` operator and the rate instantiation
spec, so this module alone reads the scenario format. Parsing calls no
coefficient: the operator is integrated by the runner.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .evolution import GeneratorSpec
from .projectors import ProjectorFamily
from .rates import GrowthRate

STAGES = (  # the checks a run takes, by stage in dependency order
    ("orthogonality",),
    ("cocycle",),
    ("invariance", "compatibility"),
    ("trichotomy", "trichotomy_full", "uniform", "dichotomy"),
    ("norms",),
    ("norm_trichotomy", "norm_trichotomy_unprojected", "rate_instantiation"),
)
STRUCTURAL = 3  # the leading stages of STAGES; only their failure skips later ones
CHECK_NAMES = tuple(name for stage in STAGES for name in stage)
RATE_KEYS = ("h", "k", "mu", "nu")


@dataclass
class Scenario:
    """A parsed scenario. ``generator`` is None for the rate model, whose
    operator is built from the rates and ``family``; ``instantiation`` is the
    ``(kind, exponents)`` the rate_instantiation check takes, None when
    neither a block nor the scenario's own rates give one."""

    dimension: int
    family: ProjectorFamily
    generator: GeneratorSpec | None
    rates: dict[str, GrowthRate]
    grid_max: float
    grid_step: float
    horizon: float
    tol_structural: float
    tol_theorem: float
    seed: int
    samples: int
    checks: list[str]
    bounds: dict = field(default_factory=dict)
    instantiation: tuple[str, list[float]] | None = None
    echo: dict = field(default_factory=dict)  # normalized source tree


def _require(tree: dict, key: str, kind, where: str = "scenario"):
    if key not in tree:
        raise ScenarioError(f"{where}.{key} is missing")
    value = tree[key]
    if isinstance(value, bool) or not isinstance(value, kind):  # bool is an int
        raise ScenarioError(f"{where}.{key} has wrong type "
                            f"({type(value).__name__})")
    return value


def _optional(tree: dict, key: str, kind, default, where: str = "scenario"):
    """``_require`` for a key that may be left out."""
    return _require(tree, key, kind, where) if key in tree else default


def _known(tree: dict, keys, where: str = "scenario") -> None:
    """Reject a key outside ``keys``: a misspelt optional key, not its default."""
    for key in tree:
        if key not in keys:
            raise ScenarioError(f"{where}.{key} is not a known key")


def _finite(x) -> bool:
    """True for an int or float that is a finite float; JSON booleans are
    not numbers, and neither is an int too large for a float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def _number(tree: dict, key: str, where: str = "scenario", default=None) -> float:
    """A finite number at ``tree[key]``; ``default``, if given, when left out."""
    if default is not None and key not in tree:
        return default
    value = _require(tree, key, (int, float), where)
    if not _finite(value):
        raise ScenarioError(f"{where}.{key} must be finite")
    return float(value)


def _finite_array(value, shape: tuple, where: str) -> None:
    """Reject anything but finite numbers of the given shape at ``where``."""
    arr = np.array(value, dtype=object)
    if arr.shape != shape or not all(map(_finite, arr.flat)):
        raise ScenarioError(f"{where} must hold finite numbers of shape {shape}")


def _bounded_ratio(rate: GrowthRate, gap: float, where: str) -> None:
    """Reject a rate whose ratio over ``gap`` overflows a float."""
    try:
        finite = math.isfinite(rate.ratio(gap, 0.0))
    except OverflowError:
        finite = False
    if not finite:
        raise ScenarioError(f"{where}: ratio over a gap of {gap:g} overflows")


def _parse_rate(spec, key: str) -> GrowthRate:
    if not isinstance(spec, dict):
        raise ScenarioError(f"rates.{key} must be an object")
    kind = spec.get("kind")
    where = f"rates.{key}"
    try:
        if kind in ("exponential", "polynomial"):
            return GrowthRate(kind, _number(spec, "exponent", where))
        if kind == "tabulated":
            table = _require(spec, "table", list, where)
            where += ".table"
            _finite_array(table, (len(table), 2), where)
            return GrowthRate.tabulated(table)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"rates.{key}.kind must be exponential, polynomial "
                        f"or tabulated, got {kind!r}")


def _periodic_diag(base, amplitude, omega: float):
    """Coefficient diag(base + amplitude cos(omega t)) over an array of times."""
    base, amplitude = np.asarray(base, dtype=float), np.asarray(amplitude, dtype=float)
    n = len(base)

    def coefficient(times):  # math.cos per value: np.cos need not round the same
        cos = np.fromiter(map(math.cos, (omega * np.asarray(times)).tolist()), float)
        out = np.zeros((len(cos), n, n))
        out[:, range(n), range(n)] = base + amplitude * cos[:, None]
        return out
    return coefficient


def _parse_bound(spec, where: str):
    """A nondecreasing bound N(a) with N(0) >= 1: every grid starts at 0,
    where the factor |P_j(0)| of a nonzero projector is already >= 1."""
    kind = spec.get("kind")
    if kind == "constant":
        value = _number(spec, "value", where)
        if value < 1:
            raise ScenarioError(f"{where}.value must be >= 1")
        return lambda a: value
    if kind == "affine":
        coeff = _number(spec, "coeff", where)
        offset = _number(spec, "offset", where)
        if coeff < 0:
            raise ScenarioError(f"{where}.coeff must be nonnegative "
                                "(bounds are nondecreasing)")
        if offset < 1:
            raise ScenarioError(f"{where}.offset must be >= 1 (the bound at t = 0)")
        return lambda a: coeff * a + offset
    raise ScenarioError(f"{where}.kind must be constant or affine, got {kind!r}")


def read_tree(path):
    """The JSON tree of a scenario file, not yet checked."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc


def parse_scenario(path) -> Scenario:
    return scenario_from_tree(read_tree(path))


def scenario_from_tree(tree: dict) -> Scenario:
    if not isinstance(tree, dict):
        raise ScenarioError("scenario root must be an object")
    _known(tree, ("dimension", "grid", "horizon", "rates", "operator", "projectors",
                  "tolerances", "seed", "samples", "checks", "bounds",
                  "rate_instantiation"))
    n = _require(tree, "dimension", int)
    if n <= 0:
        raise ScenarioError("dimension must be positive")
    if 8 * n * n > np.iinfo(np.intp).max:  # more bytes than numpy can describe
        raise ScenarioError("dimension is too large for an n x n float64 array")

    grid = _require(tree, "grid", dict)
    t_max = _number(grid, "t_max", "grid")
    step = _number(grid, "step", "grid")
    if t_max <= 0:
        raise ScenarioError("grid.t_max must be positive")
    if step <= 0:
        raise ScenarioError("grid.step must be positive")
    if step > t_max:
        raise ScenarioError("grid.step must not exceed grid.t_max")

    horizon = _number(tree, "horizon", default=5.0)
    if horizon <= 0:
        raise ScenarioError("horizon must be positive")

    rates_tree = _require(tree, "rates", dict)
    _known(rates_tree, (*RATE_KEYS, "u"), "rates")
    rates = {key: _parse_rate(_require(rates_tree, key, dict, "rates"), key)
             for key in RATE_KEYS}
    if "u" in rates_tree:
        rates["u"] = _parse_rate(rates_tree["u"], "u")
    needed = t_max + 2.0 * horizon
    gap = max(t_max, 2.0 * horizon + step)  # widest gap of a rising ratio
    for key, rate in rates.items():
        span = rate.span
        if span is not None and span[1] < needed - 1e-9:
            raise ScenarioError(
                f"rates.{key}: tabulated span must reach t_max + 2*horizon "
                f"= {needed:g} (got {span[1]:g})")
        if span is None and key in RATE_KEYS:  # tabulated ratios are finite
            _bounded_ratio(rate, gap, f"rates.{key}")

    operator = _require(tree, "operator", dict)
    op_type = operator.get("type")
    if op_type == "rate_model":
        if "u" not in rates:
            raise ScenarioError("operator.type rate_model needs rates.u")
        generator = None
    elif op_type == "ode":
        op_step = _number(operator, "step", "operator")
        if op_step <= 0:
            raise ScenarioError("operator.step must be positive")
        if "matrix" in operator:
            _finite_array(operator["matrix"], (n, n), "operator.matrix")
            generator = GeneratorSpec.constant(operator["matrix"], op_step)
        elif "builtin" in operator:
            builtin = _require(operator, "builtin", dict, "operator")
            _known(builtin, ("name", "omega", "base", "amplitude"), "operator.builtin")
            name = builtin.get("name")
            if name not in ("rotation", "periodic_diag"):
                raise ScenarioError("operator.builtin.name must be rotation "
                                    f"or periodic_diag, got {name!r}")
            if name == "rotation" and n != 2:
                raise ScenarioError("operator.builtin.name rotation needs "
                                    f"dimension 2, got {n}")
            omega = _number(builtin, "omega", "operator.builtin", 1.0)
            if name == "rotation":
                generator = GeneratorSpec.constant([[0.0, omega], [-omega, 0.0]],
                                                   op_step)
            else:
                base = builtin.get("base", [0.0] * n)
                amplitude = builtin.get("amplitude", [0.0] * n)
                _finite_array(base, (n,), "operator.builtin.base")
                _finite_array(amplitude, (n,), "operator.builtin.amplitude")
                if not all(math.isfinite(abs(b) + abs(a))
                           for b, a in zip(base, amplitude)):
                    raise ScenarioError("operator.builtin: |base| + |amplitude| overflows")
                generator = GeneratorSpec(n, _periodic_diag(base, amplitude, omega),
                                          op_step)
        else:
            raise ScenarioError("operator needs either matrix or builtin")
    else:
        raise ScenarioError(f"operator.type must be rate_model or ode, got {op_type!r}")

    projectors = _require(tree, "projectors", dict)
    proj_type = projectors.get("type")
    if proj_type == "coordinate_split":
        sizes = _require(projectors, "sizes", list, "projectors")
        if len(sizes) != 3 or any(type(v) is not int or v < 0 for v in sizes):
            raise ScenarioError("projectors.sizes must be three nonnegative integers")
        if sum(sizes) != n:
            raise ScenarioError(
                f"projectors.sizes must sum to dimension {n}, got {sum(sizes)}")
        family = ProjectorFamily.coordinate_split(*sizes)
    elif proj_type == "explicit":
        mats = _require(projectors, "matrices", list, "projectors")
        if len(mats) != 3:
            raise ScenarioError("projectors.matrices must list three matrices")
        for i, m in enumerate(mats):
            _finite_array(m, (n, n), f"projectors.matrices[{i}]")
        family = ProjectorFamily.constant(*mats)
    else:
        raise ScenarioError("projectors.type must be coordinate_split or "
                            f"explicit, got {proj_type!r}")

    tols = _optional(tree, "tolerances", dict, {})
    _known(tols, ("structural", "theorem"), "tolerances")
    tol_structural = _number(tols, "structural", "tolerances", 1e-10)
    tol_theorem = _number(tols, "theorem", "tolerances", 1e-9)
    if tol_structural <= 0 or tol_theorem <= 0:
        raise ScenarioError("tolerances must be positive")

    seed = _optional(tree, "seed", int, 0)
    samples = _optional(tree, "samples", int, 32)
    for key, value in (("seed", seed), ("samples", samples)):
        if value < 0:
            raise ScenarioError(f"{key} must be a nonnegative integer")
    if 8 * n * (n + samples) > np.iinfo(np.intp).max:
        raise ScenarioError("samples is too large for the n x (n + samples) "
                            "float64 test vectors")

    checks = tree.get("checks", [])
    if not isinstance(checks, list):
        raise ScenarioError("checks must be a list")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ScenarioError(f"checks: unknown check {name!r} "
                                f"(known: {', '.join(CHECK_NAMES)})")

    bounds_tree = _optional(tree, "bounds", dict, {})
    _known(bounds_tree, ("trichotomy", "uniform"), "bounds")
    bounds = {}
    if "trichotomy" in bounds_tree:
        bounds["trichotomy"] = _parse_bound(
            _require(bounds_tree, "trichotomy", dict, "bounds"),
            "bounds.trichotomy")
    if "uniform" in bounds_tree:
        value = _number(bounds_tree, "uniform", "bounds")
        if value < 1:
            raise ScenarioError("bounds.uniform must be a number >= 1")
        bounds["uniform"] = value

    inst = _optional(tree, "rate_instantiation", (dict, type(None)), None)
    instantiation = None
    if inst is not None:
        kind = inst.get("kind")
        if kind not in ("exponential", "polynomial"):
            raise ScenarioError("rate_instantiation.kind must be exponential "
                                "or polynomial")
        exps = _require(inst, "exponents", list, "rate_instantiation")
        if len(exps) != 4 or not all(_finite(v) and v > 0 for v in exps):
            raise ScenarioError("rate_instantiation.exponents must be four "
                                "finite positive numbers")
        _bounded_ratio(GrowthRate(kind, float(max(exps))), gap,  # the largest ratio
                       "rate_instantiation.exponents")
        instantiation = kind, [float(v) for v in exps]
    else:  # the scenario's own rates, when they share one closed-form kind
        kinds = {rates[key].kind for key in RATE_KEYS}
        if len(kinds) == 1 and kinds <= {"exponential", "polynomial"}:
            instantiation = kinds.pop(), [rates[key].exponent for key in RATE_KEYS]
    if instantiation is None and "rate_instantiation" in checks:
        raise ScenarioError(
            "rate_instantiation requested but scenario rates are mixed or "
            "tabulated; add a rate_instantiation block with kind and exponents")

    return Scenario(dimension=n, family=family, generator=generator, rates=rates,
                    grid_max=t_max, grid_step=step, horizon=horizon,
                    tol_structural=tol_structural, tol_theorem=tol_theorem,
                    seed=seed, samples=samples, checks=list(checks),
                    bounds=bounds, instantiation=instantiation,
                    echo=_normalize(tree))


def _normalize(value):
    """Deterministic echo of the scenario tree (keys sorted, floats kept)."""
    if isinstance(value, dict):
        return {k: _normalize(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value
