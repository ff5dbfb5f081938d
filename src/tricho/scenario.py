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

from .errors import PreconditionError, ScenarioError
from .evolution import GeneratorSpec, require_model_family
from .norms import _future_times
from .projectors import ProjectorFamily
from .rates import GrowthRate
from .util import make_grid, opnorm

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


_RULES = {"positive": lambda x: x > 0, "nonnegative": lambda x: x >= 0,
          ">= 1": lambda x: x >= 1}  # number rules, by the words of their message


def _require(tree: dict, key: str, kind, where: str = "scenario", default=None):
    """``tree[key]``, a ``kind`` but not a bool; ``default``, if given, when left out."""
    if key not in tree:
        if default is None:
            raise ScenarioError(f"{where}.{key} is missing")
        return default
    value = tree[key]
    if isinstance(value, bool) or not isinstance(value, kind):  # bool is an int
        raise ScenarioError(f"{where}.{key} has wrong type "
                            f"({type(value).__name__})")
    return value


def _known(tree: dict, keys, where: str = "scenario") -> None:
    """Reject a key outside ``keys``: a misspelt optional key, not its default."""
    for key in tree:
        if key not in keys:
            raise ScenarioError(f"{where}.{key} is not a known key")


def _section(tree: dict, key: str, keys=None, where: str = "scenario", default=None):
    """The object at ``tree[key]``, or ``default`` if given and it is left out,
    with no key outside ``keys``; a typed object leaves them to ``_variant``."""
    node = _require(tree, key, dict, where, default)
    if keys is not None:
        _known(node, keys, f"{where}.{key}".removeprefix("scenario."))
    return node


def _variant(node: dict, field: str, kinds: dict, where: str) -> str:
    """``node[field]``, a key of ``kinds``, once ``node`` is known to hold no
    key but ``field`` and the keys ``kinds`` maps that type to."""
    value = node.get(field)
    if type(value) is not str or value not in kinds:  # a list is unhashable
        *others, last = kinds
        raise ScenarioError(f"{where}.{field} must be {', '.join(others)} "
                            f"or {last}, got {value!r}")
    _known(node, (field, *kinds[value]), where)
    return value


def _finite(x) -> bool:
    """True for an int or float that is a finite float; JSON booleans are
    not numbers, and neither is an int too large for a float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def _number(tree: dict, key: str, where: str = "scenario", default=None,
            rule: str | None = None, kind=(int, float)):
    """A finite float at ``tree[key]`` (any int when ``kind`` is int) meeting
    ``rule``, a key of ``_RULES``; ``default``, if given, when left out."""
    value = _require(tree, key, kind, where, default)
    if kind is not int and not _finite(value):
        raise ScenarioError(f"{where}.{key} must be finite")
    if rule is not None and not _RULES[rule](value):
        raise ScenarioError(f"{where}.{key}".removeprefix("scenario.")
                            + f" must be {rule}")
    return value if kind is int else float(value)


def _finite_array(value, shape: tuple, where: str) -> None:
    """Reject anything but finite numbers of the given shape at ``where``."""
    arr = np.array(value, dtype=object)
    if arr.shape != shape or not all(map(_finite, arr.flat)):
        raise ScenarioError(f"{where} must hold finite numbers of shape {shape}")


def _bounded_ratio(rate: GrowthRate, gap: float, where: str) -> None:
    """Reject a closed-form rate whose ratio rate(gap) / rate(0) = rate(gap) overflows."""
    try:
        if math.isfinite(rate(gap)):  # the bits of rate.ratios([gap], [0.0]), without numpy
            return
    except OverflowError:
        pass
    raise ScenarioError(f"{where}: ratio over a gap of {gap:g} overflows")


def _parse_rate(rates: dict, key: str) -> GrowthRate:
    where = f"rates.{key}"
    spec = _section(rates, key, where="rates")
    kind = _variant(spec, "kind", {"exponential": ("exponent",), "polynomial": (
        "exponent",), "tabulated": ("table",)}, where)
    if kind != "tabulated":
        return GrowthRate(kind, _number(spec, "exponent", where, rule="positive"))
    table = _require(spec, "table", list, where)
    _finite_array(table, (len(table), 2), f"{where}.table")
    try:
        return GrowthRate.tabulated(table)
    except ValueError as exc:  # the knots' order and values
        raise ScenarioError(f"{where}.table: {exc}") from exc


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


def _parse_generator(tree: dict, n: int, rates: dict) -> GeneratorSpec | None:
    """The generator of an ``ode`` operator; None for the rate model."""
    operator = _section(tree, "operator")
    if _variant(operator, "type", {"rate_model": (), "ode": (
            "step", "matrix", "builtin")}, "operator") == "rate_model":
        if "u" not in rates:
            raise ScenarioError("operator.type rate_model needs rates.u")
        return None
    step = _number(operator, "step", "operator", rule="positive")
    if ("matrix" in operator) == ("builtin" in operator):
        raise ScenarioError("operator takes either matrix or builtin (exactly one)")
    if "matrix" in operator:
        _finite_array(operator["matrix"], (n, n), "operator.matrix")
        return GeneratorSpec.constant(operator["matrix"], step)
    where = "operator.builtin"
    builtin = _section(operator, "builtin", where="operator")
    name = _variant(builtin, "name", {"rotation": ("omega",), "periodic_diag": (
        "omega", "base", "amplitude")}, where)
    if name == "rotation" and n != 2:
        raise ScenarioError(f"{where}.name rotation needs dimension 2, got {n}")
    omega = _number(builtin, "omega", where, 1.0)
    if name == "rotation":
        return GeneratorSpec.constant([[0.0, omega], [-omega, 0.0]], step)
    base = builtin.get("base", [0.0] * n)
    amplitude = builtin.get("amplitude", [0.0] * n)
    _finite_array(base, (n,), f"{where}.base")
    _finite_array(amplitude, (n,), f"{where}.amplitude")
    if not all(math.isfinite(abs(b) + abs(a)) for b, a in zip(base, amplitude)):
        raise ScenarioError(f"{where}: |base| + |amplitude| overflows")
    return GeneratorSpec(n, _periodic_diag(base, amplitude, omega), step)


def _parse_family(tree: dict, n: int) -> tuple[ProjectorFamily, str]:
    """The projector family and the key of ``projectors`` that gives its members."""
    projectors = _section(tree, "projectors")
    if _variant(projectors, "type", {"coordinate_split": ("sizes",), "explicit": (
            "matrices",)}, "projectors") == "coordinate_split":
        sizes = _require(projectors, "sizes", list, "projectors")
        if len(sizes) != 3 or any(type(v) is not int or v < 0 for v in sizes):
            raise ScenarioError("projectors.sizes must be three nonnegative integers")
        if sum(sizes) != n:
            raise ScenarioError(
                f"projectors.sizes must sum to dimension {n}, got {sum(sizes)}")
        return ProjectorFamily.coordinate_split(*sizes), "sizes"
    mats = _require(projectors, "matrices", list, "projectors")
    if len(mats) != 3:
        raise ScenarioError("projectors.matrices must list three matrices")
    for i, m in enumerate(mats):
        _finite_array(m, (n, n), f"projectors.matrices[{i}]")
    return ProjectorFamily.constant(*mats), "matrices"


def _parse_bound(bounds: dict, last: float):
    """A nondecreasing bound N(a) with N(0) >= 1 and finite at the last grid
    time ``last``: every grid starts at 0, where |P_j(0)| >= 1 if P_j != 0."""
    where = "bounds.trichotomy"
    spec = _section(bounds, "trichotomy", where="bounds")
    if _variant(spec, "kind", {"constant": ("value",), "affine": (
            "coeff", "offset")}, where) == "constant":
        value = _number(spec, "value", where, rule=">= 1")
        return lambda a: np.full_like(a, value, dtype=float)
    coeff = _number(spec, "coeff", where, rule="nonnegative")
    offset = _number(spec, "offset", where, rule=">= 1")
    if not math.isfinite(coeff * last + offset):  # a float product overflows to inf
        raise ScenarioError(f"{where} overflows at t_max = {last:g}")
    return lambda a: coeff * a + offset


def read_tree(path):
    """The JSON tree of a scenario file, not yet checked. A file that cannot
    be read (missing, or a directory) or is not UTF-8 JSON raises ScenarioError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"scenario file {path} cannot be read: "
                            f"{exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc


def parse_scenario(path) -> Scenario:
    return scenario_from_tree(read_tree(path))


def scenario_from_tree(tree: dict) -> Scenario:
    if not isinstance(tree, dict):
        raise ScenarioError("scenario root must be an object")
    _known(tree, ("dimension", "grid", "horizon", "rates", "operator", "projectors",
                  "tolerances", "seed", "samples", "checks", "bounds",
                  "rate_instantiation"))
    n = _number(tree, "dimension", rule="positive", kind=int)
    if 8 * n * n > np.iinfo(np.intp).max:  # more bytes than numpy can describe
        raise ScenarioError("dimension is too large for an n x n float64 array")

    grid = _section(tree, "grid", ("t_max", "step"))
    t_max = _number(grid, "t_max", "grid", rule="positive")
    step = _number(grid, "step", "grid", rule="positive")
    if step > t_max:
        raise ScenarioError("grid.step must not exceed grid.t_max")
    horizon = _number(tree, "horizon", default=5.0, rule="positive")

    rates_tree = _section(tree, "rates", (*RATE_KEYS, "u"))
    rates = {key: _parse_rate(rates_tree, key) for key in (*RATE_KEYS, "u")
             if key != "u" or key in rates_tree}
    last = make_grid(t_max, step)[-1]
    reach = _future_times(last, 2.0 * horizon, step)[-1]  # as the norms' lattice steps
    gap = max(t_max, 2.0 * horizon + step)  # widest gap of a rising ratio
    for key, rate in rates.items():
        span = rate.span
        if span is not None and span[1] < reach:
            raise ScenarioError(
                f"rates.{key}: tabulated span must reach t_max + 2*horizon = "
                f"{t_max + 2.0 * horizon:g} on the norms' lattice, at {reach:g} (got {span[1]:g})")
        if span is None and key in RATE_KEYS:  # tabulated ratios are finite
            _bounded_ratio(rate, gap, f"rates.{key}")

    generator = _parse_generator(tree, n, rates)
    family, members = _parse_family(tree, n)

    tols = _section(tree, "tolerances", ("structural", "theorem"), default={})
    tol_structural = _number(tols, "structural", "tolerances", 1e-10, "positive")
    tol_theorem = _number(tols, "theorem", "tolerances", 1e-9, "positive")
    seed = _number(tree, "seed", default=0, rule="nonnegative", kind=int)
    samples = _number(tree, "samples", default=32, rule="nonnegative", kind=int)
    if 8 * n * (n + samples) > np.iinfo(np.intp).max:
        raise ScenarioError("samples is too large for the n x (n + samples) "
                            "float64 test vectors")

    checks = _require(tree, "checks", list, default=[])
    for name in checks:
        if name not in CHECK_NAMES:
            raise ScenarioError(f"checks: unknown check {name!r} "
                                f"(known: {', '.join(CHECK_NAMES)})")
    if "dichotomy" in checks and opnorm(family.stack(3, [0.0])[0]) > 1e-12:  # as check_dichotomy
        raise ScenarioError(f"projectors.{members}[2] gives a nonzero member 3: "
                            "dichotomy needs it to vanish")

    bounds_tree = _section(tree, "bounds", ("trichotomy", "uniform"), default={})
    bounds = {}
    if "trichotomy" in bounds_tree:
        bounds["trichotomy"] = _parse_bound(bounds_tree, last)
    if "uniform" in bounds_tree:
        bounds["uniform"] = _number(bounds_tree, "uniform", "bounds", rule=">= 1")

    instantiation = None
    if tree.get("rate_instantiation") is not None:
        inst = _section(tree, "rate_instantiation")
        kind = _variant(inst, "kind", dict.fromkeys(("exponential", "polynomial"), (
            "exponents",)), "rate_instantiation")
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

    if generator is None and members == "matrices":  # splits pass by construction
        try:  # the rate model's own check, last, so any other fault is named first
            require_model_family(family)
        except PreconditionError as exc:
            raise ScenarioError(f"projectors.matrices: {exc}") from exc
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
