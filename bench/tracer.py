"""Span tracing of tricho's layers from outside the package.

``install()`` wraps public functions and methods by replacing the attribute
in every ``tricho`` module that holds it, so ``norms.required_factor`` and
``trichotomy.required_factor`` both reach the wrapper. Only a traced child
imports this module.

Coarse boundaries (check functions, ``build_norm_family``, ``run``,
``emit``, report payloads) get one span each: name, start, end, parent.
Hot leaves (``evaluate``, ``evaluate_many``, ``required_factor``,
``opnorm``, ``range_basis``, the restricted inverses) are aggregated as
count and time per parent span, which keeps memory bounded at G=101.
Self time is a call's duration minus the time of the wrapped calls inside
it. Coefficient calls of generated operators are counted only.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" wraps a method
SPANS = {
    "scenario.parse": [("scenario", "parse_scenario")],
    "evolution.build": [("evolution", "from_generator")],
    "evolution.cocycle": [("evolution", "check_identity"),
                          ("evolution", "check_cocycle")],
    "projectors.structure": [("projectors", "check_orthogonal"),
                             ("projectors", "check_invariance"),
                             ("projectors", "check_compatible")],
    "trichotomy.systems": [("trichotomy", name) for name in (
        "check_trichotomy", "check_trichotomy_full", "check_uniform",
        "check_dichotomy")],
    "norms.build": [("norms", "build_norm_family")],
    "norms.theorem": [("norms", name) for name in (
        "check_compatibility", "verify_norm_trichotomy",
        "verify_norm_trichotomy_unprojected", "verify_sufficiency",
        "check_rate_specialization")],
    "reports.payload": [("reports", f"{cls}.{method}") for cls in (
        "CheckReport", "TrichotomyReport", "CompatibilityReport",
        "TheoremReport") for method in ("payload", "csv_rows")],
    "runner.run": [("runner", "run")],
    "runner.emit": [("runner", "emit")],
}
LEAVES = {
    "evolution.evaluate": [("evolution", "EvolutionOperator.evaluate")],
    "norms.evaluate_many": [("norms", "LyapunovNormFamily.evaluate_many")],
    "trichotomy.required_factor": [("trichotomy", "required_factor")],
    "util.svd": [("util", "opnorm"), ("util", "range_basis")],
    "projectors.inverse": [("projectors", "compute_restricted_inverse")],
    "projectors.inverse_lookup": [("projectors", "InverseFamily.evaluate")],
}
COEFF = "evolution.coeff"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple[str, int], list] = {}  # -> [count, time, self]
        self.coeff_calls = 0
        self._child_time = [0.0]  # wrapped time inside each open call
        self._open_spans = [-1]

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "func": fn.__qualname__,
                      "parent": self._open_spans[-1]}
            self.spans.append(record)
            self._open_spans.append(span_id)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inner = self._child_time.pop()
                self._open_spans.pop()
                self._child_time[-1] += end - start
                record.update(start=start, end=end, self=end - start - inner)
        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._child_time.pop()
                self._child_time[-1] += elapsed
                key = (name, self._open_spans[-1])
                agg = self.leaves.get(key)
                if agg is None:
                    agg = self.leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner
        return wrapper

    def count_coefficient(self, spec):
        """Copy of a GeneratorSpec whose coefficient calls are counted."""
        coefficient = spec.coefficient

        def counted(t):
            self.coeff_calls += 1
            return coefficient(t)
        return dataclasses.replace(spec, coefficient=counted)

    def dump(self, path) -> None:
        leaves = [{"name": name, "parent": parent, "count": count,
                   "time": total, "self": own}
                  for (name, parent), (count, total, own) in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "leaves": leaves,
                       "counts": {COEFF: self.coeff_calls}}, fh)


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tricho" and not mod_name.startswith("tricho."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _install(table: dict, make) -> None:
    for name, targets in table.items():
        for mod_name, attr in targets:
            module = importlib.import_module(f"tricho.{mod_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, make(name, vars(cls)[method]))
            else:
                original = getattr(module, attr)
                _replace_everywhere(original, make(name, original))


def install() -> Tracer:
    """Wrap tricho's layers and return the tracer that records them."""
    import tricho  # noqa: F401  loads every submodule that holds a name
    tracer = Tracer()
    _install(LEAVES, tracer.leaf)
    _install(SPANS, tracer.span)

    from tricho import evolution
    build = evolution.from_generator  # already the span wrapper

    @functools.wraps(build)
    def from_generator(spec, *args, **kwargs):
        return build(tracer.count_coefficient(spec), *args, **kwargs)
    _replace_everywhere(build, from_generator)
    return tracer
