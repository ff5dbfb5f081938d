import bisect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricho import (DomainError, GeneratorSpec, GrowthRate, PreconditionError,
                    ProjectorFamily, check_cocycle, check_identity,
                    from_generator, rate_model, run, scenario_from_tree)
from tricho import StructuralError, evolution, norms, projectors, runner, scenario, trichotomy
from tricho.evolution import conjugate
from tricho.util import make_grid, opnorm

from oracle import batched

# frozen scalar-arithmetic oracles for the model operator at (1, 0), u(t)=t+1
DIAG_1_0 = [0.18393972058572117, 3.694528049465325, 0.6420127083438707]


def test_equal_times_give_identity(nonuniform_operator):
    np.testing.assert_allclose(nonuniform_operator.evaluate(5.0, 5.0),
                               np.eye(3), atol=0.0)
    np.testing.assert_allclose(nonuniform_operator.evaluate(0.0, 0.0),
                               np.eye(3), atol=0.0)


def test_model_operator_values(nonuniform_operator):
    got = nonuniform_operator.evaluate(1.0, 0.0)
    np.testing.assert_allclose(got, np.diag(DIAG_1_0), rtol=1e-15, atol=0.0)


def test_model_operator_telescopes(nonuniform_operator):
    direct = nonuniform_operator.evaluate(2.0, 0.0)
    composed = (nonuniform_operator.evaluate(2.0, 1.0)
                @ nonuniform_operator.evaluate(1.0, 0.0))
    assert opnorm(direct - composed) <= 1e-12


def test_outside_domain_errors(uniform_operator):
    with pytest.raises(DomainError):
        uniform_operator.evaluate(1.0, 2.0)
    with pytest.raises(DomainError):
        uniform_operator.evaluate(1.0, -0.5)


def test_non_orthogonal_family_rejected(exp_rates):
    e = np.zeros((3, 3))
    e[0, 0] = 1.0
    family = ProjectorFamily.constant(e, e, np.eye(3) - 2 * e)
    with pytest.raises(PreconditionError):
        rate_model(GrowthRate.constant(10.0), exp_rates["h"], exp_rates["k"],
                   exp_rates["mu"], exp_rates["nu"], family)


@pytest.mark.filterwarnings("error")  # an overflow fails the check without a warning
@pytest.mark.parametrize("members, message", [
    ((batched(lambda t: [[t < 2, 0], [0, t >= 2]]),  # the two members swap at t = 2
      batched(lambda t: [[t >= 2, 0], [0, t < 2]])),
     "member products deviate at t=2.3, s=0.0"),
    ((batched(lambda t: [[1, 0], [0, 0]]),  # at t = 5.7 the sum fails first
      batched(lambda t: [[0, 0], [0, t < 5]])),
     "family members must sum to the identity"),
    ((batched(lambda t: [[1e308, 0], [0, 0]]),  # the sum overflows: a nan norm
      batched(lambda t: [[1e308, 0], [0, 1]])),
     "family members must sum to the identity"),
], ids=["swap_at_2", "p2_vanishes_at_5", "sum_overflows"])
def test_model_family_check_names_the_first_failure_a_probe_loop_meets(members, message):
    # the probe times are 0, 0.9, 2.3 and 5.7
    family = ProjectorFamily(2, [*members, batched(lambda t: [[0, 0], [0, 0]])])
    with pytest.raises(PreconditionError, match=re.escape(message)):
        evolution.require_model_family(family)


def test_constant_inner_rates_leave_outer_quotient(split_family):
    one = GrowthRate.constant(30.0)
    u = GrowthRate.polynomial(1.0)
    operator = rate_model(u, one, one, one, one, split_family)
    got = operator.evaluate(3.0, 1.0)
    np.testing.assert_allclose(got, 0.5 * np.eye(3), rtol=1e-15)


def test_constant_outer_rate_keeps_stable_coefficient(split_family):
    one = GrowthRate.constant(30.0)
    operator = rate_model(one, GrowthRate.exponential(1.0), one, one, one,
                          split_family)
    got = operator.evaluate(1.0, 0.0)
    assert got[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_identity_axiom_on_grid(uniform_operator, grid10):
    report = check_identity(uniform_operator, grid10, 1e-12)
    assert report.passed
    assert report.worst == 0.0


def test_cocycle_closed_form(nonuniform_operator):
    report = check_cocycle(nonuniform_operator, [0.0, 1.0, 2.0, 4.0], 1e-12)
    assert report.passed


def test_cocycle_degenerate_triple(uniform_operator):
    report = check_cocycle(uniform_operator, [3.0, 3.0, 3.0], 1e-15)
    assert report.residuals["cocycle"] == 0.0


def test_cocycle_times_out_of_order_raise_naming_the_pair(uniform_operator):
    with pytest.raises(DomainError, match=r"\(1\.0, 2\.0\) outside the domain"):
        check_cocycle(uniform_operator, [0.0, 2.0, 1.0], 1e-12)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(s=st.floats(0.0, 8.0), d1=st.floats(0.0, 4.0), d2=st.floats(0.0, 4.0))
def test_model_operator_composition_property(s, d1, d2):
    family = ProjectorFamily.coordinate_split(1, 1, 1)
    e = GrowthRate.exponential
    operator = rate_model(GrowthRate.polynomial(1.0), e(1.0), e(2.0), e(0.5),
                          e(0.25), family)
    m, t = s + d1, s + d1 + d2
    direct = operator.evaluate(t, s)
    composed = operator.evaluate(t, m) @ operator.evaluate(m, s)
    assert opnorm(direct - composed) <= 1e-12 * max(1.0, opnorm(direct))


def test_zero_generator_gives_identity():
    gen = GeneratorSpec.constant(np.zeros((2, 2)), 0.1)
    operator = from_generator(gen)
    np.testing.assert_allclose(operator.evaluate(3.0, 1.0), np.eye(2), atol=0.0)


def test_constant_diagonal_generator():
    gen = GeneratorSpec.constant(np.diag([-1.0, 2.0, 0.25]), 1e-3)
    operator = from_generator(gen)
    want = np.diag([math.exp(-1.0), math.exp(2.0), math.exp(0.25)])
    np.testing.assert_allclose(operator.evaluate(1.0, 0.0), want, atol=1e-8)


def test_rotation_generator_half_turn():
    gen = GeneratorSpec.constant([[0.0, 1.0], [-1.0, 0.0]], 1e-3)
    operator = from_generator(gen)
    np.testing.assert_allclose(operator.evaluate(math.pi, 0.0), -np.eye(2),
                               atol=1e-6)


def test_rotation_cocycle_residual():
    gen = GeneratorSpec.constant([[0.0, 1.0], [-1.0, 0.0]], 1e-3)
    operator = from_generator(gen)
    report = check_cocycle(operator, [0.0, math.pi / 2, math.pi], 1e-6)
    assert report.passed


def test_commuting_time_varying_generator_matches_closed_form():
    # A(t) = diag(a_i + b_i cos t) integrates to exp(a_i dt + b_i (sin t - sin s))
    base = np.array([-0.5, 0.3])
    amp = np.array([0.2, -0.1])
    gen = GeneratorSpec(2, lambda times: np.diag(base)
                        + np.cos(times)[:, None, None] * np.diag(amp), 1e-3)
    operator = from_generator(gen)
    t, s = 2.0, 0.5
    want = np.diag(np.exp(base * (t - s) + amp * (math.sin(t) - math.sin(s))))
    np.testing.assert_allclose(operator.evaluate(t, s), want, atol=1e-9)


def test_anchored_queries_compose_with_cached_factors():
    grid = make_grid(4.0, 0.5)
    gen = GeneratorSpec.constant(np.diag([-1.0, 0.5]), 1e-3)
    operator = from_generator(gen, anchors=grid)
    report = check_cocycle(operator, grid, 1e-12)
    assert report.passed
    # off-anchor query still works
    off = operator.evaluate(0.75, 0.25)
    want = np.diag([math.exp(-0.5), math.exp(0.25)])
    np.testing.assert_allclose(off, want, atol=1e-10)

    # a non-commuting time-varying generator anchored from 0.5 on
    anchors = grid[1:]
    gen = GeneratorSpec(2, batched(lambda t: [[-1.0, np.sin(t)],
                                              [0.3, 0.5 * np.cos(2 * t)]]),
                        1e-3)
    operator = from_generator(gen, anchors=anchors)
    free = from_generator(gen)  # no anchors: one RK4 run per query
    assert check_cocycle(operator, anchors, 1e-12).passed
    # anchor-aligned: the left-to-right product of the interval propagators
    for lo, hi in [(0, len(anchors) - 1), (2, 5), (3, 4)]:
        want = np.eye(2)
        for a, b in zip(anchors[lo:hi], anchors[lo + 1:hi + 1]):
            want = free.evaluate(b, a) @ want
        got = operator.evaluate(anchors[hi], anchors[lo])
        assert np.array_equal(got, want)
        got[0, 0] = 1.0
        assert np.array_equal(operator.evaluate(anchors[hi], anchors[lo]), want)
    # between, before and past the anchors only the gaps are integrated
    for t, s in [(0.75, 0.25), (0.9, 0.6), (3.0, 0.2), (4.0, 0.0),
                 (5.3, 1.0), (4.7, 4.2), (6.1, 3.3)]:
        direct = free.evaluate(t, s)
        assert opnorm(operator.evaluate(t, s) - direct) <= 1e-12 * opnorm(direct)


def test_run_integrates_each_lattice_interval_once(monkeypatch):
    calls = [0]
    builtin = scenario._periodic_diag

    def counting(*args):
        coefficient = builtin(*args)

        def counted(t):
            calls[0] += 1
            return coefficient(t)
        return counted

    monkeypatch.setattr(scenario, "_periodic_diag", counting)
    t_max, step, horizon, rk4_step = 2.0, 0.5, 1.0, 0.01
    tree = {
        "dimension": 3,
        "operator": {"type": "ode", "step": rk4_step,
                     "builtin": {"name": "periodic_diag",
                                 "base": [-1.5, 2.5, 0.0],
                                 "amplitude": [0.3, 0.3, 0.1], "omega": 1.0}},
        "projectors": {"type": "coordinate_split", "sizes": [1, 1, 1]},
        "rates": {key: {"kind": "exponential", "exponent": a}
                  for key, a in (("h", 1.0), ("k", 2.0), ("mu", 0.5),
                                 ("nu", 0.25))},
        "grid": {"t_max": t_max, "step": step},
        "horizon": horizon,
        "tolerances": {"structural": 1e-8, "theorem": 1e-9},
        "samples": 8,
        "checks": ["cocycle", "norms", "norm_trichotomy",
                   "norm_trichotomy_unprojected", "rate_instantiation"],
    }
    parsed = scenario_from_tree(tree)
    assert calls[0] == 0  # parsing builds the generator but integrates nothing
    report = run(parsed)
    assert report.overall == "pass"
    # one probe call over the anchors, then one call per RK4 step over the
    # stage times of every lattice interval, each of step / rk4_step steps:
    # for U, and once for the three members' blocks together
    # (EvolutionOperator.block), which share every coefficient call
    assert calls[0] == 2 * (1 + round(step / rk4_step))


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError):
        GeneratorSpec.constant(np.eye(2), 0.0)


def test_unbounded_coefficient_rejected():
    gen = GeneratorSpec(2, lambda times: np.full((len(times), 2, 2), np.inf), 0.1)
    with pytest.raises(ValueError, match="unbounded"):
        from_generator(gen)


def test_coefficient_unbounded_between_anchors_rejected():
    def coefficient(times):  # finite at the anchors and the default probes
        out = np.zeros((len(times), 2, 2))
        out[times == 0.375] = np.inf  # a mid stage time of [0, 0.5]
        return out
    gen = GeneratorSpec(2, coefficient, 0.25)
    with pytest.raises(ValueError, match=r"unbounded at t=0\.375"):
        from_generator(gen, anchors=[0.0, 0.5, 1.0])
    operator = from_generator(gen)
    with pytest.raises(ValueError, match=r"unbounded at t=0\.375"):
        operator.evaluate(0.5, 0.0)


def test_a_frame_of_the_wrong_shape_is_structural_and_named():
    """One matrix where a stack over the times is due would broadcast
    through the products unnoticed."""
    frame = conjugate(from_generator(GeneratorSpec.constant(np.eye(2), 0.1)),
                      lambda times: np.eye(2))
    with pytest.raises(StructuralError, match=r"^frame from t=1\.0 has shape \(2, 2\)"):
        frame.evaluate_many([(1.0, 0.0), (2.0, 1.0)])


def test_coefficient_not_a_stack_rejected():
    gen = GeneratorSpec(2, lambda times: np.zeros((2, 2)), 0.1)
    with pytest.raises(ValueError, match="shape"):
        from_generator(gen)


def scalar_rk4(coefficient, s, t, step, n):
    """The per-interval RK4 loop the batched kernel replaced, kept as its
    reference; ``coefficient`` maps one time to an (n, n) matrix."""
    x = np.eye(n)
    span = t - s
    if span <= 0:
        return x
    steps = max(1, math.ceil(span / step - 1e-12))
    h = span / steps
    for i in range(steps):
        tau = s + i * h
        k1 = coefficient(tau) @ x
        k2 = coefficient(tau + 0.5 * h) @ (x + 0.5 * h * k1)
        k3 = coefficient(tau + 0.5 * h) @ (x + 0.5 * h * k2)
        k4 = coefficient(tau + h) @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def periodic_diag_case():
    """The ode_periodic_g21 benchmark lattice, against the scalar np.diag
    coefficient the builtin had before it took arrays of times."""
    base, amplitude = np.array([-1.5, 2.5, 0.0]), np.array([0.3, 0.3, 0.1])
    coefficient = scenario._periodic_diag(base.tolist(), amplitude.tolist(), 1.0)
    scalar = lambda t: np.diag(base + amplitude * math.cos(1.0 * t))
    return coefficient, scalar, norms.query_lattice(make_grid(10.0, 0.5), 5.0, 0.5), 0.01


def block_case():
    """The ode_block_g41 benchmark lattice with its constant coefficient."""
    a = np.array([[-1.5, 0.0, 0.0, 0.0], [0.0, 2.5, 1.0, 0.0],
                  [0.0, -1.0, 2.5, 0.0], [0.0, 0.0, 0.0, 0.0]])
    lattice = norms.query_lattice(make_grid(10.0, 0.25), 5.0, 0.25)
    return GeneratorSpec.constant(a, 0.05).coefficient, lambda t: a, lattice, 0.05


def mixed_case():
    """Intervals of different lengths and step counts, two of them empty."""
    coefficient = batched(lambda t: [[-0.5, 1.0 + t], [-1.0, 0.3 * np.sin(t)]])
    scalar = lambda t: coefficient(np.array([t]))[0]
    anchors = [0.0, 0.013, 0.5, 0.52, 0.52, 1.7, 1.75, 1.75, 3.0, 3.0001, 4.3]
    return coefficient, scalar, anchors, 0.1


@pytest.mark.parametrize("case", [periodic_diag_case, block_case, mixed_case],
                         ids=["ode_periodic_g21", "ode_block_g41", "mixed"])
def test_batched_rk4_matches_the_scalar_loop_bit_for_bit(case):
    coefficient, scalar, anchors, step = case()
    n = scalar(0.0).shape[0]
    got = evolution._rk4(coefficient, anchors[:-1], anchors[1:], step, n)
    want = [scalar_rk4(scalar, a, b, step, n) for a, b in zip(anchors, anchors[1:])]
    assert len(got) == len(anchors) - 1 and np.array_equal(got, want)
    # the lattice through the operator, and off it the one-interval gap path
    gen = GeneratorSpec(n, coefficient, step)
    operator = from_generator(gen, anchors=anchors)
    assert np.array_equal(operator.evaluate(anchors[1], anchors[0]), want[0])
    free = from_generator(gen)
    for s, t in [(0.0, 0.013), (0.25, 0.75), (0.1, 3.3), (2.0, 2.0 + 1e-3)]:
        assert np.array_equal(free.evaluate(t, s), scalar_rk4(scalar, s, t, step, n))


def per_pair_generator(spec, anchors=None):
    """The per-pair evaluator ``from_generator`` answered queries with before
    its batched pass, kept as its reference: bisect on the anchors, the chain
    product over anchors lo..hi left to right, and one RK4 call per gap."""
    n = spec.dimension
    points = sorted(float(a) for a in anchors) if anchors else []
    props = evolution._rk4(spec.coefficient, points[:-1], points[1:], spec.step, n)

    def gap(s, t):
        return evolution._rk4(spec.coefficient, [s], [t], spec.step, n)[0]

    def evaluate(t, s):
        if t == s:
            return np.eye(n)
        lo = bisect.bisect_left(points, s)
        hi = bisect.bisect_right(points, t) - 1
        if lo > hi:
            return gap(s, t)
        m = np.eye(n)
        for i in range(lo, hi):
            m = props[i] @ m
        if s < points[lo]:
            m = m @ gap(s, points[lo])
        if t > points[hi]:
            m = gap(points[hi], t) @ m
        return m
    return evaluate


def reference_pairs(anchors):
    """On, between, before and past the anchors, with t == s on and off them."""
    pairs = [(3.7, 0.4), (1.75, 0.52), (2.0, 1.0), (4.3, 0.0), (5.2, 4.5),
             (0.3, 0.1), (0.52, 0.52), (1.75, 1.75), (0.7, 0.7), (6.0, 6.0),
             (6.5, 5.0), (4.9, 0.006), (0.013, 0.013)]
    if anchors:
        pairs += [(a, a) for a in anchors[::4]]
        pairs += [(b, a) for a, b in zip(anchors[::3], anchors[2::3])]
        pairs += [(max(anchors) + 1.1, max(anchors)), (min(anchors) + 0.2, 0.0)]
    return np.array(pairs)


@pytest.mark.parametrize("case", [periodic_diag_case, block_case, mixed_case],
                         ids=["ode_periodic_g21", "ode_block_g41", "mixed"])
@pytest.mark.parametrize("shift", [0.0, 0.5, None], ids=["lattice", "shifted", "unanchored"])
def test_batched_query_matches_the_per_pair_evaluator_bit_for_bit(case, shift):
    coefficient, scalar, anchors, step = case()
    anchors = None if shift is None else [a + shift for a in anchors]
    gen = GeneratorSpec(scalar(0.0).shape[0], coefficient, step)
    pairs = reference_pairs(anchors)
    reference = per_pair_generator(gen, anchors)
    want = [reference(t, s) for t, s in pairs.tolist()]
    batch = from_generator(gen, anchors=anchors).store.compute(pairs)
    assert np.array_equal(batch, want)
    # repeats within one batch, against the same pairs one at a time
    twice = np.concatenate((pairs, pairs[::-1], pairs[:4]))
    one_by_one = [from_generator(gen, anchors=anchors).store.compute(p[None])[0]
                  for p in twice]
    assert np.array_equal(from_generator(gen, anchors=anchors).store.compute(twice),
                          one_by_one)


def test_gaps_of_one_step_count_cost_one_rk4_pass():
    calls = []

    def coefficient(times):
        calls.append(len(times))
        return np.broadcast_to([[-1.0, 0.5], [0.0, 2.0]], (len(times), 2, 2))

    operator = from_generator(GeneratorSpec(2, coefficient, 0.1), anchors=[0.0, 1.0, 2.0])
    calls.clear()
    operator.evaluate_many([(2.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    assert calls == []  # on the anchors: chain products of the propagators only
    # five pairs with no anchor in [s, t] and one with a head and a tail gap,
    # each gap 0.3 long: three RK4 steps
    pairs = [(0.4, 0.1), (0.6, 0.3), (0.8, 0.5), (1.5, 1.2), (1.8, 1.5), (1.3, 0.7)]
    operator.evaluate_many(pairs)
    assert calls == [3 * 7] * 3  # per step, the three stage times of all 7 gaps


def test_anchors_may_be_an_array():
    gen = GeneratorSpec.constant(np.diag([-1.0, 2.0]), 0.1)
    pairs = [(2.0, 0.0), (1.5, 0.5)]
    want = from_generator(gen, anchors=[0.0, 1.0, 2.0]).evaluate_many(pairs)
    got = from_generator(gen, anchors=np.array([2.0, 0.0, 1.0])).evaluate_many(pairs)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5], ids=str)
def test_nonfinite_or_negative_anchor_rejected_naming_it(bad):
    gen = GeneratorSpec.constant(np.diag([-1.0, 2.0]), 0.1)
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}"):
        from_generator(gen, anchors=[0.0, 1.0, bad, 2.0])


def test_batched_cocycle_matches_per_triple_loop():
    # non-commuting, time-varying generator; anchors on every other grid time
    # so that off-anchor queries give nonzero residuals
    gen = GeneratorSpec(2, batched(lambda t: [[-0.5, 1.0 + t],
                                              [-1.0, 0.3 * np.sin(t)]]), 0.01)
    grid = make_grid(2.0, 0.25)
    operator = from_generator(gen, anchors=grid[::2])
    want = 0.0
    for i, t in enumerate(grid):
        for j, s in enumerate(grid[:i + 1]):
            for t0 in grid[:j + 1]:
                direct = operator.evaluate(t, t0)
                residual = opnorm(direct - operator.evaluate(t, s)
                                  @ operator.evaluate(s, t0))
                want = max(want, residual / max(1.0, opnorm(direct)))
    assert want > 0.0
    assert check_cocycle(operator, grid, 1e-12).residuals["cocycle"] == want


def per_pair_model(rates, family, t, s):
    """The rate-model formula at one pair, scalar quotients times members."""
    u, h, k, mu, nu = rates
    p1, p2, p3 = (family.stack(j, [s])[0] for j in (1, 2, 3))
    return u.ratios([s], [t])[0] * (h.ratios([s], [t])[0] * p1
                                    + k.ratios([t], [s])[0] * p2
                                    + mu.ratios([t], [s])[0] * nu.ratios([s], [t])[0] * p3)


def rotated_split_family():
    c, s = math.cos(0.7), math.sin(0.7)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q = q @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return ProjectorFamily.constant(*(q @ np.diag(e) @ q.T for e in np.eye(3)))


@pytest.mark.parametrize("family", [ProjectorFamily.coordinate_split(1, 1, 1),
                                    rotated_split_family()],
                         ids=["coordinate_split", "rotated"])
def test_batched_rate_model_matches_per_pair_formula(family):
    e = GrowthRate.exponential
    rates = (GrowthRate.polynomial(1.0), e(1.0), e(2.0), e(0.5), e(0.25))
    operator = rate_model(*rates, family)
    grid = make_grid(10.0, 0.1)
    pairs = [(t, s) for t in grid for s in grid if s <= t][::7] + [(37.5, 0.3)]
    want = np.array([per_pair_model(rates, family, t, s) for t, s in pairs])
    assert np.array_equal(operator.evaluate_many(pairs), want)
    assert np.array_equal(operator.evaluate(37.5, 0.3), want[-1])


def test_run_computes_each_distinct_pair_once(monkeypatch):
    computed = []
    build = runner._build_operator

    def counting(*args):
        operator = build(*args)
        compute = operator.store.compute

        def counted(pairs):
            computed.extend(map(tuple, pairs.tolist()))
            return compute(pairs)
        operator.store.compute = counted
        return operator

    inverses = []
    restricted = projectors.restricted_inverses

    def counted_inverses(operator, family, index, pairs):
        inverses.extend((index, t, s) for t, s in pairs)
        return restricted(operator, family, index, pairs)

    tables = []
    factors = trichotomy._factors

    def counted_factors(operator, family, rates, pairs, tag, full):
        rate = rates.get(trichotomy.TERMS[tag][1])
        tables.append((id(family), tag, rate, full, tuple(map(tuple, pairs.tolist()))))
        return factors(operator, family, rates, pairs, tag, full)

    kept = []
    keep = evolution.EvolutionOperator.keep

    def counted_keep(self, key, build):
        def counted_build():
            kept.append(key)
            return build()
        return keep(self, key, counted_build)

    built = []

    def counted_class(name):
        cls = getattr(norms, name)

        def make(*args, **kwargs):
            built.append(name)
            return cls(*args, **kwargs)
        monkeypatch.setattr(norms, name, make)

    monkeypatch.setattr(runner, "_build_operator", counting)
    monkeypatch.setattr(projectors, "restricted_inverses", counted_inverses)
    monkeypatch.setattr(trichotomy, "_factors", counted_factors)
    monkeypatch.setattr(evolution.EvolutionOperator, "keep", counted_keep)
    for name in ("LyapunovNormFamily", "NormTerm", "TheoremReport",
                 "CompatibilityReport"):
        counted_class(name)
    rate = lambda kind, a: {"kind": kind, "exponent": a}
    tree = {
        "dimension": 3, "operator": {"type": "rate_model"},
        "projectors": {"type": "coordinate_split", "sizes": [1, 1, 1]},
        "rates": {"h": rate("exponential", 1.0), "k": rate("exponential", 2.0),
                  "mu": rate("exponential", 0.5), "nu": rate("exponential", 0.25),
                  "u": rate("polynomial", 1.0)},
        "grid": {"t_max": 2.0, "step": 0.5}, "horizon": 1.0, "samples": 4,
        "checks": ["orthogonality", "cocycle", "invariance", "compatibility",
                   "trichotomy", "trichotomy_full", "uniform", "norms",
                   "norm_trichotomy", "norm_trichotomy_unprojected",
                   "rate_instantiation"],
    }
    assert run(scenario_from_tree(tree)).overall == "pass"
    assert computed and len(computed) == len(set(computed))
    assert inverses and len(inverses) == len(set(inverses))
    assert tables and len(tables) == len(set(tables))
    assert kept and len(kept) == len(set(kept))
    # the instantiation rates equal the scenario's, so every pair of norm
    # families sums the same four terms, not six stacks: one kept set of
    # theorem tables, and one report per theorem check made from it. Families
    # are rebuilt by each of the four norm checks from the kept terms, and
    # compatibility reports made by the norms check only: the sufficiency
    # loop reads the kept values. One factor table per splitting system.
    assert [key[0] for key in kept].count("tables") == 1
    assert [key[0] for key in kept].count("factors") == 2
    assert {key[0] for key in kept} == {"block", "inverses", "factors", "norm_term",
                                        "term_values", "tables"}
    assert sorted(built) == (["CompatibilityReport"] * 2
                             + ["LyapunovNormFamily"] * 8 + ["NormTerm"] * 4
                             + ["TheoremReport"] * 3)


def test_stored_pairs_are_not_changed_through_returned_stacks(nonuniform_operator):
    pairs = [(2.0, 1.0), (3.0, 0.0)]
    first = nonuniform_operator.evaluate_many(pairs)
    want = first.copy()
    first[:] = 7.0
    assert np.array_equal(nonuniform_operator.evaluate_many(pairs), want)
    nonuniform_operator.evaluate(2.0, 1.0)[0, 0] = 7.0
    assert np.array_equal(nonuniform_operator.evaluate(2.0, 1.0), want[0])


def test_out_of_domain_pair_raises_beside_stored_pairs(uniform_operator):
    stored = [(1.0, 0.0), (2.0, 1.0)]
    uniform_operator.evaluate_many(stored)
    for bad in [(1.0, 2.0), (0.5, -0.5)]:
        with pytest.raises(DomainError):
            uniform_operator.evaluate_many(stored + [bad])


def model_operator(family, rates):
    return rate_model(GrowthRate.polynomial(1.0), rates["h"], rates["k"],
                      rates["mu"], rates["nu"], family)


def generated_operator(family, rates):
    # at the NaN pair, bisect on the anchors used to give the finite U(2, 0)
    return from_generator(GeneratorSpec.constant(np.diag([-1.0, 2.0, 0.0]), 0.1),
                          anchors=[0.0, 1.0, 2.0])


OPERATORS = {"model": model_operator, "generated": generated_operator}
NONFINITE_PAIRS = [(math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan),
                   (math.inf, math.inf)]


@pytest.mark.parametrize("pair", NONFINITE_PAIRS, ids=str)
@pytest.mark.parametrize("entry", ["evaluate", "evaluate_many", "inverse_stack"])
@pytest.mark.parametrize("make", OPERATORS.values(), ids=OPERATORS)
def test_nonfinite_pair_raises_domain_error_naming_it(make, entry, pair,
                                                      split_family, exp_rates):
    operator = make(split_family, exp_rates)
    calls = {"evaluate": lambda: operator.evaluate(*pair),
             "evaluate_many": lambda: operator.evaluate_many([(1.0, 0.0), pair]),
             "inverse_stack": lambda: projectors.build_inverses(
                 operator, split_family)[2].stack([(1.0, 0.0), pair])}
    with pytest.raises(DomainError, match=re.escape(str(pair))):
        calls[entry]()


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("make", OPERATORS.values(), ids=OPERATORS)
def test_norm_at_a_nonfinite_time_raises_domain_error(make, t, split_family,
                                                      exp_rates):
    fwd = norms.build_norm_family("forward", make(split_family, exp_rates),
                                  split_family, exp_rates, 1.0, 0.5, [0.0, 1.0, 2.0])
    with pytest.raises(DomainError, match=str(t)):
        fwd.evaluate_many(t, np.eye(3))


def test_a_coupled_generator_fails_trichotomy_alone():
    """A = [[-1, 0], [5, 2]] carries member 1's range into member 2's, so the
    (1, 1, 0) split is not invariant and |U(t, s) P_1| grows like e^{2(t-s)}.
    With no invariance check in the run, the blocks are not integrated apart
    (that would read the decoupled e^{-(t-s)}): the stable factors are
    |U(t, s) e_1| and ``trichotomy`` fails. Each check alone gives the verdict
    it gives reading the products U P_j in the whole space."""
    tree = {"dimension": 2, "operator": {"type": "ode", "step": 0.05,
                                         "matrix": [[-1.0, 0.0], [5.0, 2.0]]},
            "projectors": {"type": "coordinate_split", "sizes": [1, 1, 0]},
            "rates": {key: {"kind": "exponential", "exponent": a}
                      for key, a in (("h", 1.0), ("k", 2.0), ("mu", 0.5), ("nu", 0.25))},
            "grid": {"t_max": 4.0, "step": 0.5}, "horizon": 2.0,
            "tolerances": {"structural": 1e-8, "theorem": 1e-9},
            "checks": ["trichotomy"],
            "bounds": {"trichotomy": {"kind": "constant", "value": 1.5}}}
    parsed = scenario.scenario_from_tree(tree)
    grid = make_grid(parsed.grid_max, parsed.grid_step)
    operator = runner._build_operator(parsed, grid)
    pairs = evolution.grid_pairs(grid)
    stable = trichotomy.factor_table(operator, parsed.family, parsed.rates, grid)[:, 0]
    want = np.exp(pairs[:, 0] - pairs[:, 1]) * np.linalg.norm(
        operator.evaluate_many(pairs)[:, :, 0], axis=1)
    np.testing.assert_allclose(stable, want, rtol=1e-12)
    assert stable.max() > math.exp(8.0)
    report = runner.run(parsed)
    assert [c["status"] for c in report.checks] == ["fail"]
    # every other check alone reads the coupling too: the norm terms read
    # U(tau, t) T_j(t), which carries it; the unprojected norm system holds
    tree["bounds"]["uniform"] = 1.5
    statuses = {check: runner.run(scenario.scenario_from_tree({**tree, "checks": [check]}))
                .checks[-1]["status"] for check in (
                    "invariance", "compatibility", "trichotomy_full", "uniform", "norms",
                    "norm_trichotomy", "norm_trichotomy_unprojected")}
    assert statuses == {**dict.fromkeys(statuses, "fail"), "norm_trichotomy_unprojected": "pass"}


def test_coupling_between_the_anchors_keeps_the_blocks_read_from_u():
    """A(t) carries member 1's range into member 2's only between the anchors
    (5 sin^2(2 pi t) is 0, up to rounding, at every multiple of 0.5): the joint block pass
    reads it at its RK4 stage times, so the stable factors are still
    |U(t, s) e_1| and not the decoupled e^{-(t-s)}."""
    def coefficient(times):
        a = np.zeros((len(times), 2, 2))
        a[:, 0, 0], a[:, 1, 1], a[:, 1, 0] = -1.0, 2.0, 5.0 * np.sin(2 * np.pi * times) ** 2
        return a
    grid = make_grid(4.0, 0.5)
    operator = from_generator(GeneratorSpec(2, coefficient, 0.05), anchors=grid)
    family = ProjectorFamily.coordinate_split(1, 1, 0)
    assert coefficient(np.array(grid))[:, 1, 0].max() < 1e-25  # far below RANK_TOL
    rates = {"h": GrowthRate.exponential(1.0), "k": GrowthRate.exponential(2.0)}
    pairs = evolution.grid_pairs(grid)
    stable = trichotomy.factor_table(operator, family, rates, grid)[:, 0]
    want = np.exp(pairs[:, 0] - pairs[:, 1]) * np.linalg.norm(
        operator.evaluate_many(pairs)[:, :, 0], axis=1)
    np.testing.assert_allclose(stable, want, rtol=1e-12)
    assert stable.max() > math.exp(4.0)
