import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricho import DomainError, ExtrapolationError, GrowthRate

# frozen with a 40-digit arbitrary-precision exponential
E_1 = 2.718281828459045
E_2 = 7.38905609893065


def test_exponential_at_zero_is_one():
    assert GrowthRate.exponential(1.0).evaluate(0.0) == 1.0


def test_polynomial_closed_form():
    assert GrowthRate.polynomial(2.0).evaluate(1.0) == 4.0


def test_exponential_half_exponent():
    got = GrowthRate.exponential(0.5).evaluate(2.0)
    assert abs(got - E_1) <= 4 * math.ulp(E_1)


@pytest.mark.parametrize("rate", [GrowthRate.exponential(1.3),
                                  GrowthRate.polynomial(0.7)])
def test_closed_forms_within_ulps(rate):
    for t in [0.0, 0.25, 1.0, 3.5, 17.0]:
        want = (math.exp(rate.exponent * t) if rate.kind == "exponential"
                else (t + 1.0) ** rate.exponent)
        assert abs(rate.evaluate(t) - want) <= 4 * math.ulp(want)


def test_ratio_identity_cases():
    for rate in (GrowthRate.exponential(2.0), GrowthRate.polynomial(1.0),
                 GrowthRate.constant(5.0)):
        assert rate.ratio(3.0, 3.0) == 1.0


def test_exponential_ratio_value():
    got = GrowthRate.exponential(2.0).ratio(1.0, 0.0)
    assert got == pytest.approx(E_2, rel=1e-15)


def test_polynomial_ratio_value():
    assert GrowthRate.polynomial(1.0).ratio(3.0, 1.0) == 2.0


def test_exponential_ratio_avoids_overflow():
    # e^(2*800) overflows a float; the ratio of nearby times must not
    assert GrowthRate.exponential(2.0).ratio(800.5, 800.0) == pytest.approx(
        math.e, rel=1e-15)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(alpha=st.floats(0.01, 3.0),
       t=st.floats(0.0, 50.0), s=st.floats(0.0, 50.0), q=st.floats(0.0, 50.0))
def test_exponential_ratio_multiplicative(alpha, t, s, q):
    rate = GrowthRate.exponential(alpha)
    assert rate.ratio(t, s) * rate.ratio(s, q) == pytest.approx(
        rate.ratio(t, q), rel=1e-12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(alpha=st.floats(0.01, 4.0), kind=st.sampled_from(["exponential", "polynomial"]))
def test_values_at_least_one_and_monotone(alpha, kind):
    rate = GrowthRate(kind, alpha)
    grid = [0.0, 0.1, 0.7, 1.0, 4.0, 9.5, 20.0]
    values = [rate.evaluate(t) for t in grid]
    assert all(v >= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_tabulated_interpolates_linearly():
    rate = GrowthRate.tabulated([(0.0, 1.0), (2.0, 3.0)])
    assert rate.evaluate(1.0) == 2.0
    assert rate.evaluate(2.0) == 3.0


def test_tabulated_outside_span_errors():
    rate = GrowthRate.tabulated([(0.0, 1.0), (2.0, 3.0)])
    with pytest.raises(ExtrapolationError):
        rate.evaluate(2.5)


def test_negative_time_errors():
    with pytest.raises(DomainError):
        GrowthRate.exponential(1.0).evaluate(-0.1)
    with pytest.raises(DomainError):
        GrowthRate.polynomial(1.0).ratio(1.0, -1.0)


def test_nonpositive_exponent_rejected():
    with pytest.raises(ValueError):
        GrowthRate.exponential(0.0)
    with pytest.raises(ValueError):
        GrowthRate.polynomial(-1.0)


def test_tabulated_times_must_increase():
    with pytest.raises(ValueError):
        GrowthRate.tabulated([(0.0, 1.0), (0.0, 2.0)])


def test_validate_flags_value_below_one():
    for table in ([(0.0, 1.0), (1.0, 0.5)], [(0.0, 0.2), (1.0, 0.5)]):
        with pytest.raises(ValueError, match=">= 1 and nondecreasing"):
            GrowthRate.tabulated(table)


def test_validate_flags_decrease():
    with pytest.raises(ValueError, match=">= 1 and nondecreasing"):
        GrowthRate.tabulated([(0.0, 2.0), (1.0, 1.5)])
    assert GrowthRate.tabulated([(0.0, 1.0), (1.0, 1.0), (2.0, 3.0)]).evaluate(1.5) == 2.0


@pytest.mark.parametrize("table", [
    [(0.0, 1.0), (math.nan, 2.0)], [(0.0, math.nan), (1.0, 2.0)],
    [(0.0, 1.0), (math.inf, 2.0)], [(0.0, 1.0), (1.0, math.inf)]],
    ids=["nan_time", "nan_value", "inf_time", "inf_value"])
def test_nonfinite_knot_rejected(table):
    with pytest.raises(ValueError, match="knots must be finite"):
        GrowthRate.tabulated(table)


@pytest.mark.parametrize("exponent", [math.inf, math.nan])
@pytest.mark.parametrize("kind", ["exponential", "polynomial"])
def test_nonfinite_exponent_rejected(kind, exponent):
    with pytest.raises(ValueError, match="positive and finite"):
        GrowthRate(kind, exponent)


def scalar_ratio(rate, a, b):
    """The per-pair quotient ``GrowthRate.ratios`` replaced, kept as its
    reference."""
    if a < 0 or b < 0:
        raise DomainError("rate ratio needs nonnegative times")
    if a == b:
        return 1.0
    if rate.kind == "exponential":
        return math.exp(rate.exponent * (a - b))
    if rate.kind == "polynomial":
        return ((a + 1.0) / (b + 1.0)) ** rate.exponent
    return rate.evaluate(a) / rate.evaluate(b)


@pytest.mark.parametrize("rate", [
    GrowthRate.exponential(0.7), GrowthRate.exponential(2.0),
    GrowthRate.polynomial(1.5), GrowthRate.polynomial(0.3),
    GrowthRate.tabulated([(0.0, 1.0), (3.0, 2.0), (10.0, 50.0)])],
    ids=["exp0.7", "exp2", "poly1.5", "poly0.3", "tabulated"])
def test_ratios_match_the_scalar_quotient_bit_for_bit(rate):
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.0, 10.0, (2, 300))
    a[:30] = b[:30]
    want = [scalar_ratio(rate, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(rate.ratios(a, b), want)
    assert np.array_equal(rate.ratios(a, 4.0), [scalar_ratio(rate, x, 4.0) for x in a])
    assert [rate.ratio(x, y) for x, y in zip(a[::29], b[::29])] == want[::29]
    # equal times give exactly 1 without evaluating, even past a table's span
    assert rate.ratios([np.inf, 40.0], [np.inf, 40.0]).tolist() == [1.0, 1.0]
    with pytest.raises(DomainError):
        rate.ratios(a, np.where(a > 5.0, -b, b))
