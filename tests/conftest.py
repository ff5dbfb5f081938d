import numpy as np
import pytest

from tricho import GrowthRate, ProjectorFamily, rate_model
from tricho.util import make_grid

EXPONENTS = {"h": 1.0, "k": 2.0, "mu": 0.5, "nu": 0.25}


@pytest.fixture(scope="session")
def split_family():
    return ProjectorFamily.coordinate_split(1, 1, 1)


@pytest.fixture(scope="session")
def exp_rates():
    return {key: GrowthRate.exponential(a) for key, a in EXPONENTS.items()}


@pytest.fixture(scope="session")
def uniform_operator(split_family, exp_rates):
    """Model operator with constant outer rate (uniformly trichotomic)."""
    u = GrowthRate.constant(80.0)
    return rate_model(u, exp_rates["h"], exp_rates["k"], exp_rates["mu"],
                      exp_rates["nu"], split_family)


@pytest.fixture(scope="session")
def nonuniform_operator(split_family, exp_rates):
    """Model operator with outer rate u(t) = t + 1 (trichotomic, not uniformly)."""
    u = GrowthRate.polynomial(1.0)
    return rate_model(u, exp_rates["h"], exp_rates["k"], exp_rates["mu"],
                      exp_rates["nu"], split_family)


@pytest.fixture(scope="session")
def grid10():
    return make_grid(10.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
