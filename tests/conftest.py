import numpy as np
import pytest

from tumorlab.experiments import stationary_for
from tumorlab.grid import RadialGrid
from tumorlab.kinetics import KineticsSpec
from tumorlab.linearized import build_operators


@pytest.fixture(scope="session")
def default_spec():
    return KineticsSpec()


@pytest.fixture(scope="session")
def grid801():
    return RadialGrid.uniform(801)


@pytest.fixture(scope="session")
def grid201():
    return RadialGrid.uniform(201)


# through the experiments-level cache, so orchestrated runs reuse the solve
@pytest.fixture(scope="session")
def stationary801(default_spec):
    return stationary_for(default_spec, 801)


@pytest.fixture(scope="session")
def stationary201(default_spec):
    return stationary_for(default_spec, 201)


@pytest.fixture(scope="session")
def operators801(stationary801, default_spec):
    return build_operators(stationary801, default_spec)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
