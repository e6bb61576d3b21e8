import os

# one BLAS thread, as bench/run.py sets it, so tier-1 checks its digests in
# the configuration the benchmark runs; set before numpy loads the library
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tumorlab.experiments import stationary_for  # noqa: E402
from tumorlab.grid import RadialGrid  # noqa: E402
from tumorlab.kinetics import KineticsSpec  # noqa: E402
from tumorlab.linearized import build_operators  # noqa: E402


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
