"""Fixtures shared by the acceptance and quadrature tests."""

import time
from typing import NamedTuple

import numpy as np
import pytest

from taubounds import CopulaSpec, CovariateScale, MgpConfig, population_bounds_sweep


class DgpSweep(NamedTuple):
    configs: list
    thetas: tuple
    results: list      # population_bounds_sweep per configuration, by Monte Carlo
    elapsed: float     # seconds the Monte Carlo sweep took


@pytest.fixture(scope="session")
def dgp_sweep():
    """200 random configurations with Monte Carlo worst-case and refined bounds."""
    rng = np.random.default_rng(20240802)
    thetas = (0.1, 0.25, 0.4)
    started = time.perf_counter()
    configs, results = [], []
    for index in range(200):
        config = MgpConfig(rng.uniform(-5.0, 5.0, size=(4, 2)),
                           CopulaSpec.gaussian(rng.uniform(-0.999, 0.999)),
                           CovariateScale.UNIFORM01)
        configs.append(config)
        results.append(population_bounds_sweep(config, thetas, draws=100_000, seed=index,
                                               warn_on_theta_mismatch=False))
    return DgpSweep(configs, thetas, results, time.perf_counter() - started)
