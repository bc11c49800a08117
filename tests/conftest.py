"""Fixtures shared by the acceptance and quadrature tests, and the check
every test applies to an ``analyze`` JSON report."""

import functools
import json
import time
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest

import taubounds
from taubounds import CopulaSpec, CovariateScale, MgpConfig, population_bounds_sweep


@functools.cache
def _report_validator():
    """A validator for the package's report_schema.json, built once."""
    path = Path(taubounds.__file__).with_name("report_schema.json")
    schema = json.loads(path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def checked_report(report):
    """An ``analyze`` report (JSON text or ``to_report_dict()``), parsed.

    Fails unless the report passes report_schema.json and serialises as
    strict JSON: jsonschema takes NaN and infinity for numbers, JSON does not.
    """
    payload = json.loads(report) if isinstance(report, str) else report
    _report_validator().validate(payload)
    json.dumps(payload, allow_nan=False)
    return payload


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
