"""The plug-in reduction (``bounds._plug_in``): bit-equal to the pattern-by-
pattern oracle, one integrand call per block of rows, and no full-length
table of integrands."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from plug_in_oracle import per_pattern_plug_in

from taubounds import bounds, estimator
from taubounds.bounds import envelope_summary
from taubounds.data import Dataset
from taubounds.errors import TiedDataWarning
from taubounds.estimator import CdfTable, MarginMode, summarize
from taubounds.mgp import SCENARIOS, simulate_dataset

BLOCK = 1 << 16  # rows per integrand call
TABLE = CdfTable(np.array([-0.5, 0.2, 0.7, 1.5]), np.array([0.0, 0.3, 0.8, 1.0]))

ROUTES = {
    "uniform01-theta": lambda ds: summarize(ds, MarginMode.uniform01(), 0.4),
    "uniform01": lambda ds: summarize(ds, MarginMode.uniform01()),
    "from-file": lambda ds: summarize(ds, MarginMode.from_tables(TABLE, TABLE), 0.25),
    "unknown": envelope_summary,
}


def dataset(counts, seed=0):
    """Values in [0, 1) with ``counts[k]`` rows of pattern k + 1, in random order."""
    rng = np.random.default_rng(seed)
    z = rng.permutation(np.repeat(np.arange(1, 5), counts))
    x, y = rng.random(z.size), rng.random(z.size)
    x[z >= 3] = np.nan
    y[(z == 2) | (z == 4)] = np.nan
    return Dataset(x, y)


def random_counts(n, seed):
    return np.bincount(np.random.default_rng(seed).integers(0, 4, n), minlength=4)


DATASETS = {
    **{f"n={n}": random_counts(n, n) for n in
       (1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)},
    "pattern-2-straddles-a-block": (BLOCK - 5, 10, 3, 2),
    "pattern-1-over-a-block": (BLOCK + 7, 4, 0, 9),
    "only-pattern-4": (0, 0, 0, 50),
    "no-pattern-1": (0, 40, 30, 20),
    "patterns-2-3-empty": (30, 0, 0, 20),
    "only-pattern-1": (50, 0, 0, 0),
}


def assert_bit_equal(new, old):
    """Every field equal with ==, recursing into the base summary; a NaN
    (an SE at n = 1) must be NaN on both sides."""
    assert type(new) is type(old)
    for field in dataclasses.fields(old):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if dataclasses.is_dataclass(b):
            assert_bit_equal(a, b)
            continue
        a, b = (v if isinstance(v, tuple) else (v,) for v in (a, b))
        assert len(a) == len(b), field.name
        for u, v in zip(a, b):
            assert u == v or (math.isnan(u) and math.isnan(v)), (field.name, u, v)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", DATASETS)
def test_matches_the_per_pattern_oracle(name, route, monkeypatch):
    ds = dataset(DATASETS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiedDataWarning)
        new = ROUTES[route](ds)
        monkeypatch.setattr(bounds, "_plug_in", per_pattern_plug_in)
        monkeypatch.setattr(estimator, "_plug_in", per_pattern_plug_in)
        old = ROUTES[route](ds)
    assert_bit_equal(new, old)


@pytest.fixture
def integrand_calls(monkeypatch):
    """The row count of every ``bounds._integrands`` call, in order."""
    calls, real = [], bounds._integrands

    def counting(upper_uv, *rest):
        calls.append(len(upper_uv[0]))
        return real(upper_uv, *rest)

    monkeypatch.setattr(bounds, "_integrands", counting)
    return calls


@pytest.mark.parametrize("n, blocks", [(1, 1), (106, 1), (BLOCK, 1), (BLOCK + 1, 2)])
def test_one_integrand_call_per_block(n, blocks, integrand_calls):
    """Whatever patterns a block holds, it costs one call; the unknown-margins
    route makes two passes, the plain integrands and then the projected ones."""
    ds = dataset(random_counts(n, 7), seed=7)
    for route, passes in (("uniform01", 1), ("uniform01-theta", 1), ("unknown", 2)):
        integrand_calls.clear()
        ROUTES[route](ds)
        assert len(integrand_calls) == passes * blocks, route
        assert sum(integrand_calls) == passes * n, route


def test_no_full_length_table():
    """The traced peak of both routes on P2 data at n = 2^18 stays below the
    design's arithmetic. Live at once, at most: the order index (8 n bytes),
    the largest pattern's table (8 bytes x 2 sides x pairs x rows), one
    block's working set (float rows of 2^16: its table of 2 x pairs rows,
    four (u, v) inputs, two projection or tail rows and four surface
    temporaries) and, under unknown margins, the four int32 per-row count
    arrays (16 n bytes). A full-length table adds 16 x pairs x (n - largest
    pattern) bytes, 4.5 MB here with theta: more than the 20% margin allows."""
    n, margin = 1 << 18, 1.2
    ds = simulate_dataset(SCENARIOS["P2"].config(), n, seed=3)
    largest = int(ds.pattern_counts().max())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiedDataWarning)
        for route, pairs, per_row in (("uniform01-theta", 2, 0), ("unknown", 1, 16 * n)):
            bound = margin * (8 * n + 16 * pairs * largest + 8 * BLOCK * (2 * pairs + 10)
                              + per_row)
            tracemalloc.start()
            try:
                ROUTES[route](ds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (route, peak, bound)
