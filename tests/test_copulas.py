"""Tests for copula bound surfaces, samplers, and extremal expectations."""

import math

import numpy as np
import pytest
from scipy import stats

from taubounds import (
    CopulaSpec,
    DomainError,
    MgpConfig,
    constrained_lower,
    constrained_upper,
    population_bounds_quadrature,
    sample_copula,
)

GRID = np.linspace(0.0, 1.0, 101)
UU, VV = np.meshgrid(GRID, GRID)
THETAS = [0.0, 0.1, 0.25, 0.4, 0.5]


def frechet_lower(u, v):
    """Oracle: the lower envelope max(u + v - 1, 0) of every copula."""
    return np.maximum(u + v - 1.0, 0.0)


def frechet_upper(u, v):
    """Oracle: the upper envelope min(u, v) of every copula."""
    return np.minimum(u, v)


class TestFrechetBounds:
    """The constrained surfaces at theta = 0 (lower) and 1/2 (upper) are the
    Frechet envelopes."""

    def test_lower_examples(self):
        assert constrained_lower(0.0, 0.5, 0.5) == 0.0
        assert constrained_lower(0.0, 0.8, 0.9) == pytest.approx(0.7, abs=1e-15)
        for v in (0.0, 0.3, 0.77, 1.0):
            assert constrained_lower(0.0, 1.0, v) == pytest.approx(v, abs=1e-15)

    def test_upper_examples(self):
        assert constrained_upper(0.5, 0.3, 0.8) == 0.3
        assert constrained_upper(0.5, 0.5, 0.5) == 0.5
        for u in (0.0, 0.1, 0.62, 1.0):
            assert constrained_upper(0.5, u, 1.0) == u

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                constrained_lower(0.0, bad, 0.5)
            with pytest.raises(DomainError):
                constrained_upper(0.5, 0.5, bad)

    def test_range_on_grid(self):
        lo = constrained_lower(0.0, UU, VV)
        hi = constrained_upper(0.5, UU, VV)
        assert np.all(lo >= 0.0) and np.all(hi <= 1.0)
        # the two envelope formulas share no subexpression, so allow an ulp
        assert np.all(lo <= hi + 1e-15)


class TestConstrainedBounds:
    def test_examples(self):
        assert constrained_lower(0.4, 0.5, 0.5) == 0.4
        assert constrained_lower(0.4, 0.25, 0.75) == pytest.approx(0.15, abs=1e-15)
        assert constrained_upper(0.4, 0.5, 0.5) == 0.4
        assert constrained_upper(0.4, 0.25, 0.75) == 0.25

    def test_theta_zero_is_frechet_lower(self):
        assert np.array_equal(constrained_lower(0.0, UU, VV), frechet_lower(UU, VV))

    def test_theta_half_is_frechet_upper(self):
        assert np.array_equal(constrained_upper(0.5, UU, VV), frechet_upper(UU, VV))

    def test_sandwich_on_grid(self):
        lo = frechet_lower(UU, VV)
        hi = frechet_upper(UU, VV)
        for theta in THETAS:
            clo = constrained_lower(theta, UU, VV)
            cup = constrained_upper(theta, UU, VV)
            assert np.all(lo <= clo)
            assert np.all(clo <= cup + 1e-15)
            assert np.all(cup <= hi)
            assert clo[50, 50] == pytest.approx(theta)
            assert cup[50, 50] == pytest.approx(theta)

    def test_monotone_in_theta(self):
        for lower_surface in (True, False):
            previous = None
            for theta in THETAS:
                surface = (constrained_lower if lower_surface else constrained_upper)(
                    theta, UU, VV)
                if previous is not None:
                    assert np.all(surface >= previous)
                previous = surface

    def test_theta_domain(self):
        for bad in (-0.01, 0.51, math.nan):
            with pytest.raises(DomainError):
                constrained_lower(bad, 0.5, 0.5)
            with pytest.raises(DomainError):
                constrained_upper(bad, 0.5, 0.5)


class TestCopulaSpec:
    def test_rho_must_lie_in_closed_interval(self):
        for bad in (-1.0 - 1e-15, 1.0 + 1e-15, 1.5, -math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                CopulaSpec.gaussian(bad)
            with pytest.raises(DomainError):
                CopulaSpec(bad)
        for rho in (-1.0, -0.5, 0.0, 0.999, 1.0):
            assert CopulaSpec.gaussian(rho).rho == rho

    def test_named_copulas_are_gaussian_members(self):
        assert CopulaSpec.gaussian(1.0) == CopulaSpec.comonotone()
        assert CopulaSpec.gaussian(-1.0) == CopulaSpec.countermonotone()
        assert CopulaSpec.gaussian(0.0) == CopulaSpec.independence()
        assert CopulaSpec(1) == CopulaSpec.comonotone() and type(CopulaSpec(1).rho) is float


class TestSampling:
    def test_comonotone_support(self):
        uv = sample_copula(CopulaSpec.comonotone(), 5000, seed=3)
        assert np.array_equal(uv[:, 0], uv[:, 1])

    def test_countermonotone_support(self):
        uv = sample_copula(CopulaSpec.countermonotone(), 5000, seed=3)
        assert np.max(np.abs(uv.sum(axis=1) - 1.0)) < 1e-15

    def test_gaussian_rho_zero_uncorrelated(self):
        uv = sample_copula(CopulaSpec.gaussian(0.0), 100_000, seed=11)
        corr = np.corrcoef(uv[:, 0], uv[:, 1])[0, 1]
        assert abs(corr) < 0.02  # 3 / sqrt(n) with headroom

    def test_unit_square(self):
        for spec in (CopulaSpec.gaussian(-0.999), CopulaSpec.independence()):
            uv = sample_copula(spec, 10_000, seed=5)
            assert uv.min() >= 0.0 and uv.max() <= 1.0

    def test_determinism(self):
        spec = CopulaSpec.gaussian(0.7)
        a = sample_copula(spec, 4096, seed=42)
        b = sample_copula(spec, 4096, seed=42)
        c = sample_copula(spec, 4096, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("rho", [-0.999, 0.0, 0.99])
    def test_uniform_margins_ks(self, rho):
        n = 100_000
        spec = CopulaSpec.independence() if rho == 0.0 else CopulaSpec.gaussian(rho)
        uv = sample_copula(spec, n, seed=17)
        bound = 1.63 / math.sqrt(n)
        for column in (uv[:, 0], uv[:, 1]):
            statistic = stats.kstest(column, "uniform").statistic
            assert statistic < bound

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_copula(CopulaSpec.independence(), 0, seed=1)


def _worst_case(rho):
    """The population worst case under gamma = 0, where every pattern has
    probability 1/4: its endpoints are E_C[max(u + v - 1, 0)] - 1 and
    E_C[min(u, v)] + 1 under the Gaussian copula C with this rho."""
    config = MgpConfig(np.zeros((4, 2)), CopulaSpec.gaussian(rho))
    return population_bounds_quadrature(config)[0].worst_case


class TestExtremalExpectation:
    def test_known_constants(self):
        comonotone, countermonotone = _worst_case(1.0), _worst_case(-1.0)
        # E_M[max(u + v - 1, 0)] = 1/4, E_W[min(u, v)] - 1 = -3/4, E_M[min(u, v)] = 1/2
        assert comonotone.lower + 1.0 == pytest.approx(0.25, abs=1e-9)
        assert countermonotone.upper - 2.0 == pytest.approx(-0.75, abs=1e-9)
        assert comonotone.upper - 1.0 == pytest.approx(0.5, abs=1e-9)

    def test_mc_agrees_with_quadrature(self):
        # degenerate-copula sampling must reproduce the quadrature values
        n = 1_000_000
        uv = sample_copula(CopulaSpec.comonotone(), n, seed=23)
        vals = np.maximum(uv[:, 0] + uv[:, 1] - 1.0, 0.0)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 0.25) < 3 * se

        uv = sample_copula(CopulaSpec.countermonotone(), n, seed=23)
        vals = np.minimum(uv[:, 0], uv[:, 1]) - 1.0
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - (-0.75)) < 3 * se

    @pytest.mark.parametrize("rho", [-0.9, 0.3, 0.99])
    # the worst case's lower end integrates max(u + v - 1, 0), its upper min(u, v)
    @pytest.mark.parametrize("side", ["lower", "upper"], ids=["_w_surface", "_m_surface"])
    def test_extremal_ordering(self, rho, side):
        # supermodular integrands: any copula's mean lies between the extremes
        low, mid, high = (_worst_case(r) for r in (-1.0, rho, 1.0))
        values = [getattr(i, side) for i in (low, mid, high)]
        errors = [getattr(i, f"se_{side}") for i in (low, mid, high)]
        assert values[0] <= values[1] + errors[0] + errors[1]
        assert values[1] <= values[2] + errors[1] + errors[2]
