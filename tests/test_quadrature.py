"""The quadrature engine for population bounds, against the Monte Carlo oracle
and against its own exactness properties."""

import functools
import math
import warnings

import numpy as np
import pytest

from taubounds import (
    SCENARIOS,
    CopulaSpec,
    CovariateScale,
    MgpConfig,
    ThetaMismatchWarning,
    constrained_lower,
    constrained_upper,
    median_joint_prob,
    population_bounds_quadrature,
    population_bounds_sweep,
    true_tau,
)
from taubounds.mgp import _assemble, _quadrature, _strip_sums, _z_edges

SCENARIO_CONFIGS = [SCENARIOS[name].config(scale)
                    for name in ("P1", "P2", "P3") for scale in CovariateScale]
# normal-score covariates make the logits steep in w: the w panels need cutting
STEEP_LOGITS = MgpConfig(np.array([[3.0, -4.0], [-2.5, 4.5], [4.0, 1.0], [-1.0, -3.5]]),
                         CopulaSpec.gaussian(0.0), CovariateScale.NORMAL_SCORE)


@pytest.fixture(scope="module")
def engine_sweep(dgp_sweep):
    """``_quadrature`` (expectations, error estimate, strips) on the
    configurations and thetas of ``dgp_sweep``."""
    return [_quadrature(config, list(dgp_sweep.thetas)) for config in dgp_sweep.configs]


@pytest.fixture(scope="module")
def quadrature_sweep(dgp_sweep, engine_sweep):
    """The results population_bounds_quadrature builds from ``engine_sweep``."""
    return [_assemble(list(dgp_sweep.thetas), mean, err, False, "quadrature")
            for mean, err, _ in engine_sweep]


def _endpoint_pairs(quad, mc):
    """(quadrature value, its error, Monte Carlo value, its SE) per endpoint:
    the worst case once, then the refined interval per theta."""
    intervals = [(quad[0].worst_case, mc[0].worst_case)]
    intervals += [(q.refined, m.refined) for q, m in zip(quad, mc)]
    return [(getattr(q, side), getattr(q, f"se_{side}"), getattr(m, side),
             getattr(m, f"se_{side}"))
            for q, m in intervals for side in ("lower", "upper")]


def _check_agreement(pairs):
    """Every endpoint within 5 combined SE; at most 1% beyond 3."""
    z = np.array([abs(q - m) / math.hypot(qe, me) for q, qe, m, me in pairs])
    assert z.max() < 5.0, f"largest deviation {z.max():.2f} combined SE"
    assert np.mean(z > 3.0) <= 0.01


def test_agrees_with_monte_carlo_on_sweep(dgp_sweep, quadrature_sweep):
    pairs = []
    for quad, mc in zip(quadrature_sweep, dgp_sweep.results):
        pairs += _endpoint_pairs(quad, mc)
    assert len(pairs) == 200 * 8
    _check_agreement(pairs)


@pytest.mark.parametrize("scale", list(CovariateScale))
def test_agrees_with_monte_carlo_at_extreme_rho(scale):
    pairs = []
    for seed, rho in enumerate((-0.999, 0.999)):
        for name in ("P1", "P2"):
            config = MgpConfig(np.array(SCENARIOS[name].gamma), CopulaSpec.gaussian(rho),
                               scale)
            thetas = (0.0, median_joint_prob(config), 0.25, 0.5)
            mc = population_bounds_sweep(config, thetas, draws=1_000_000, seed=seed,
                                         warn_on_theta_mismatch=False)
            quad = population_bounds_quadrature(config, thetas, warn_on_theta_mismatch=False)
            pairs += _endpoint_pairs(quad, mc)
    _check_agreement(pairs)


def _doubled(config, thetas, strips):
    """The strips integrated with 48 nodes per panel in each coordinate."""
    return _strip_sums(config, thetas, *strips, 48, 48).sum(axis=0)


@pytest.mark.parametrize("config", SCENARIO_CONFIGS + [STEEP_LOGITS],
                         ids=lambda c: f"{c.copula.rho}-{c.covariate_scale.value}")
@pytest.mark.parametrize("thetas", [[0.4], [], [0.0, 0.1, 0.5]], ids=str)
def test_doubling_the_nodes_changes_nothing(config, thetas):
    mean, err, strips = _quadrature(config, thetas)
    difference = np.abs(mean - _doubled(config, thetas, strips))
    assert difference.max() <= 1e-10
    assert np.all(err >= difference)


@pytest.mark.parametrize("rho", [-1.0, -(1.0 - 1e-6), 1.0 - 1e-6, 1.0 - 1e-12, 1.0])
def test_narrow_ridge(rho):
    """Near rho = +-1 the mass lies within sqrt(1 - rho^2) of a diagonal, and
    at rho = +-1 on it."""
    config = MgpConfig(np.array(SCENARIOS["P2"].gamma), CopulaSpec.gaussian(rho))
    for thetas in ([], [0.1]):
        mean, err, _ = _quadrature(config, thetas)
        assert abs(mean[-5:-1].sum() - 1.0) <= 1e-12
        assert abs(mean[-1] - median_joint_prob(config)) <= 1e-12
        if rho > -0.9999999 and rho < 0.9999999:
            # the same rule on strips at most 0.00425 wide, about 3 ridge
            # widths, cut at the outer cuts but not graded towards the ridge
            edges = np.union1d(np.linspace(-8.5, 8.5, 4001), _z_edges(thetas, 0.0))
            fine = _strip_sums(config, thetas, edges[:-1], edges[1:],
                               np.ones(len(edges) - 1, dtype=int), 24, 24).sum(axis=0)
            assert np.all(np.abs(mean - fine) <= 1e-12)


def test_error_estimate_covers_doubling_difference(dgp_sweep, engine_sweep):
    for config, (mean, err, strips) in zip(dgp_sweep.configs, engine_sweep):
        assert np.all(err >= np.abs(mean - _doubled(config, list(dgp_sweep.thetas), strips)))


def test_error_estimate_fills_the_se_slots():
    config = SCENARIO_CONFIGS[0]
    mean, err, _ = _quadrature(config, [0.4])
    pb = population_bounds_quadrature(config, [0.4], warn_on_theta_mismatch=False)[0]
    assert (pb.worst_case.se_lower, pb.worst_case.se_upper) == (4 * err[0], 4 * err[1])
    assert (pb.refined.se_lower, pb.refined.se_upper) == (4 * err[2], 4 * err[3])
    assert np.array_equal(pb.p_z_se, err[-5:-1]) and pb.theta_hat_se == err[-1]


def test_mass_and_sheppard(dgp_sweep, quadrature_sweep):
    configs = dgp_sweep.configs + SCENARIO_CONFIGS
    results = [q[0] for q in quadrature_sweep] + [
        population_bounds_quadrature(c, [])[0] for c in SCENARIO_CONFIGS]
    for config, result in zip(configs, results):
        assert abs(result.p_z.sum() - 1.0) <= 1e-12
        assert abs(result.theta_hat - median_joint_prob(config)) <= 1e-12


def test_worst_case_brackets_zero(quadrature_sweep):
    for quad in quadrature_sweep:
        wc = quad[0].worst_case
        assert wc.lower <= 1e-12 and wc.upper >= -1e-12


def test_nesting_and_monotonicity_exact(quadrature_sweep):
    for quad in quadrature_sweep:
        wc = quad[0].worst_case
        for result in quad:
            assert result.worst_case == wc
            assert wc.lower <= result.refined.lower <= result.refined.upper <= wc.upper
        for a, b in zip(quad, quad[1:]):
            assert a.refined.lower <= b.refined.lower
            assert a.refined.upper <= b.refined.upper


def test_theta_ends_reach_the_worst_case():
    rng = np.random.default_rng(5)
    configs = SCENARIO_CONFIGS + [
        MgpConfig(rng.uniform(-5.0, 5.0, size=(4, 2)),
                  CopulaSpec.gaussian(rng.uniform(-0.999, 0.999)), scale)
        for scale in CovariateScale for _ in range(3)]
    for config in configs:
        low, high = population_bounds_quadrature(config, [0.0, 0.5],
                                                 warn_on_theta_mismatch=False)
        assert abs(low.refined.lower - low.worst_case.lower) <= 1e-14
        assert abs(high.refined.upper - high.worst_case.upper) <= 1e-14


def test_exact_theta_raises_no_warning():
    for config in SCENARIO_CONFIGS + [MgpConfig(np.zeros((4, 2)), CopulaSpec.independence())]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ThetaMismatchWarning)
            population_bounds_quadrature(config, [median_joint_prob(config)])
        with pytest.warns(ThetaMismatchWarning):
            population_bounds_quadrature(config, [median_joint_prob(config) + 1e-6])
    # an error estimate of 0 still tolerates a difference of one rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error", ThetaMismatchWarning)
        _assemble([0.25 + 1e-16], np.full(9, 0.25), np.zeros(9), True, "quadrature")


def test_independence_is_gaussian_at_zero():
    gamma = np.array(SCENARIOS["P2"].gamma)
    a = population_bounds_quadrature(MgpConfig(gamma, CopulaSpec.independence()), [0.25])[0]
    b = population_bounds_quadrature(MgpConfig(gamma, CopulaSpec.gaussian(0.0)), [0.25])[0]
    assert a.worst_case == b.worst_case and a.refined == b.refined
    assert np.array_equal(a.p_z, b.p_z) and a.theta_hat == b.theta_hat
    assert a.engine == "quadrature"


# ---------------------------------------------------------------------------
# the envelope copulas: rho = 1 (M) and rho = -1 (W)

ENVELOPES = [CopulaSpec.comonotone(), CopulaSpec.countermonotone()]
ENVELOPE_THETAS = [0.1, 0.25, 0.4, 0.5]
# with gamma = 0 every pattern has probability 1/4, so the tau bounds are
# E[surface] + 1 (upper) and E[surface] - 1 (lower) along the (anti)diagonal:
# rho: (worst case, refined interval per theta in ENVELOPE_THETAS)
CLOSED_FORMS = {
    1.0: ((-0.75, 1.5), [(-0.745, 1.34), (-0.71875, 1.4375), (-0.67, 1.49),
                         (-0.625, 1.5)]),
    -1.0: ((-1.0, 1.25), [(-0.99, 1.17), (-0.9375, 1.21875), (-0.84, 1.245),
                          (-0.75, 1.25)]),
}


def _along_support(rho, upper, lower):
    """The (lower, upper) tau bounds of gamma = 0 from surfaces integrated
    along the support of the envelope copula, v = u (rho = 1) or v = 1 - u."""
    from scipy import integrate

    def mean(surface):
        # the surfaces are linear between these points, where they kink
        kinks = sorted({0.5, *(k for th in ENVELOPE_THETAS for k in (
            th, 1 - th, 0.5 - th, 0.5 + th, 0.5 - th / 2, 0.5 + th / 2,
            0.25 + th / 2, 0.75 - th / 2))})
        value, _ = integrate.quad(lambda u: surface(u, u if rho > 0 else 1.0 - u),
                                  0.0, 1.0, points=kinks, epsabs=1e-14, limit=200)
        return value

    return mean(lower) - 1.0, mean(upper) + 1.0


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_envelope_closed_forms(rho):
    worst, refined = CLOSED_FORMS[rho]
    # the table against the surfaces themselves
    exact = [_along_support(rho, min, lambda u, v: max(u + v - 1.0, 0.0))]
    exact += [_along_support(rho, functools.partial(constrained_upper, th),
                             functools.partial(constrained_lower, th))
              for th in ENVELOPE_THETAS]
    assert np.allclose(exact, [worst] + refined, rtol=0.0, atol=1e-12)

    config = MgpConfig(np.zeros((4, 2)), CopulaSpec.gaussian(rho))
    results = population_bounds_quadrature(config, ENVELOPE_THETAS,
                                           warn_on_theta_mismatch=False)
    intervals = [results[0].worst_case] + [r.refined for r in results]
    for interval, (lower, upper) in zip(intervals, [worst] + refined):
        assert abs(interval.lower - lower) <= min(1e-12, interval.se_lower)
        assert abs(interval.upper - upper) <= min(1e-12, interval.se_upper)
        assert max(interval.se_lower, interval.se_upper) <= 1e-6


@pytest.mark.parametrize("scale", list(CovariateScale))
@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_envelopes_continue_the_family(rho, scale):
    """The values at rho = +-1 are the limits of those just inside."""
    gamma = np.array(SCENARIOS["P2"].gamma)
    near = 1.0 - 1e-12
    s = math.sqrt(1.0 - near * near)  # 1.4e-6, the ridge width just inside
    at, _, _ = _quadrature(MgpConfig(gamma, CopulaSpec.gaussian(rho), scale), [0.1, 0.4])
    inside, _, _ = _quadrature(MgpConfig(gamma, CopulaSpec.gaussian(rho * near), scale),
                               [0.1, 0.4])
    assert np.abs(at - inside).max() <= s


@pytest.mark.parametrize("scale", list(CovariateScale))
def test_envelopes_agree_with_monte_carlo(scale):
    thetas = [0.0] + ENVELOPE_THETAS
    # P2 and P3 share their gamma rows
    gammas = dict.fromkeys(SCENARIOS[name].gamma for name in ("P1", "P2", "P3"))
    cases = [MgpConfig(np.array(gamma), copula, scale)
             for gamma in gammas for copula in ENVELOPES]
    for seed, config in enumerate(cases):
        mc = population_bounds_sweep(config, thetas, draws=2_000_000, seed=seed,
                                     warn_on_theta_mismatch=False)
        quad = population_bounds_quadrature(config, thetas, warn_on_theta_mismatch=False)
        for q, qe, m, me in _endpoint_pairs(quad, mc):
            assert abs(q - m) <= 4.0 * math.hypot(qe, me)


@pytest.mark.parametrize("scale", list(CovariateScale))
@pytest.mark.parametrize("copula", ENVELOPES, ids=["comonotone", "countermonotone"])
def test_envelope_properties_exact(copula, scale):
    thetas = [0.0] + ENVELOPE_THETAS
    for name in ("P1", "P2"):
        config = MgpConfig(np.array(SCENARIOS[name].gamma), copula, scale)
        quad = population_bounds_quadrature(config, thetas, warn_on_theta_mismatch=False)
        wc = quad[0].worst_case
        assert wc.lower <= min(0.0, true_tau(config)) and wc.upper >= max(0.0, true_tau(config))
        for result in quad:
            assert wc.lower <= result.refined.lower <= result.refined.upper <= wc.upper
        for a, b in zip(quad, quad[1:]):
            assert a.refined.lower <= b.refined.lower
            assert a.refined.upper <= b.refined.upper
