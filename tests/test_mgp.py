"""Tests for the missingness-generating simulation and population bounds."""

import math

import numpy as np
import pytest

from taubounds import (
    SCENARIOS,
    CopulaSpec,
    CovariateScale,
    Decision,
    MgpConfig,
    ThetaMismatchWarning,
    median_joint_prob,
    population_bounds,
    population_bounds_sweep,
    propensity,
    scenario_manifest,
    simulate_dataset,
    true_tau,
)
from taubounds.concordance import kendall_tau
from taubounds.copulas import _rng_for, _sample_with
from taubounds.mgp import BLOCK_SIZE, _block_sizes, _covariates, _draw_block, _simulate_latent


def config_of(gamma, copula=None, scale=CovariateScale.UNIFORM01):
    return MgpConfig(np.asarray(gamma, dtype=float),
                     copula or CopulaSpec.independence(), scale)


ZERO_GAMMA = np.zeros((4, 2))


def softmax_rows(config, x, y):
    """Oracle: the point-major softmax, one row of four patterns per point,
    reducing along the last axis."""
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    logits = (xx[..., None] * config.gamma[:, 0]
              + yy[..., None] * config.gamma[:, 1])
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def assert_same_bits(pattern_major, oracle):
    expected = np.moveaxis(oracle, -1, 0)
    assert pattern_major.shape == expected.shape
    assert pattern_major.tobytes() == expected.tobytes()


class TestPropensity:
    def test_zero_gamma_uniform(self):
        p = propensity(config_of(ZERO_GAMMA), 0.3, 0.8)
        assert np.allclose(p, 0.25, atol=1e-15)

    def test_origin_always_uniform(self):
        config = SCENARIOS["P2"].config()
        assert np.allclose(propensity(config, 0.0, 0.0), 0.25, atol=1e-15)

    def test_p2_at_ones_against_direct_softmax(self):
        # oracle: direct evaluation of the four exponents 1, 3.5, -1.5, 4
        exponents = np.array([1.0, 3.5, -1.5, 4.0])
        oracle = np.exp(exponents) / np.exp(exponents).sum()
        p = propensity(SCENARIOS["P2"].config(), 1.0, 1.0)
        assert np.allclose(p, oracle, atol=1e-12)
        assert np.round(p, 4).tolist() == [0.0300, 0.3653, 0.0025, 0.6023]

    def test_overflow_guard(self):
        config = config_of([[1e6, 1e6], [-1e6, -1e6], [-1e6, -1e6], [-1e6, -1e6]])
        p = propensity(config, 1.0, 1.0)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[0] == pytest.approx(1.0)

    def test_vectorised_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        config = SCENARIOS["P1"].config()
        p = propensity(config, rng.random(1000), rng.random(1000))
        assert p.shape == (4, 1000)
        assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-12
        assert p.min() > 0.0

    def test_gamma_shape_validation(self):
        with pytest.raises(ValueError):
            config_of(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            config_of(np.full((4, 2), np.inf))


class TestPropensityBits:
    """The pattern-major propensity is the point-major softmax transposed, bit for bit."""

    @pytest.mark.parametrize("scale", list(CovariateScale))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, name, scale):
        config = SCENARIOS[name].config(scale)
        uv = _sample_with(_rng_for(3, 0), config.copula, 50_000)
        x, y = _covariates(uv[:, 0], uv[:, 1], scale)
        assert_same_bits(propensity(config, x, y), softmax_rows(config, x, y))

    def test_random_gamma_up_to_1000(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            bound = 10.0 ** rng.uniform(-1.0, 3.0)
            config = config_of(rng.uniform(-bound, bound, size=(4, 2)))
            x, y = 3.0 * rng.standard_normal(20_001), rng.random(20_001)
            assert_same_bits(propensity(config, x, y), softmax_rows(config, x, y))

    def test_overflow_case(self):
        config = config_of([[1e6, 1e6], [-1e6, -1e6], [-1e6, -1e6], [-1e6, -1e6]])
        x = np.random.default_rng(9).standard_normal(1000)
        assert_same_bits(propensity(config, x, -x), softmax_rows(config, x, -x))

    def test_scalar_1d_and_2d_inputs(self):
        config = config_of([[1.0, 0.5], [-0.8, 0.3], [0.4, -1.1], [0.6, 0.9]])
        rng = np.random.default_rng(10)
        for shape in ((), (1,), (257,), (13, 7)):
            x, y = rng.standard_normal(shape), rng.standard_normal(shape)
            assert_same_bits(propensity(config, x, y), softmax_rows(config, x, y))
        assert_same_bits(propensity(config, 0.25, -2.0), softmax_rows(config, 0.25, -2.0))

    def test_draw_block_thresholds_the_oracle_cumsum(self):
        for scale in CovariateScale:
            config = SCENARIOS["P2"].config(scale)
            uv, x, y, z = _draw_block(config, 5, 1, 30_000)
            # the block's stream: its latent pairs, then one uniform per draw
            rng = _rng_for(5, 1)
            _sample_with(rng, config.copula, 30_000)
            t = rng.random(30_000)
            cum = np.cumsum(softmax_rows(config, x, y), axis=1)
            expected = 1 + (t[:, None] > cum[:, :3]).sum(axis=1)
            assert np.array_equal(z, expected)


class TestScenarios:
    def test_constants_exactly_as_published(self):
        p1 = SCENARIOS["P1"]
        assert p1.gamma == ((2.0, 2.0), (-5.0, 0.25), (5.0, -0.25), (-5.0, -5.0))
        assert p1.rho == -0.999 and p1.theta == 0.4
        p2 = SCENARIOS["P2"]
        assert p2.gamma == ((0.5, 0.5), (3.0, 0.5), (0.5, -2.0), (2.0, 2.0))
        assert p2.rho == 0.99
        p3 = SCENARIOS["P3"]
        assert p3.gamma == p2.gamma and p3.rho == 0.0
        assert p1.expected_decision is Decision.DEPENDENCE_NEGATIVE
        assert p2.expected_decision is Decision.DEPENDENCE_POSITIVE
        assert p3.expected_decision is Decision.INCONCLUSIVE

    def test_manifest_round_trip(self):
        import json

        manifest = scenario_manifest()
        assert set(manifest) == {"P1", "P2", "P3"}
        payload = json.dumps(manifest)
        assert json.loads(payload)["P1"]["rho"] == -0.999


class TestSimulateDataset:
    def test_forced_complete(self):
        config = config_of([[1e6, 1e6], [-1e6, -1e6], [-1e6, -1e6], [-1e6, -1e6]],
                           CopulaSpec.comonotone())
        ds = simulate_dataset(config, 2000, seed=1)
        assert np.all(ds.z == 1)

    def test_zero_gamma_frequencies(self):
        ds = simulate_dataset(config_of(ZERO_GAMMA), 100_000, seed=2)
        freq = ds.pattern_counts() / len(ds)
        assert np.max(np.abs(freq - 0.25)) < 0.007

    def test_masking_matches_pattern(self):
        ds = simulate_dataset(SCENARIOS["P3"].config(), 5000, seed=3)
        x_missing = np.isnan(ds.x)
        y_missing = np.isnan(ds.y)
        assert np.array_equal(ds.z == 1, ~x_missing & ~y_missing)
        assert np.array_equal(ds.z == 2, ~x_missing & y_missing)
        assert np.array_equal(ds.z == 3, x_missing & ~y_missing)
        assert np.array_equal(ds.z == 4, x_missing & y_missing)

    def test_latent_draws_share_the_stream(self):
        # n spans two blocks; the unmasked draws must be the very stream
        # simulate_dataset masks
        config = SCENARIOS["P2"].config()
        n = BLOCK_SIZE + 1000
        ds = simulate_dataset(config, n, seed=17)
        u, v, z = _simulate_latent(config, n, seed=17)
        assert np.array_equal(ds.z, z)
        x_seen = ~np.isnan(ds.x)
        y_seen = ~np.isnan(ds.y)
        assert np.array_equal(ds.x[x_seen], u[x_seen])
        assert np.array_equal(ds.y[y_seen], v[y_seen])

    def test_same_seed_repeats(self):
        config = SCENARIOS["P2"].config()
        n = BLOCK_SIZE + 1000  # two blocks
        a = simulate_dataset(config, n, seed=5)
        b = simulate_dataset(config, n, seed=5)
        assert np.array_equal(a.x, b.x, equal_nan=True)
        assert np.array_equal(a.y, b.y, equal_nan=True)
        assert np.array_equal(a.z, b.z)

    def test_pattern_frequencies_match_population(self):
        # self-consistency at two sample sizes: empirical frequencies against
        # the propensity-integrated pattern probabilities
        config = SCENARIOS["P3"].config()
        pb = population_bounds(config, draws=400_000, seed=11)
        n = 200_000
        ds = simulate_dataset(config, n, seed=12)
        freq = ds.pattern_counts() / n
        for z in range(4):
            se = math.sqrt(pb.p_z[z] * (1 - pb.p_z[z]) / n + pb.p_z_se[z] ** 2)
            assert abs(freq[z] - pb.p_z[z]) < 3 * se

    def test_normal_score_scale(self):
        config = SCENARIOS["P3"].config(CovariateScale.NORMAL_SCORE)
        ds = simulate_dataset(config, 20_000, seed=6)
        observed_x = ds.x[~np.isnan(ds.x)]
        assert observed_x.min() < -0.5 and observed_x.max() > 0.5

    def test_n_validation(self):
        with pytest.raises(ValueError):
            simulate_dataset(config_of(ZERO_GAMMA), 0, seed=0)


class TestBayesConsistency:
    def test_pattern_conditional_histograms(self):
        # the law of (u, v) within pattern z must match the propensity-tilted
        # copula law; compare 20x20 histograms chi-square style
        config = config_of([[1.0, 0.5], [-0.8, 0.3], [0.4, -1.1], [0.6, 0.9]],
                           CopulaSpec.gaussian(0.5))
        n = 400_000
        u, v, z = _simulate_latent(config, n, seed=21)

        ref = _sample_with(_rng_for(97, 0), config.copula, 2_000_000)
        pi_ref = propensity(config, ref[:, 0], ref[:, 1])
        edges = np.linspace(0.0, 1.0, 21)
        chi2 = 0.0
        dof = 0
        for pattern in (1, 2, 3, 4):
            mask = z == pattern
            observed, _, _ = np.histogram2d(u[mask], v[mask], bins=(edges, edges))
            weights = pi_ref[pattern - 1]
            expected, _, _ = np.histogram2d(ref[:, 0], ref[:, 1],
                                            bins=(edges, edges), weights=weights)
            expected *= n / weights.size
            keep = expected >= 10.0
            chi2 += float(np.sum((observed[keep] - expected[keep]) ** 2
                                 / expected[keep]))
            dof += int(keep.sum())
        assert chi2 < dof + 8.0 * math.sqrt(2.0 * dof)


class TestPopulationBounds:
    def test_draw_floor(self):
        with pytest.raises(ValueError):
            population_bounds("P3", draws=9999)

    def test_theta_mismatch_warning(self):
        with pytest.warns(ThetaMismatchWarning):
            population_bounds("P1", theta=0.4, draws=50_000, seed=0)
        with pytest.warns(ThetaMismatchWarning):
            population_bounds("P2", theta=0.4, draws=50_000, seed=0)

    def test_warning_suppression(self, recwarn):
        population_bounds("P1", theta=0.4, draws=50_000, seed=0,
                          warn_on_theta_mismatch=False)
        assert not [w for w in recwarn if issubclass(w.category, ThetaMismatchWarning)]

    def test_matched_theta_no_warning(self, recwarn):
        config = config_of(ZERO_GAMMA, CopulaSpec.independence())
        population_bounds(config, theta=0.25, draws=100_000, seed=1)
        assert not [w for w in recwarn if issubclass(w.category, ThetaMismatchWarning)]

    def test_worker_independence(self):
        # a same-seed repeat over three blocks; workers is accepted and ignored
        draws = 2 * BLOCK_SIZE + 1000
        a = population_bounds("P2", theta=0.4, draws=draws, seed=3,
                              warn_on_theta_mismatch=False)
        b = population_bounds("P2", theta=0.4, draws=draws, seed=3, workers=8,
                              warn_on_theta_mismatch=False)
        assert a.worst_case == b.worst_case
        assert a.refined == b.refined
        assert np.array_equal(a.p_z, b.p_z)

    def test_pattern_probabilities(self):
        pb = population_bounds("P3", draws=100_000, seed=4)
        assert pb.p_z.shape == (4,)
        assert pb.p_z.min() > 0.0
        assert pb.p_z.sum() == pytest.approx(1.0, abs=1e-12)
        assert pb.refined is None

    def test_sweep_nesting_and_monotonicity_exact(self):
        rng = np.random.default_rng(31)
        thetas = [0.1, 0.25, 0.4]
        for _ in range(10):
            config = config_of(rng.uniform(-5, 5, size=(4, 2)),
                               CopulaSpec.gaussian(rng.uniform(-0.999, 0.999)))
            sweep = population_bounds_sweep(config, thetas, draws=30_000,
                                            seed=int(rng.integers(1 << 31)),
                                            warn_on_theta_mismatch=False)
            wc = sweep[0].worst_case
            for result in sweep:
                assert result.worst_case == wc
                assert wc.lower <= result.refined.lower
                assert result.refined.upper <= wc.upper
            for a, b in zip(sweep, sweep[1:]):
                assert a.refined.lower <= b.refined.lower
                assert a.refined.upper <= b.refined.upper

    def test_worst_case_brackets_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            config = config_of(rng.uniform(-5, 5, size=(4, 2)),
                               CopulaSpec.gaussian(rng.uniform(-0.999, 0.999)))
            pb = population_bounds(config, draws=30_000,
                                   seed=int(rng.integers(1 << 31)))
            assert pb.worst_case.lower <= 3 * pb.worst_case.se_lower
            assert pb.worst_case.upper >= -3 * pb.worst_case.se_upper

    def test_scenario_by_name_and_scale(self):
        by_name = population_bounds("P3", theta=0.4, draws=20_000, seed=9,
                                    warn_on_theta_mismatch=False)
        by_config = population_bounds(SCENARIOS["P3"].config(), theta=0.4,
                                      draws=20_000, seed=9,
                                      warn_on_theta_mismatch=False)
        assert by_name.worst_case == by_config.worst_case
        normal = population_bounds("P3", theta=0.4, draws=20_000, seed=9,
                                   covariate_scale=CovariateScale.NORMAL_SCORE,
                                   warn_on_theta_mismatch=False)
        assert normal.worst_case != by_name.worst_case


def mc_true_tau(config, draws, seed):
    """Oracle: the sample tau of ``draws`` latent pairs of the sampling stream."""
    uv = np.concatenate([_sample_with(_rng_for(seed, index), config.copula, size)
                         for index, size in enumerate(_block_sizes(draws))])
    return kendall_tau(uv[:, 0], uv[:, 1])


def tau_se(n):
    """Standard deviation of the sample tau of n independent pairs. It bounds
    that of Gaussian pairs, whose asymptotic variance is
    (4/9 - (16/pi^2) asin(rho/2)^2) / n."""
    return math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))


def mc_median_joint_prob(config, draws, seed):
    """Oracle: the share of ``draws`` latent pairs in the lower median quadrant."""
    hits = 0
    for index, size in enumerate(_block_sizes(draws)):
        uv = _sample_with(_rng_for(seed, index), config.copula, size)
        hits += int(np.sum((uv[:, 0] <= 0.5) & (uv[:, 1] <= 0.5)))
    return hits / draws


def quadrant_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


class TestTrueTau:
    """The closed form (2/pi) asin(rho) against the sample tau of the stream."""

    def test_independence_near_zero(self):
        config = config_of(ZERO_GAMMA)
        assert true_tau(config) == 0.0
        assert abs(mc_true_tau(config, 1_000_000, seed=0)) < 3 * tau_se(1_000_000)

    def test_comonotone_exact_one(self):
        config = config_of(ZERO_GAMMA, CopulaSpec.comonotone())
        assert true_tau(config) == 1.0 == mc_true_tau(config, 20_000, seed=1)
        config = config_of(ZERO_GAMMA, CopulaSpec.countermonotone())
        assert true_tau(config) == -1.0 == mc_true_tau(config, 20_000, seed=1)

    def test_strong_positive(self):
        for rho, seed in ((0.99, 2), (0.5, 3), (-0.3, 4)):
            config = config_of(ZERO_GAMMA, CopulaSpec.gaussian(rho))
            tau = true_tau(config)
            assert tau == pytest.approx(2.0 / math.pi * math.asin(rho), abs=1e-15)
            assert abs(tau - mc_true_tau(config, 300_000, seed)) < 3 * tau_se(300_000)
        assert true_tau(config_of(ZERO_GAMMA, CopulaSpec.gaussian(0.99))) > 0.8

    def test_scenario_signs(self):
        assert true_tau("P1") < 0 < true_tau("P2")
        assert true_tau("P3") == 0.0
        # the sampling arguments are accepted and ignored
        assert true_tau("P1", draws=100, seed=3) == true_tau("P1")
        assert abs(true_tau("P1") - mc_true_tau(SCENARIOS["P1"].config(), 200_000, 3)) \
            < 3 * tau_se(200_000)


class TestMedianJointProb:
    """Sheppard's 1/4 + asin(rho)/(2 pi) against the sampled quadrant share."""

    def test_comonotone(self):
        config = config_of(ZERO_GAMMA, CopulaSpec.comonotone())
        assert median_joint_prob(config) == 0.5
        estimate = mc_median_joint_prob(config, 100_000, seed=5)
        assert abs(estimate - 0.5) < 3 * quadrant_se(0.5, 100_000)

    def test_countermonotone_exact_zero(self):
        config = config_of(ZERO_GAMMA, CopulaSpec.countermonotone())
        assert median_joint_prob(config) == 0.0 == mc_median_joint_prob(config, 50_000, 5)

    def test_independence(self):
        config = config_of(ZERO_GAMMA)
        assert median_joint_prob(config) == 0.25
        estimate = mc_median_joint_prob(config, 100_000, seed=5)
        assert abs(estimate - 0.25) < 3 * quadrant_se(0.25, 100_000)

    def test_never_above_half(self):
        for rho in (-0.999, -0.9, 0.0, 0.95, 0.999):
            config = config_of(ZERO_GAMMA, CopulaSpec.gaussian(rho))
            exact = median_joint_prob(config, draws=100, seed=1)
            assert 0.0 < exact < 0.5
            estimate = mc_median_joint_prob(config, 200_000, seed=6)
            assert abs(estimate - exact) < 3 * quadrant_se(exact, 200_000)
