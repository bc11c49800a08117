"""Standard errors of the plug-in endpoints.

Each endpoint is 4 mean(h) - 1 over per-row integrands h, and its SE is
4 sd(h) / sqrt(n). Under unknown margins each h carries the Hajek
projection of the estimated CDF envelopes.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taubounds import (
    SCENARIOS,
    CopulaSpec,
    CovariateScale,
    Dataset,
    MarginMode,
    MgpConfig,
    TiedDataWarning,
    constrained_lower,
    constrained_upper,
    envelope_summary,
    marginal_cdf_bounds,
    refined,
    simulate_dataset,
    summarize,
    worst_case,
)

UNIFORM = MarginMode.uniform01()

# Fixed before the test was first run: three configurations, two sample
# sizes, seeds 1000-1299. At 300 replications the ratio itself has about 4%
# noise, hence the band.
CALIBRATION_CONFIGS = {
    "P2": SCENARIOS["P2"].config(),
    "P3": SCENARIOS["P3"].config(),
    "gamma_3_0_0_-1_rho_0.8": MgpConfig(
        np.array([[3.0, 3.0], [0.0, 0.0], [0.0, 0.0], [-1.0, -1.0]]),
        CopulaSpec.gaussian(0.8), CovariateScale.UNIFORM01),
}
CALIBRATION_SEEDS = range(1000, 1300)
CALIBRATION_BAND = (0.85, 1.15)


@pytest.mark.parametrize("n", [500, 5000])
@pytest.mark.parametrize("name", list(CALIBRATION_CONFIGS))
def test_se_matches_sampling_spread(name, n):
    """Over the replications, each endpoint's sd divided by its mean reported
    SE lies in the band, for uniform01 margins at theta = 0.4 and for unknown
    margins. Endpoints whose SE is 0 in every replication (the unknown-margins
    lower endpoint pinned at -1) are skipped."""
    labels = [f"{route} {side}" for route in ("worst_case", "refined", "unknown")
              for side in ("lower", "upper")]
    values, ses = [], []
    for seed in CALIBRATION_SEEDS:
        ds = simulate_dataset(CALIBRATION_CONFIGS[name], n, seed)
        s = summarize(ds, UNIFORM, theta=0.4)
        intervals = (worst_case(s.base), refined(s), worst_case(envelope_summary(ds)))
        values.append([getattr(i, side) for i in intervals for side in ("lower", "upper")])
        ses.append([getattr(i, f"se_{side}") for i in intervals
                    for side in ("lower", "upper")])
    values, ses = np.array(values), np.array(ses)
    checked = 0
    for k, label in enumerate(labels):
        if np.all(ses[:, k] == 0.0):
            assert np.all(values[:, k] == values[0, k]), label
            continue
        ratio = values[:, k].std(ddof=1) / ses[:, k].mean()
        assert CALIBRATION_BAND[0] <= ratio <= CALIBRATION_BAND[1], f"{label}: {ratio:.3f}"
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# oracles: the per-row integrands written out pattern by pattern


def _rows(z, u, v, lu, lv):
    """Upper and lower worst-case integrand of each row."""
    upper = np.select([z == 1, z == 2, z == 3], [np.minimum(u, v), u, v], 1.0)
    lower = np.where(z == 1, np.maximum(lu + lv - 1.0, 0.0), 0.0)
    return upper, lower


def _se(h):
    return 4.0 * np.std(h, ddof=1) / math.sqrt(h.size)


def _affine(z, upper_rows, lower_rows):
    """The affine map of the per-pattern means of the integrands."""
    n = z.size
    p = [np.count_nonzero(z == k) / n for k in (1, 2, 3, 4)]
    mean = [upper_rows[z == k].mean() if p[k - 1] else 0.0 for k in (1, 2, 3)]
    l1 = lower_rows[z == 1].mean() if p[0] else 0.0
    return 4 * l1 * p[0] - 1, 4 * (mean[0] * p[0] + mean[1] * p[1] + mean[2] * p[2] + p[3]) - 1


def _projected_rows(ds):
    """Per-row integrands plus their Hajek projection, term by term in O(n^2)."""
    env = marginal_cdf_bounds(ds)
    x, y, z, n = ds.x, ds.y, ds.z, len(ds)
    fu, gu, fl, gl = env.upper_f(x), env.upper_g(y), env.lower_f(x), env.lower_g(y)
    upper, lower = _rows(z, fu, gu, fl, gl)
    # the branches compared exactly, on n times the envelopes
    nfu, ngu, nfl, ngl = (np.rint(n * a) for a in (fu, gu, fl, gl))
    reads_f = (z == 2) | (z == 1) & (nfu <= ngu)
    reads_g = (z == 3) | (z == 1) & (nfu > ngu)
    reads_both = (z == 1) & (nfl + ngl > n)
    psi_upper, psi_lower = upper.copy(), lower.copy()
    for j in range(n):
        for i in range(n):
            # row j's indicator in n F_upper(t) is 1{x_j missing or x_j <= t},
            # in n F_lower(t) it is 1{x_j observed and x_j <= t}
            below_x = not np.isnan(x[j]) and x[j] <= x[i]
            below_y = not np.isnan(y[j]) and y[j] <= y[i]
            if reads_f[i]:
                psi_upper[j] += (np.isnan(x[j]) or below_x) / n
            if reads_g[i]:
                psi_upper[j] += (np.isnan(y[j]) or below_y) / n
            if reads_both[i]:
                psi_lower[j] += (int(below_x) + int(below_y)) / n
    return (upper, lower), (psi_upper, psi_lower)


cells = st.sampled_from([None, 0.0, 0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(records=st.lists(st.tuples(cells, cells), min_size=1, max_size=40),
       theta=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
@example(records=[(0.5, 0.5)], theta=0.5, seed=0)
@example(records=[(1.0, 0.0), (0.5, None), (None, 0.5), (None, None)], theta=0.0, seed=1)
@example(records=[(0.0, 0.0)] * 5 + [(0.0, 0.5)], theta=0.0, seed=2)
def test_endpoints_and_ses_of_the_per_row_columns(records, theta, seed):
    """On tiny tied data: the endpoints are the affine map of the per-pattern
    means, each SE is 4 sd / sqrt(n) of its per-row column (projected under
    unknown margins), finite for n >= 2, and bit-identical under row
    permutation."""
    ds = Dataset.from_records(records)
    o = np.random.default_rng(seed).permutation(len(ds))
    shuffled = Dataset(ds.x[o], ds.y[o])
    z = ds.z
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiedDataWarning)
        known, known_shuffled = (summarize(d, UNIFORM, theta=theta) for d in (ds, shuffled))
        unknown, unknown_shuffled = (envelope_summary(d) for d in (ds, shuffled))
    u, v = np.nan_to_num(ds.x), np.nan_to_num(ds.y)
    oracle_rows = _rows(z, u, v, u, v)
    oracle_refined = (np.where(z == 1, constrained_upper(theta, u, v), oracle_rows[0]),
                      np.where(z == 1, constrained_lower(theta, u, v), 0.0))
    cases = [(worst_case(known.base), worst_case(known_shuffled.base), oracle_rows),
             (refined(known), refined(known_shuffled), oracle_refined)]
    for interval, permuted, (upper, lower) in cases:
        expected_lower, expected_upper = _affine(z, upper, lower)
        assert interval.lower == pytest.approx(expected_lower, abs=1e-12)
        assert interval.upper == pytest.approx(expected_upper, abs=1e-12)
        assert (permuted.lower, permuted.upper) == (interval.lower, interval.upper)
        _check_ses((interval.se_lower, interval.se_upper), (permuted.se_lower, permuted.se_upper),
                   (lower, upper))

    # unknown margins: the summary's moments and the interval, whose ends
    # the rounding of tiny tied data can make cross (then lower is set to upper)
    (h_upper, h_lower), projected = _projected_rows(ds)
    moments = (unknown.m1, unknown.l1, unknown.m2, unknown.m3)
    for pattern, moment, h in zip((1, 1, 2, 3), moments, (h_upper, h_lower, h_upper, h_upper)):
        if np.any(z == pattern):
            assert moment == pytest.approx(h[z == pattern].mean(), abs=1e-12)
    assert moments == (unknown_shuffled.m1, unknown_shuffled.l1, unknown_shuffled.m2,
                       unknown_shuffled.m3)
    interval, permuted = worst_case(unknown), worst_case(unknown_shuffled)
    expected_lower, expected_upper = _affine(z, h_upper, h_lower)
    assert interval.lower == pytest.approx(expected_lower, abs=1e-12)
    assert interval.upper == pytest.approx(expected_upper, abs=1e-12)
    assert (permuted.lower, permuted.upper) == (interval.lower, interval.upper)
    _check_ses((interval.se_lower, interval.se_upper), (permuted.se_lower, permuted.se_upper),
               projected[::-1])


def _check_ses(se, permuted, rows):
    """SEs (lower, upper): bit-identical under permutation, NaN at n = 1,
    else 4 sd / sqrt(n) of the per-row columns ``rows`` (lower, upper)."""
    assert np.array(se).tobytes() == np.array(permuted).tobytes()
    if rows[0].size == 1:
        assert all(math.isnan(x) for x in se)
        return
    for value, column in zip(se, rows):
        assert math.isfinite(value)
        assert value == pytest.approx(_se(column), rel=1e-9, abs=1e-15)
