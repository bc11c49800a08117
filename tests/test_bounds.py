"""Tests for the interval algebra, CDF envelopes, and decisions."""

import math
import warnings

import numpy as np
import pytest
from conftest import checked_report
from scipy import integrate

from taubounds import (
    Dataset,
    Decision,
    DistSummary,
    InvalidSummaryError,
    MarginMode,
    StepFunction,
    TauInterval,
    ThetaSummary,
    TiedDataWarning,
    analyze,
    clip,
    decide,
    envelope_summary,
    marginal_cdf_bounds,
    refined,
    worst_case,
)
from taubounds.cli import main
from taubounds.mgp import simulate_dataset, MgpConfig, CovariateScale
from taubounds.copulas import CopulaSpec


def summary(p, m1=None, l1=None, m2=None, m3=None, **kw):
    return DistSummary(tuple(p), m1, l1, m2, m3, **kw)


class TestWorstCase:
    def test_all_missing_raw(self):
        interval = worst_case(summary((0, 0, 0, 1)))
        assert (interval.lower, interval.upper) == (-1.0, 3.0)

    def test_comonotone_constants(self):
        interval = worst_case(summary((1, 0, 0, 0), m1=0.5, l1=0.25))
        assert (interval.lower, interval.upper) == (0.0, 1.0)

    def test_independence_constants(self):
        # oracle: 2-d quadrature of the envelope surfaces under independence,
        # with the domain split along each surface's kink line
        e_min = 2 * integrate.dblquad(lambda v, u: v, 0, 1, 0, lambda u: u)[0]
        e_w = integrate.dblquad(lambda v, u: u + v - 1, 0, 1, lambda u: 1 - u, 1)[0]
        assert e_min == pytest.approx(1 / 3, abs=1e-9)
        assert e_w == pytest.approx(1 / 6, abs=1e-9)
        interval = worst_case(summary((1, 0, 0, 0), m1=e_min, l1=e_w))
        assert interval.lower == pytest.approx(-1 / 3, abs=1e-8)
        assert interval.upper == pytest.approx(1 / 3, abs=1e-8)

    def test_affine_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            m1 = rng.uniform(0.2, 1.0)
            l1 = rng.uniform(0.0, m1)
            m2, m3 = rng.uniform(0, 1, 2)
            interval = worst_case(summary(p, m1=m1, l1=l1, m2=m2, m3=m3))
            m1_back = ((interval.upper + 1) / 4 - m2 * p[1] - m3 * p[2] - p[3]) / p[0]
            l1_back = (interval.lower + 1) / 4 / p[0]
            assert m1_back == pytest.approx(m1, abs=1e-12)
            assert l1_back == pytest.approx(l1, abs=1e-12)

    def test_se_propagation(self):
        # the summary's SEs are those of its endpoints: the maps copy them
        s = summary((0.5, 0.2, 0.2, 0.1), m1=0.4, l1=0.2, m2=0.5, m3=0.5,
                    se=(0.01, 0.02))
        ts = ThetaSummary(0.3, 0.35, 0.25, s, se=(0.03, 0.04))
        assert (worst_case(s).se_lower, worst_case(s).se_upper) == (0.01, 0.02)
        assert (refined(ts).se_lower, refined(ts).se_upper) == (0.03, 0.04)
        with pytest.raises(InvalidSummaryError, match="2 entries"):
            summary((1, 0, 0, 0), m1=0.5, l1=0.2, se=(0.01, 0.02, 0.03, 0.04))

    def test_se_propagation_with_multinomial_part(self):
        # every pattern moment is exact (no within-pattern spread), so the
        # SE is the multinomial spread of the pattern frequencies alone, with
        # their covariances: the per-row upper integrand is 0.5 (pattern 1)
        # or 1 (pattern 4), a two-point variable
        from taubounds import MarginMode, TiedDataWarning, summarize

        n1, n4 = 30, 10
        n = n1 + n4
        with pytest.warns(TiedDataWarning):
            s = summarize(Dataset.from_records([(0.5, 0.5)] * n1 + [(None, None)] * n4),
                          MarginMode.uniform01())
        p4 = n4 / n
        sd = 0.5 * math.sqrt(p4 * (1 - p4) * n / (n - 1))
        interval = worst_case(s)
        assert interval.se_upper == pytest.approx(4 * sd / math.sqrt(n), rel=1e-12)
        assert interval.se_lower == 0.0  # every lower integrand is 0


class TestSummaryValidation:
    def test_probabilities_must_be_simplex(self):
        with pytest.raises(InvalidSummaryError):
            summary((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(InvalidSummaryError):
            summary((0.3, 0.3, 0.3, 0.3))
        with pytest.raises(InvalidSummaryError, match="exactly 4 entries"):
            summary((0.5, 0.25, 0.25))

    def test_moments_in_unit_interval(self):
        with pytest.raises(InvalidSummaryError):
            summary((1, 0, 0, 0), m1=1.2, l1=0.5)

    def test_lower_moment_dominated(self):
        with pytest.raises(InvalidSummaryError):
            summary((1, 0, 0, 0), m1=0.3, l1=0.4)

    def test_absent_moments_stay_absent(self):
        with pytest.raises(InvalidSummaryError):
            summary((0, 0, 0, 1), m1=0.5, l1=0.2)
        with pytest.raises(InvalidSummaryError):
            summary((1, 0, 0, 0), m1=0.5)  # l1 missing despite mass

    def test_theta_summary_nesting_rules(self):
        base = summary((1, 0, 0, 0), m1=0.5, l1=0.25)
        ThetaSummary(0.4, 0.45, 0.3, base)
        with pytest.raises(InvalidSummaryError):
            ThetaSummary(0.4, 0.6, 0.3, base)  # m1_theta above m1
        with pytest.raises(InvalidSummaryError):
            ThetaSummary(0.4, 0.45, 0.2, base)  # l1_theta below l1
        with pytest.raises(InvalidSummaryError):
            ThetaSummary(0.4, 0.3, 0.45, base)  # crossed


class TestRefined:
    def test_theta_half_matches_worst_case(self):
        base = summary((1, 0, 0, 0), m1=0.5, l1=0.25)
        ts = ThetaSummary(0.5, 0.5, 0.25, base)
        a = refined(ts)
        b = worst_case(base)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_published_value_shapes(self):
        # affine feasibility of the published demonstration values
        base = summary((1, 0, 0, 0), m1=0.45, l1=0.1)
        ts = ThetaSummary(0.4, (0.63 + 1) / 4, (-0.32 + 1) / 4, base)
        interval = refined(ts)
        assert interval.lower == pytest.approx(-0.32, abs=1e-12)
        assert interval.upper == pytest.approx(0.63, abs=1e-12)
        assert decide(clip(interval)) is Decision.INCONCLUSIVE

        ts = ThetaSummary(0.4, 0.45, (0.034 + 1) / 4, base)
        interval = refined(ts)
        assert interval.lower == pytest.approx(0.034, abs=1e-12)
        assert decide(clip(interval)) is Decision.DEPENDENCE_POSITIVE

    def test_nested_in_worst_case(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            m1 = rng.uniform(0.3, 1.0)
            l1 = rng.uniform(0.0, 0.3)
            base = summary(p, m1=m1, l1=l1, m2=rng.uniform(0, 1), m3=rng.uniform(0, 1))
            m1t = rng.uniform(l1, m1)
            l1t = rng.uniform(l1, m1t)
            interval = refined(ThetaSummary(0.25, m1t, l1t, base))
            envelope = worst_case(base)
            assert envelope.lower <= interval.lower
            assert interval.upper <= envelope.upper

    def test_nesting_check_shares_moment_tolerance(self):
        # ThetaSummary accepts constrained moments up to _MOMENT_TOL outside
        # the unconstrained ones; refined() must accept the same summaries,
        # each end then sitting at most 4 * p1 * _MOMENT_TOL (plus rounding)
        # outside the worst case, also when p1 is tiny
        tol = 1e-12
        rng = np.random.default_rng(4)
        for p1 in (0.5, 1e-3, 5.6e-5, 1e-9):
            for _ in range(20):
                p = (p1, *rng.dirichlet(np.ones(3)) * (1.0 - p1))
                m1, l1 = rng.uniform(0.3, 0.9), rng.uniform(0.0, 0.2)
                base = summary(p, m1=m1, l1=l1, m2=rng.uniform(0, 1), m3=rng.uniform(0, 1))
                envelope = worst_case(base)
                for m1t, l1t in ((m1 + 5e-13, l1), (m1 + tol, l1 - tol)):
                    interval = refined(ThetaSummary(0.4, m1t, l1t, base))
                    assert interval.upper - envelope.upper <= 4 * p1 * tol + 1e-15
                    assert envelope.lower - interval.lower <= 4 * p1 * tol + 1e-15
        base = DistSummary((0.5, 0.2, 0.2, 0.1), 0.4, 0.1, 0.5, 0.5)
        interval = refined(ThetaSummary(0.4, 0.4 + 5e-13, 0.1, base))
        assert interval.upper > worst_case(base).upper


class TestClipAndDecide:
    def test_clip_examples(self):
        wide = TauInterval(-1.0, 3.0)
        clipped = clip(wide)
        assert (clipped.lower, clipped.upper) == (-1.0, 1.0)

        inside = TauInterval(-0.32, 0.63)
        same = clip(inside)
        assert (same.lower, same.upper) == (-0.32, 0.63)

        assert clip(TauInterval(0.0, 1.0)).lower == 0.0

    def test_clip_incoherent(self):
        # an interval wholly outside [-1, 1] collapses onto the nearer end
        above = clip(TauInterval(1.5, 2.0, se_lower=0.1))
        assert (above.lower, above.upper) == (1.0, 1.0)
        assert above.se_lower == 0.1
        below = clip(TauInterval(-3.0, -1.5))
        assert (below.lower, below.upper) == (-1.0, -1.0)

    def test_decide_examples(self):
        assert decide(TauInterval(-0.9, -0.0108)) is Decision.DEPENDENCE_NEGATIVE
        assert decide(TauInterval(0.034, 0.9)) is Decision.DEPENDENCE_POSITIVE
        assert decide(TauInterval(-0.32, 0.63)) is Decision.INCONCLUSIVE

    def test_decide_boundaries_strict(self):
        assert decide(TauInterval(0.0, 0.5)) is Decision.INCONCLUSIVE
        assert decide(TauInterval(-0.5, 0.0)) is Decision.INCONCLUSIVE

    def test_decide_with_se_guard(self):
        interval = TauInterval(0.01, 0.5, se_lower=0.02, se_upper=0.02)
        assert decide(interval) is Decision.DEPENDENCE_POSITIVE
        assert decide(interval, se_guard=3.0) is Decision.INCONCLUSIVE
        bare = TauInterval(0.01, 0.5)
        with pytest.raises(ValueError):
            decide(bare, se_guard=1.0)

    @pytest.mark.parametrize("guard", [math.nan, -1.0, -math.inf, math.inf])
    def test_decide_rejects_nan_and_negative_guards(self, guard):
        interval = TauInterval(0.01, 0.5, se_lower=0.02, se_upper=0.02)
        with pytest.raises(ValueError, match="nonnegative number"):
            decide(interval, se_guard=guard)

    def test_nan_se_is_inconclusive_under_any_guard(self):
        # estimation leaves an SE undefined only at n = 1
        for lower, upper, decided in ((0.01, 0.5, Decision.DEPENDENCE_POSITIVE),
                                      (-0.5, -0.01, Decision.DEPENDENCE_NEGATIVE)):
            interval = TauInterval(lower, upper, se_lower=math.nan, se_upper=math.nan)
            assert decide(interval) is decided
            for guard in (1e-300, 1e-9, 1.0, 3.0):
                assert decide(interval, se_guard=guard) is Decision.INCONCLUSIVE

    def test_endpoints_crossing_by_rounding(self):
        # (1 + 5/6) - 1 rounds one ulp above min(1, 5/6): the lower end is
        # computed above the upper one and is set to it
        interval = worst_case(summary((1, 0, 0, 0), m1=0.8333333333333334,
                                      l1=(1.0 + 0.8333333333333334) - 1.0))
        assert interval.lower == interval.upper == 4.0 * 0.8333333333333334 - 1.0
        # the moment tolerance admits a crossing of a few 1e-12, set the same way
        base = summary((1, 0, 0, 0), m1=0.5, l1=0.5 + 1e-12)
        assert worst_case(base).lower == worst_case(base).upper == 1.0
        theta = refined(ThetaSummary(0.5, 0.5, 0.5 + 1e-12, base))
        assert theta.lower == theta.upper == 1.0
        # unknown margins of tied data: l1 = 0.8611111111111113, m1 one ulp less
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiedDataWarning)
            tied = worst_case(envelope_summary([(0, 0)] * 5 + [(0, 0.5)]))
        assert tied.lower == tied.upper

    def test_interval_validation(self):
        with pytest.raises(InvalidSummaryError, match="exceeds upper"):
            TauInterval(0.5, 0.2)
        for lower, upper in ((-math.inf, 0.2), (-0.2, math.inf), (math.nan, 0.2)):
            with pytest.raises(InvalidSummaryError, match="must be finite"):
                TauInterval(lower, upper)


def records_fixture():
    return [(1.0, None), (2.0, 3.0), (None, None), (None, 5.0)]


class TestMarginalCdfBounds:
    def test_complete_data_collapses_to_ecdf(self):
        xs = np.array([0.4, 0.1, 0.9, 0.6])
        ds = Dataset.from_records(list(zip(xs, xs)))
        env = marginal_cdf_bounds(ds)
        for t in (0.05, 0.1, 0.35, 0.6, 0.95):
            ecdf = np.mean(xs <= t)
            assert env.lower_f(t) == env.upper_f(t) == ecdf

    def test_all_missing(self):
        ds = Dataset.from_records([(None, None)] * 5)
        env = marginal_cdf_bounds(ds)
        for t in (-10.0, 0.0, 37.5):
            assert env.lower_f(t) == 0.0
            assert env.upper_f(t) == 1.0

    def test_step_function_matches_unsorted_search(self):
        rng = np.random.default_rng(11)
        xs = np.unique(rng.integers(0, 50, 40) / 7.0)
        step = StepFunction(xs, np.linspace(0.1, 0.9, xs.size), base=0.05)
        keys = np.concatenate([rng.integers(-5, 60, 500) / 7.0, xs, [np.nan, -np.inf]])
        rng.shuffle(keys)
        values = np.concatenate(([step.base], step.cum))
        expected = values[np.searchsorted(step.xs, keys, side="right")]
        assert step(keys).tobytes() == expected.tobytes()
        grid = keys[:500].reshape(20, 25)
        assert step(grid).tobytes() == expected[:500].reshape(20, 25).tobytes()
        assert step(float(xs[3])) == float(step.cum[3])
        assert step(np.empty(0)).shape == (0,)

    def test_hand_example(self):
        env = marginal_cdf_bounds(records_fixture())
        assert env.upper_f(1.5) == pytest.approx(0.75)
        assert env.lower_f(1.5) == pytest.approx(0.25)
        assert env.upper_f(0.5) == pytest.approx(0.5)
        assert env.upper_f(2.5) == pytest.approx(1.0)
        assert env.lower_f(2.5) == pytest.approx(0.5)
        assert env.upper_g(4.0) == pytest.approx(0.75)
        assert env.lower_g(4.0) == pytest.approx(0.25)

    def test_envelopes_bracket_true_uniform_cdf(self):
        config = MgpConfig(np.zeros((4, 2)), CopulaSpec.independence(),
                           CovariateScale.UNIFORM01)
        ds = simulate_dataset(config, 20_000, seed=4)
        env = marginal_cdf_bounds(ds)
        ts = np.linspace(0.01, 0.99, 99)
        assert np.all(env.lower_f(ts) <= ts)
        assert np.all(ts <= env.upper_f(ts))
        assert np.all(np.diff(env.lower_f(ts)) >= 0)
        assert np.all(np.diff(env.upper_f(ts)) >= 0)


class TestWorstCaseUnknownMargins:
    def test_complete_data_matches_known_route(self):
        rng = np.random.default_rng(3)
        xs = rng.random(40)
        ys = rng.random(40)
        ds = Dataset.from_records(list(zip(xs, ys)))
        interval = worst_case(envelope_summary(ds))
        # with complete data the envelopes are the empirical CDFs
        u = np.array([np.mean(xs <= x) for x in xs])
        v = np.array([np.mean(ys <= y) for y in ys])
        m1 = np.minimum(u, v).mean()
        l1 = np.maximum(u + v - 1.0, 0.0).mean()
        direct = worst_case(summary((1, 0, 0, 0), m1=m1, l1=l1))
        assert interval.lower == pytest.approx(direct.lower, abs=1e-12)
        assert interval.upper == pytest.approx(direct.upper, abs=1e-12)

    def test_all_missing_raw(self):
        ds = Dataset.from_records([(None, None)] * 7)
        interval = worst_case(envelope_summary(ds))
        assert (interval.lower, interval.upper) == (-1.0, 3.0)

    def test_eight_record_hand_fixture(self):
        ds = Dataset.from_records([
            (0.2, 0.7), (0.5, 0.1), (0.9, None), (0.4, None),
            (None, 0.3), (None, None), (0.6, 0.6), (None, 0.9),
        ])
        s = envelope_summary(ds)
        # hand-evaluated envelope transforms (n = 8, missing-x and missing-y
        # mass both 3/8): pattern-1 upper mins are 4/8, 4/8, 6/8
        assert s.m1 == pytest.approx(7 / 12, abs=1e-12)
        assert s.l1 == pytest.approx(0.0, abs=0.0)
        assert s.m2 == pytest.approx(13 / 16, abs=1e-12)
        assert s.m3 == pytest.approx(13 / 16, abs=1e-12)
        interval = worst_case(s)
        assert interval.upper == pytest.approx(2.0, abs=1e-12)
        assert interval.lower == pytest.approx(-1.0, abs=0.0)

    def test_wider_than_known_margins_and_brackets_zero(self):
        config = MgpConfig(np.array([[1.0, -0.5], [0.3, 0.7], [-1.2, 0.4],
                                     [0.2, 0.2]]),
                           CopulaSpec.gaussian(0.6), CovariateScale.UNIFORM01)
        ds = simulate_dataset(config, 30_000, seed=9)
        unknown = worst_case(envelope_summary(ds))
        from taubounds import MarginMode, summarize
        known = worst_case(summarize(ds, MarginMode.uniform01()))
        assert unknown.lower <= known.lower + 1e-12
        assert known.upper <= unknown.upper + 1e-12
        assert unknown.lower <= 0.0 <= unknown.upper


class TestTinySamples:
    """Valid inputs of one or two records whose raw intervals lie wholly
    above 1, or whose computed ends cross by one rounding: each is reported
    as the clipped (1, 1), with a positive decision."""

    CASES = [
        pytest.param([(0.9623, 0.7389)], "uniform01", 0.4, id="one-row-theta"),
        pytest.param([(0.9623, 0.7389)], "unknown", None, id="one-row-unknown"),
        pytest.param([(0.75, 0.375), (0.875, 0.375)], "unknown", None, id="two-rows-unknown"),
        pytest.param([(1.0, 0.8333333333333334)], "uniform01", None, id="one-row-rounding"),
    ]

    @pytest.mark.parametrize("records, margins, theta", CASES)
    def test_analyze(self, records, margins, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiedDataWarning)
            report = analyze(records, getattr(MarginMode, margins)(), theta=theta)
        decisive = report.worst_case_clipped if theta is None else report.refined_clipped
        assert (decisive.lower, decisive.upper) == (1.0, 1.0)
        assert report.decision is Decision.DEPENDENCE_POSITIVE
        assert report.worst_case_raw.lower <= report.worst_case_raw.upper

    @pytest.mark.parametrize("records, margins, theta", CASES)
    def test_cli(self, records, margins, theta, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in records))
        argv = ["analyze", "--input", str(data), "--margins", margins, "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiedDataWarning)
            assert main(argv + ([] if theta is None else ["--theta", repr(theta)])) == 0
        payload = checked_report(capsys.readouterr().out)
        decisive = payload["refined"] or payload["worst_case"]
        assert decisive["clipped"] == {"lower": 1.0, "upper": 1.0}
        assert payload["decision"] == "dependence_positive"
