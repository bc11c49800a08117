"""Tests for the plug-in estimator: summaries, margin modes, analysis reports."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import checked_report
from hypothesis import example, given, settings, strategies as st

from taubounds import (
    CdfTable,
    CopulaSpec,
    CovariateScale,
    Dataset,
    Decision,
    DistSummary,
    DomainError,
    EmptyDataError,
    MarginMode,
    MarginTableError,
    MgpConfig,
    SCENARIOS,
    ThetaMismatchWarning,
    ThetaSummary,
    TiedDataWarning,
    UnsupportedAnalysisError,
    analyze,
    envelope_summary,
    marginal_cdf_bounds,
    population_bounds,
    population_bounds_quadrature,
    population_bounds_sweep,
    sample_copula,
    simulate_dataset,
    summarize,
    worst_case,
)

UNIFORM = MarginMode.uniform01()


class TestDataset:
    def test_patterns_from_missing_cells(self):
        ds = Dataset.from_records([(1.2, 3.4), (1.2, None), (None, 3.4), (None, None),
                                   (math.nan, 3.4), (0.5, math.nan)])
        assert ds.z.tolist() == [1, 2, 3, 4, 3, 2]

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_infinite_value_rejected(self, column, value):
        # a written infinite value would not read back
        cells = [[0.25, 0.5], [0.5, math.nan]]
        cells["xy".index(column)][0] = value
        with pytest.raises(DomainError, match=f"non-finite {column}"):
            Dataset(*cells)
        with pytest.raises(DomainError, match=f"non-finite {column}"):
            Dataset.from_records(zip(*cells))

    @pytest.mark.parametrize("x, y", [([0.1, 0.2], [0.1]), ([[0.1, 0.2]], [[0.1, 0.2]])],
                             ids=["unequal", "two-dimensional"])
    def test_column_shapes_rejected(self, x, y):
        with pytest.raises(ValueError, match="one-dimensional and equally long"):
            Dataset(x, y)

    def test_patterns_counted_once(self):
        ds = simulate_dataset(SCENARIOS["P3"].config(), 2000, seed=1)
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            report = analyze(ds, MarginMode.unknown())
            counts = ds.pattern_counts()
        assert bincount.call_count == 1
        assert counts is ds.pattern_counts() and not counts.flags.writeable
        assert list(report.pattern_counts) == [np.sum(ds.z == k) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("records", [[], Dataset([], [])], ids=["list", "dataset"])
@pytest.mark.parametrize("call", [
    lambda records: analyze(records, UNIFORM),
    lambda records: summarize(records, UNIFORM),
    marginal_cdf_bounds,
    envelope_summary,
], ids=["analyze", "summarize", "marginal_cdf_bounds", "envelope_summary"])
def test_empty_input_rejected(call, records):
    with pytest.raises(EmptyDataError, match="^no records supplied$"):
        call(records)


class TestSummarize:
    def test_one_record_per_pattern(self):
        ds = Dataset.from_records([(0.5, 0.5), (0.3, None), (None, 0.8), (None, None)])
        s = summarize(ds, UNIFORM)
        assert s.p_z == (0.25, 0.25, 0.25, 0.25)
        assert s.m1 == 0.5
        assert s.l1 == 0.0
        assert s.m2 == 0.3
        assert s.m3 == 0.8
        # the SEs spread the per-row integrands over all four rows, so a
        # single-row pattern leaves them defined
        assert s.se == (0.0, pytest.approx(4 * np.std([0.5, 0.3, 0.8, 1.0], ddof=1) / 2))

    def test_comonotone_constants_recovered(self):
        uv = sample_copula(CopulaSpec.comonotone(), 100_000, seed=2)
        s = summarize(Dataset.from_records(uv.tolist()), UNIFORM)
        assert s.m1 == pytest.approx(0.5, abs=0.005)
        assert s.l1 == pytest.approx(0.25, abs=0.005)

    def test_matches_population_moments(self):
        config = SCENARIOS["P3"].config()
        pb = population_bounds(config, theta=0.4, draws=400_000, seed=31,
                               warn_on_theta_mismatch=False)
        ds = simulate_dataset(config, 100_000, seed=32)
        s = summarize(ds, UNIFORM, theta=0.4)
        from taubounds import refined

        wc = worst_case(s.base)
        rf = refined(s)
        for plug, pop in ((wc, pb.worst_case), (rf, pb.refined)):
            for side in ("lower", "upper"):
                combined = math.hypot(getattr(plug, f"se_{side}"),
                                      getattr(pop, f"se_{side}"))
                assert abs(getattr(plug, side) - getattr(pop, side)) < 3 * combined

    def test_theta_requires_known_margins(self):
        ds = Dataset.from_records([(0.5, 0.5), (0.3, None)])
        for theta in (0.4, None):
            with pytest.raises(UnsupportedAnalysisError,
                               match="transformed summaries require known margins"):
                summarize(ds, MarginMode.unknown(), theta=theta)

    def test_ties_warn_but_proceed(self):
        ds = Dataset.from_records([(0.5, 0.1), (0.5, 0.9), (0.2, None)])
        with pytest.warns(TiedDataWarning):
            s = summarize(ds, UNIFORM)
        assert s.m1 is not None

    def test_permutation_invariance(self):
        ds = simulate_dataset(SCENARIOS["P2"].config(), 5000, seed=7)
        s = summarize(ds, UNIFORM, theta=0.4)
        o = np.random.default_rng(0).permutation(len(ds))
        shuffled = Dataset(ds.x[o], ds.y[o])
        t = summarize(shuffled, UNIFORM, theta=0.4)
        assert s.base == t.base
        assert (s.m1_theta, s.l1_theta, s.se) == (t.m1_theta, t.l1_theta, t.se)


class TestCdfTable:
    def test_uniform_table_matches_uniform_mode(self):
        table = CdfTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        ds = simulate_dataset(SCENARIOS["P3"].config(), 4000, seed=3)
        a = summarize(ds, UNIFORM)
        b = summarize(ds, MarginMode.from_tables(table, table))
        assert a == b

    def test_normal_table_round_trip(self):
        # pushing the observed cells through the normal quantile and supplying
        # the normal CDF as a table must reproduce the uniform-margin analysis
        from scipy.special import ndtr, ndtri

        grid = np.linspace(-8.5, 8.5, 4001)
        table = CdfTable(grid, ndtr(grid))
        ds_u = simulate_dataset(SCENARIOS["P3"].config(), 50_000, seed=5)
        ds_n = Dataset(ndtri(np.clip(ds_u.x, 1e-300, 1 - 1e-16)),
                       ndtri(np.clip(ds_u.y, 1e-300, 1 - 1e-16)))
        a = worst_case(summarize(ds_n, MarginMode.from_tables(table, table)))
        b = worst_case(summarize(ds_u, UNIFORM))
        assert a.lower == pytest.approx(b.lower, abs=1e-5)
        assert a.upper == pytest.approx(b.upper, abs=1e-5)

    def test_range_error(self):
        table = CdfTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        ds = Dataset.from_records([(1.5, 0.5), (0.2, 0.8)])
        with pytest.raises(MarginTableError):
            summarize(ds, MarginMode.from_tables(table, table))

    def test_range_error_next_to_missing_cells(self):
        # a missing (NaN) cell passes through as NaN and must not hide an
        # out-of-range value in the same call
        table = CdfTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert np.isnan(table(np.array([np.nan, 0.5]))[0])
        with pytest.raises(MarginTableError):
            table(np.array([np.nan, 1.5]))
        ds = Dataset.from_records([(1.5, None), (None, 0.8), (0.2, 0.3)])
        with pytest.raises(MarginTableError):
            summarize(ds, MarginMode.from_tables(table, table))

    def test_validation(self):
        with pytest.raises(MarginTableError):
            CdfTable(np.array([0.0, 0.0]), np.array([0.0, 1.0]))  # knots not increasing
        with pytest.raises(MarginTableError):
            CdfTable(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # starts too high
        with pytest.raises(MarginTableError, match="must start at 0"):
            CdfTable(np.array([0.0, 1.0]), np.array([-5.0, 1.0]))  # starts too low
        with pytest.raises(MarginTableError):
            CdfTable(np.array([0.0, 1.0]), np.array([0.0, 0.9]))  # does not end at 1
        with pytest.raises(MarginTableError):
            CdfTable(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.8, 0.7]))
        with pytest.raises(MarginTableError):
            CdfTable(np.array([0.0]), np.array([1.0]))
        with pytest.raises(MarginTableError, match="must be finite"):
            CdfTable(np.array([0.0, np.inf]), np.array([0.0, 1.0]))

    def test_mode_validation(self):
        table = CdfTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(MarginTableError):
            MarginMode.from_tables(table, None)
        with pytest.raises(MarginTableError):
            MarginMode(MarginMode.uniform01().kind, x_cdf=table)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        for text in ("value,cdf\n0.0,0.0\n0.5,0.6\n1.0,1.0\n",
                     "value,cdf\n0.0,0.0\n\n0.5,0.6\n1.0,1.0\n"):  # a blank row is skipped
            path.write_text(text, encoding="utf-8")
            table = CdfTable.from_csv(path)
            assert table(np.array([0.25]))[0] == pytest.approx(0.3)

    def test_from_csv_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in (("value,cdf\njunk,more\n1.0,1.0\n", "cannot parse"),
                              ("value,cdf\n0.0,0.0,0.5\n1.0,1.0\n", "expected 2 columns")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(MarginTableError, match=message):
                CdfTable.from_csv(path)


class TestAnalyze:
    def test_diagonal_toy_data(self):
        # dyadic grid keeps every moment exact in binary, so the boundary
        # case lower == 0 is hit exactly and the strict decision rule holds
        xs = np.arange(1, 32, 2) / 32.0
        report = analyze(Dataset.from_records(list(zip(xs, xs))), UNIFORM)
        assert report.worst_case_clipped.lower == pytest.approx(0.0, abs=0.05)
        assert report.worst_case_clipped.upper == pytest.approx(1.0, abs=0.05)
        assert report.worst_case_raw.lower == 0.0
        assert report.decision is Decision.INCONCLUSIVE

    def test_all_missing(self):
        ds = Dataset.from_records([(None, None)] * 10)
        report = analyze(ds, UNIFORM)
        assert (report.worst_case_raw.lower, report.worst_case_raw.upper) == (-1.0, 3.0)
        assert (report.worst_case_clipped.lower, report.worst_case_clipped.upper) \
            == (-1.0, 1.0)
        assert report.decision is Decision.INCONCLUSIVE

    def test_unknown_margins_route(self):
        ds = simulate_dataset(SCENARIOS["P3"].config(), 5000, seed=11)
        # the report holds no step functions, so none may be built
        with mock.patch("taubounds.estimator.marginal_cdf_bounds",
                        side_effect=AssertionError("step functions built")):
            report = analyze(ds, MarginMode.unknown())
        known = analyze(ds, UNIFORM)
        assert not hasattr(report, "cdf_bounds")
        assert report.refined_raw is None
        assert report.worst_case_raw.lower <= known.worst_case_raw.lower + 1e-12
        assert known.worst_case_raw.upper <= report.worst_case_raw.upper + 1e-12
        with pytest.raises(UnsupportedAnalysisError):
            analyze(ds, MarginMode.unknown(), theta=0.4)

    def test_decision_uses_refined_interval(self):
        # 50 complete rows of a rho = 0.9 copula: the worst case straddles
        # zero, the refined interval at theta = 0.45 lies above it
        uv = sample_copula(CopulaSpec.gaussian(0.9), 50, seed=7)
        report = analyze(Dataset(uv[:, 0], uv[:, 1]), UNIFORM, theta=0.45)
        assert report.worst_case_clipped.lower < 0.0 < report.refined_clipped.lower
        assert report.decision is Decision.DEPENDENCE_POSITIVE
        assert report.summary.__class__ is ThetaSummary

    def test_plug_in_tracks_population_decision(self):
        config = SCENARIOS["P2"].config()
        pb = population_bounds(config, theta=0.4, draws=400_000, seed=17,
                               warn_on_theta_mismatch=False)
        from taubounds import clip, decide

        population_decision = decide(clip(pb.refined))
        ds = simulate_dataset(config, 100_000, seed=18)
        report = analyze(ds, UNIFORM, theta=0.4)
        assert report.decision is population_decision

    def test_permutation_invariance(self):
        ds = simulate_dataset(SCENARIOS["P1"].config(), 4000, seed=19)
        a = analyze(ds, UNIFORM, theta=0.4)
        o = np.random.default_rng(1).permutation(len(ds))
        b = analyze(Dataset(ds.x[o], ds.y[o]), UNIFORM, theta=0.4)
        assert a.worst_case_raw == b.worst_case_raw
        assert a.refined_raw == b.refined_raw
        assert a.p_hat == b.p_hat

    def test_pattern_deletion_widens(self):
        ds = simulate_dataset(SCENARIOS["P3"].config(), 20_000, seed=23)
        base = analyze(ds, UNIFORM)
        complete = np.flatnonzero(ds.z == 1)
        x = ds.x.copy()
        y = ds.y.copy()
        drop = complete[: len(complete) // 2]
        x[drop] = np.nan
        y[drop] = np.nan
        widened = analyze(Dataset(x, y), UNIFORM)
        assert widened.worst_case_raw.lower <= base.worst_case_raw.lower + 1e-12
        assert widened.worst_case_raw.upper >= base.worst_case_raw.upper - 1e-12

    def test_bracketing_on_coherent_data(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            config = MgpConfig(rng.uniform(-5, 5, (4, 2)),
                               CopulaSpec.gaussian(rng.uniform(-0.999, 0.999)),
                               CovariateScale.UNIFORM01)
            ds = simulate_dataset(config, 20_000, seed=int(rng.integers(1 << 31)))
            report = analyze(ds, UNIFORM)
            wc = report.worst_case_raw
            assert wc.lower <= 3 * wc.se_lower
            assert wc.upper >= -3 * wc.se_upper

    def test_se_guard_flips_marginal_decision(self):
        base = DistSummary((1.0, 0.0, 0.0, 0.0), 0.5, 0.2505, None, None,
                           se=(0.001, 0.001))
        ts = ThetaSummary(0.4, 0.45, 0.2505, base, se=(0.001, 0.001))
        from taubounds import clip, decide, refined

        interval = clip(refined(ts))
        assert decide(interval) is Decision.DEPENDENCE_POSITIVE
        assert decide(interval, se_guard=3.0) is Decision.INCONCLUSIVE

    def test_report_dict_schema_and_nan_handling(self):
        ds = Dataset.from_records([(0.5, 0.5), (0.3, None), (None, 0.8),
                                   (None, None)])
        report = analyze(ds, UNIFORM, theta=0.25)
        payload = checked_report(report.to_report_dict())
        assert payload["worst_case"]["se"]["lower"] == 0.0  # one row per pattern
        assert payload["refined"] is not None
        assert payload["decision"] == report.decision.value
        # an SE is undefined only at n = 1, where NaN becomes null
        single = checked_report(analyze([(0.5, 0.5)], UNIFORM, theta=0.25).to_report_dict())
        for block in (single["worst_case"], single["refined"]):
            assert block["se"] == {"lower": None, "upper": None}


IDENTITY = CdfTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
MARGINS = {"uniform01": UNIFORM, "from_file": MarginMode.from_tables(IDENTITY, IDENTITY),
           "unknown": MarginMode.unknown()}
# cells at 0, 1/2 and 1 tie; None is a missing cell
CELLS = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.tuples(CELLS, CELLS), min_size=1, max_size=40),
       margins=st.sampled_from(sorted(MARGINS)),
       theta=st.one_of(st.none(), st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
       se_guard=st.one_of(st.just(0.0), st.floats(0.1, 5.0)))
# n = 1, whose SEs are null; a raw interval above 1, clipped to (1, 1) with a
# positive decision; a negative decision; all-missing rows, inconclusive
@example(records=[(0.5, 0.5)], margins="uniform01", theta=0.25, se_guard=2.0)
@example(records=[(0.9623, 0.7389)], margins="from_file", theta=0.4, se_guard=0.0)
@example(records=[(0.1, 0.9), (0.9, 0.1), (0.3, 0.7), (0.7, 0.3)], margins="uniform01",
         theta=0.0, se_guard=0.0)
@example(records=[(None, None)] * 3, margins="unknown", theta=None, se_guard=0.0)
def test_report_passes_schema_as_strict_json(records, margins, theta, se_guard):
    """Every report ``analyze`` builds passes report_schema.json and is strict JSON."""
    # refined bounds need known margins
    theta = None if margins == "unknown" else theta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiedDataWarning)
        report = analyze(Dataset.from_records(records), MARGINS[margins], theta=theta,
                         se_guard=se_guard)
    assert checked_report(report.to_report_dict())["se_guard"] == se_guard


TIED = Dataset.from_records([(0.5, 0.1), (0.5, 0.9), (0.2, 0.9), (0.3, None)])


@pytest.mark.parametrize("call, category", [
    (lambda: analyze(TIED, UNIFORM), TiedDataWarning),
    (lambda: summarize(TIED, UNIFORM), TiedDataWarning),
    (lambda: envelope_summary(TIED), TiedDataWarning),
    (lambda: population_bounds("P1", theta=0.4, draws=10_000), ThetaMismatchWarning),
    (lambda: population_bounds_sweep("P1", [0.4], draws=10_000), ThetaMismatchWarning),
    (lambda: population_bounds_quadrature("P1", [0.4]), ThetaMismatchWarning),
], ids=["analyze", "summarize", "envelope_summary", "population_bounds",
        "population_bounds_sweep", "population_bounds_quadrature"])
def test_warnings_point_at_the_caller(call, category):
    # Python shows a warning once per location: one inside the package would
    # hide the warning from every call site but the first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == [category] * len(caught) and caught
    assert {w.filename for w in caught} == {__file__}
