"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1 checks the bundled scenarios' published target values, computed
by the quadrature engine. The remaining criteria are property-based: the zero
bracketing of the worst-case interval, the quadrature constants, exact
nesting and monotonicity of the refined intervals, degenerate datasets,
plug-in consistency, and bit-level determinism.
"""

import json
import math
import time

import numpy as np

from taubounds import (
    CopulaSpec,
    CovariateScale,
    Dataset,
    MarginMode,
    MgpConfig,
    SCENARIOS,
    analyze,
    clip,
    decide,
    population_bounds,
    population_bounds_quadrature,
    refined,
    sample_copula,
    simulate_dataset,
    summarize,
    worst_case,
)
from taubounds.cli import main as cli_main


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")


def test_criterion_1_published_scenario_values():
    """Scenario values, by quadrature, match the published targets under at
    least one covariate-scale convention."""
    windows = {
        "P1": {"refined_upper": (-0.0308, 0.0092)},
        "P2": {"refined_lower": (0.014, 0.054)},
        "P3": {"refined_lower": (-0.34, -0.30), "refined_upper": (0.61, 0.65)},
    }
    sign_ok = {
        "P1": lambda pb: pb.refined.upper < 0.0,
        "P2": lambda pb: pb.refined.lower > 0.0,
        "P3": lambda pb: pb.refined.lower < 0.0 < pb.refined.upper,
    }

    started = time.perf_counter()
    outcomes = {}
    details = []
    for scale in (CovariateScale.UNIFORM01, CovariateScale.NORMAL_SCORE):
        all_ok = True
        for name in ("P1", "P2", "P3"):
            scenario = SCENARIOS[name]
            pb = population_bounds_quadrature(scenario.config(scale), [scenario.theta],
                                              warn_on_theta_mismatch=False)[0]
            measured = {"refined_lower": pb.refined.lower,
                        "refined_upper": pb.refined.upper}
            in_windows = all(lo <= measured[key] <= hi
                             for key, (lo, hi) in windows[name].items())
            decision = decide(clip(pb.refined))
            ok = (in_windows and sign_ok[name](pb)
                  and decision is scenario.expected_decision)
            all_ok = all_ok and ok
            details.append(
                f"{name}/{scale.value}: refined=({pb.refined.lower:+.4f}, "
                f"{pb.refined.upper:+.4f}) decision={decision.value} "
                f"P(Z=1)={pb.p_z[0]:.4f}")
        outcomes[scale.value] = all_ok
    elapsed = time.perf_counter() - started

    matched = [scale for scale, ok in outcomes.items() if ok]
    passed = bool(matched) and elapsed <= 300.0
    _report(1, passed,
            f"matched convention: {matched[0] if matched else 'none'}; "
            f"elapsed {elapsed:.0f}s; " + "; ".join(details))
    assert elapsed <= 300.0
    assert matched, (
        "no covariate-scale convention reproduces the published scenario "
        "targets; measured values: " + "; ".join(details))


def test_criterion_2_worst_case_brackets_zero(dgp_sweep):
    """Worst-case interval brackets zero (3 MC SEs) for 200/200 random DGPs."""
    results, elapsed = dgp_sweep.results, dgp_sweep.elapsed
    violations = 0
    for sweep in results:
        wc = sweep[0].worst_case
        if wc.lower > 3.0 * wc.se_lower or wc.upper < -3.0 * wc.se_upper:
            violations += 1
    passed = violations == 0 and elapsed <= 120.0
    _report(2, passed,
            f"{len(results) - violations}/{len(results)} bracket zero; "
            f"sweep took {elapsed:.0f}s")
    assert violations == 0
    assert elapsed <= 120.0


def test_criterion_3_extremal_constants():
    """Quadrature matches the degenerate-copula constants to 1e-9 and MC
    sampling agrees to 3 sigma at 1e6 draws.

    Under gamma = 0 every pattern has probability 1/4, so the population
    worst case is (E[max(u + v - 1, 0)] - 1, E[min(u, v)] + 1): the
    constants E_M[max(u + v - 1, 0)] and E_W[min(u, v)] - 1 are its lower
    end at rho = 1 plus 1 and its upper end at rho = -1 minus 2."""
    def worst_case(copula):
        config = MgpConfig(np.zeros((4, 2)), copula)
        return population_bounds_quadrature(config)[0].worst_case

    q_max = worst_case(CopulaSpec.comonotone()).lower + 1.0
    q_min = worst_case(CopulaSpec.countermonotone()).upper - 2.0
    quad_ok = abs(q_max - 0.25) <= 1e-9 and abs(q_min + 0.75) <= 1e-9

    n = 1_000_000
    uv = sample_copula(CopulaSpec.comonotone(), n, seed=101)
    vals = np.maximum(uv[:, 0] + uv[:, 1] - 1.0, 0.0)
    z_max = abs(vals.mean() - 0.25) / (vals.std(ddof=1) / math.sqrt(n))
    uv = sample_copula(CopulaSpec.countermonotone(), n, seed=102)
    vals = np.minimum(uv[:, 0], uv[:, 1]) - 1.0
    z_min = abs(vals.mean() + 0.75) / (vals.std(ddof=1) / math.sqrt(n))
    mc_ok = z_max < 3.0 and z_min < 3.0

    _report(3, quad_ok and mc_ok,
            f"quadrature ({q_max:.10f}, {q_min:.10f}); MC z-scores "
            f"({z_max:.2f}, {z_min:.2f})")
    assert quad_ok and mc_ok


def test_criterion_4_nesting_and_monotonicity(dgp_sweep):
    """Refined intervals are nested in the worst case exactly and monotone in
    theta, across the whole sweep; zero violations tolerated."""
    results = dgp_sweep.results
    nesting_violations = 0
    monotonicity_violations = 0
    for sweep in results:
        wc = sweep[0].worst_case
        for result in sweep:
            if result.refined.lower < wc.lower or result.refined.upper > wc.upper:
                nesting_violations += 1
        for a, b in zip(sweep, sweep[1:]):
            if (a.refined.lower > b.refined.lower
                    or a.refined.upper > b.refined.upper):
                monotonicity_violations += 1
    passed = nesting_violations == 0 and monotonicity_violations == 0
    _report(4, passed,
            f"{len(results)} DGPs x thetas {dgp_sweep.thetas}: "
            f"{nesting_violations} nesting and {monotonicity_violations} "
            f"monotonicity violations")
    assert nesting_violations == 0
    assert monotonicity_violations == 0


def test_criterion_5_degenerate_exactness():
    """All-missing data gives raw (-1, 3) exactly; complete comonotone data
    gives a worst case within 0.01 of (0, 1) at n = 1e5."""
    all_missing = analyze(Dataset.from_records([(None, None)] * 100),
                          MarginMode.uniform01())
    exact_ok = (all_missing.worst_case_raw.lower, all_missing.worst_case_raw.upper) \
        == (-1.0, 3.0)

    uv = sample_copula(CopulaSpec.comonotone(), 100_000, seed=103)
    report = analyze(Dataset.from_records(uv.tolist()), MarginMode.uniform01())
    lo, hi = report.worst_case_raw.lower, report.worst_case_raw.upper
    comono_ok = abs(lo - 0.0) <= 0.01 and abs(hi - 1.0) <= 0.01

    _report(5, exact_ok and comono_ok,
            f"all-missing raw=({all_missing.worst_case_raw.lower}, "
            f"{all_missing.worst_case_raw.upper}); comonotone n=1e5 "
            f"worst-case=({lo:+.4f}, {hi:+.4f})")
    assert exact_ok
    assert comono_ok


def test_criterion_6_plug_in_consistency():
    """Estimator intervals on simulated data (n = 1e5, 100 seeds) agree with
    the population intervals within 3 combined SEs in at least 95 runs."""
    config = SCENARIOS["P2"].config()
    theta = SCENARIOS["P2"].theta
    pop = population_bounds(config, theta=theta, draws=1_000_000, seed=7,
                            warn_on_theta_mismatch=False)

    agreements = 0
    for seed in range(100):
        ds = simulate_dataset(config, 100_000, seed=1000 + seed)
        summary = summarize(ds, MarginMode.uniform01(), theta=theta)
        plug_wc = worst_case(summary.base)
        plug_rf = refined(summary)
        ok = True
        for plug, target in ((plug_wc, pop.worst_case), (plug_rf, pop.refined)):
            for side in ("lower", "upper"):
                combined = math.hypot(getattr(plug, f"se_{side}"),
                                      getattr(target, f"se_{side}"))
                if abs(getattr(plug, side) - getattr(target, side)) > 3 * combined:
                    ok = False
        agreements += ok
    passed = agreements >= 95
    _report(6, passed, f"{agreements}/100 runs within 3 combined SEs")
    assert agreements >= 95


def test_criterion_7_determinism(tmp_path):
    """simulate and reproduce outputs are byte-identical across repeats; the
    ignored --workers flag (1 or 8) changes no byte."""
    paths = [tmp_path / name for name in
             ("s1.csv", "s1b.csv", "s8.csv", "r1.json", "r8.json")]
    for path, workers in zip(paths[:3], ("1", "1", "8")):
        code = cli_main(["simulate", "--scenario", "P2", "--n", "20000",
                         "--seed", "11", "--workers", workers,
                         "--output", str(path)])
        assert code == 0
    sim_ok = (paths[0].read_bytes() == paths[1].read_bytes()
              == paths[2].read_bytes())

    for path, workers in zip(paths[3:], ("1", "8")):
        code = cli_main(["reproduce", "--draws", "50000", "--seed", "11",
                         "--workers", workers, "--output", str(path)])
        assert code == 0
    rep_ok = paths[3].read_bytes() == paths[4].read_bytes()

    _report(7, sim_ok and rep_ok,
            f"simulate byte-identical: {sim_ok}; reproduce byte-identical: {rep_ok}")
    assert sim_ok
    assert rep_ok


def test_reproduce_cli_records_convention(tmp_path):
    """The reproduce command records which convention matched (spec: the run
    records the convention; with the published constants none can match)."""
    out = tmp_path / "repro.json"
    assert cli_main(["reproduce", "--draws", "20000", "--seed", "0",
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "matched_convention" in payload
    assert payload["matched_convention"] in (None, "uniform01", "normal_score")
