"""The benchmark's three workloads, their inputs and their output checks.

Every operation calls the program in process: ``taubounds.cli.main`` with
the argument list a user would type, or a public function of the package.
An operation fails on a non-zero exit code, an exception, or a failed
output check; only the last kind makes a run incorrect.

Why these workloads:

* ``plugin-1m`` is the headline plug-in pipeline at n = 10^6 (simulate,
  then analyze under known and unknown margins). CSV writing and parsing
  dominate it, so ``data`` changes show here.
* ``population`` is ``reproduce`` plus ``true_tau``: Monte Carlo sampling,
  propensities, theta surfaces, block reduction and threads, with no CSV
  and no schema check.
* ``batch-small`` is one ``analyze`` call per small generated file, so
  per-call costs (schema validation, parser start-up) dominate and the
  tiny-n inputs are covered. Every file smaller than ``EDGE_ROWS`` is run
  once before timing; the few that hit the program's known tiny-n crash
  (``clip`` raises ``IncoherentIntervalError`` on a plug-in interval wholly
  outside [-1, 1]) are reported with the run's notes and left out of the
  timed loop, so that no timed operation fails on a known defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
from scipy import special

import taubounds
from taubounds import cli, concordance, copulas, estimator, mgp

BLOCK = 1 << 18
THETA = 0.4
# Agreement window for Monte Carlo and plug-in values, in combined standard
# errors; wide enough that sampling noise alone essentially never fails it.
SE_MULTIPLE = 6.0
# Nesting and range checks allow a few ulps of summation-order difference.
ULP_TOL = 1e-12
SCENARIO_NAMES = ("P1", "P2", "P3")
# batch-small files with fewer rows are run once before timing, to find the
# ones that hit the known tiny-n crash, recognised by its error message
EDGE_ROWS = 60
KNOWN_CRASH = "does not meet [-1, 1]"


@dataclass(frozen=True)
class Sizes:
    n: int = 1_000_000          # plugin-1m records
    draws: int = 2_000_000      # reproduce Monte Carlo draws
    tau_draws: int = 1_000_000  # true_tau draws
    files: int = 1024           # batch-small files
    max_rows: int = 5000        # batch-small largest file


FULL = Sizes()
SMOKE = Sizes(n=20_000, draws=20_000, tau_draws=20_000, files=24, max_rows=300)


class OpFailed(Exception):
    """A CLI call exited with a non-zero code."""


def _close(a, b, se_a, se_b) -> bool:
    return abs(a - b) <= SE_MULTIPLE * math.hypot(se_a or 0.0, se_b or 0.0) + ULP_TOL


def report_problems(validator, report, *, n=None, counts=None, mode=None,
                    theta=None, reference=None) -> list[str]:
    """Problems with one ``analyze`` JSON report; empty when it is correct.

    ``reference`` is a population bound entry of reference.json that the
    plug-in estimates must agree with (large n only).
    """
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"report fails the schema: {errors[0]}"]
    problems = []
    wc, rf = report["worst_case"], report["refined"]
    for label, block in (("worst_case", wc), ("refined", rf)):
        if block is not None:
            lo, hi = block["clipped"]["lower"], block["clipped"]["upper"]
            if not -1.0 <= lo <= hi <= 1.0:
                problems.append(f"{label} clipped ({lo}, {hi}) not inside [-1, 1]")
    if rf is not None:
        for kind in ("raw", "clipped"):
            if (rf[kind]["lower"] < wc[kind]["lower"] - ULP_TOL
                    or rf[kind]["upper"] > wc[kind]["upper"] + ULP_TOL):
                problems.append(f"refined {kind} interval not nested in the worst case")
    if (theta is None) != (rf is None):
        problems.append("refined interval present/absent against the theta given")
    decisive = (rf or wc)["clipped"]
    expect = ("dependence_negative" if decisive["upper"] < 0.0 else
              "dependence_positive" if decisive["lower"] > 0.0 else "inconclusive")
    if report["decision"] != expect:
        problems.append(f"decision {report['decision']} but interval gives {expect}")
    if n is not None and report["n"] != n:
        problems.append(f"n = {report['n']}, expected {n}")
    if counts is not None and report["pattern_counts"] != [int(c) for c in counts]:
        problems.append(f"pattern counts {report['pattern_counts']}, expected {list(counts)}")
    if mode is not None and report["margins_mode"] != mode:
        problems.append(f"margins_mode {report['margins_mode']}, expected {mode}")
    if reference is not None:
        for label, block in (("worst_case", wc), ("refined", rf)):
            for side in ("lower", "upper"):
                ref = reference[label]
                if not _close(block["raw"][side], ref[side], block["se"][side],
                              ref[f"se_{side}"]):
                    problems.append(f"plug-in {label} {side} {block['raw'][side]:.5f} "
                                    f"far from population {ref[side]:.5f}")
    return problems


def reproduce_problems(payload, reference) -> list[str]:
    """Problems with one ``reproduce`` JSON payload; empty when it is correct.

    A miss against the published scenario targets is not a problem: that
    is the test suite's known criterion-1 mismatch, recorded only through
    ``matched_convention``.
    """
    problems = []
    seen = set()
    for row in payload["results"]:
        key = f"{row['scenario']}/{row['covariate_scale']}"
        seen.add(key)
        wc, rf = row["worst_case"], row["refined"]
        if not wc["lower"] <= 0.0 <= wc["upper"]:
            problems.append(f"{key}: worst case ({wc['lower']}, {wc['upper']}) misses 0")
        if rf["lower"] < wc["lower"] - ULP_TOL or rf["upper"] > wc["upper"] + ULP_TOL:
            problems.append(f"{key}: refined interval not nested in the worst case")
        ref = reference["bounds"][key]
        for label, block in (("worst_case", wc), ("refined", rf)):
            for side in ("lower", "upper"):
                r = ref[label]
                if not _close(block[side], r[side], block[f"se_{side}"], r[f"se_{side}"]):
                    problems.append(f"{key}: {label} {side} {block[side]:.5f} far from "
                                    f"reference {r[side]:.5f}")
    if seen != set(reference["bounds"]):
        problems.append(f"reproduce covered {sorted(seen)}")
    return problems


def tau_problems(name, tau, draws, payload, reference) -> list[str]:
    """``true_tau`` must lie in its scenario's worst case and match the closed form."""
    problems = []
    for row in payload["results"]:
        wc = row["worst_case"]
        if row["scenario"] == name and not (
                wc["lower"] - SE_MULTIPLE * wc["se_lower"] <= tau
                <= wc["upper"] + SE_MULTIPLE * wc["se_upper"]):
            problems.append(f"true_tau({name}) = {tau} outside the "
                            f"{row['covariate_scale']} worst case")
    # standard deviation of the sample tau under independence, an upper
    # bound for the Gaussian pairs used here
    sd = math.sqrt(2.0 * (2 * draws + 5) / (9.0 * draws * (draws - 1)))
    if abs(tau - reference["tau"][name]) > SE_MULTIPLE * sd:
        problems.append(f"true_tau({name}) = {tau}, closed form {reference['tau'][name]}")
    return problems


class Workload:
    """One closed-loop client. ``op(i)`` is timed; ``check(i, out)`` is not."""

    name = ""
    # untimed operations run first, so lazy set-up in the program is done
    warmup_ops = 0

    def __init__(self, work: Path, seed: int, sizes: Sizes, reference: dict, validator):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.reference = reference
        self.validator = validator
        self.tracer = None
        self.thread_speedup = 0.0
        # facts about the outputs that are recorded but not checked
        self.notes: dict = {}
        self._workers_checked = False

    def span(self, layer: str, name: str, counts: dict | None = None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer, name, counts)

    def cli(self, *argv: str) -> str:
        """Run the CLI in process; returns its standard output."""
        out, err = io.StringIO(), io.StringIO()
        with (self.span("cli", "cli.main"), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        if code != 0:
            raise OpFailed(f"taubounds {argv[0]} exited with {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def prepare(self) -> None:
        """Untimed set-up of the inputs."""

    def op(self, i: int):
        """Run operation ``i``; returns (part timings, output for the check)."""
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def corrupt(self, out):
        """A deliberately wrong copy of an operation's output (smoke mode)."""
        raise NotImplementedError


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


class PluginPipeline(Workload):
    name = "plugin-1m"
    parts = (("simulate_s", "s"), ("analyze_known_s", "s"), ("analyze_unknown_s", "s"))

    def prepare(self):
        self.csv = str(self.work / "p2.csv")

    def _simulate(self, seed: int, path: str, *workers: str) -> None:
        self.cli("simulate", "--scenario", "P2", "--n", str(self.sizes.n),
                 "--seed", str(seed), "--output", path, *workers)

    def op(self, i):
        sim_s, _ = _timed(self._simulate, self.seed + i, self.csv)
        known_s, known = _timed(self.cli, "analyze", "--input", self.csv,
                                "--margins", "uniform01", "--theta", str(THETA),
                                "--format", "json")
        unknown_s, unknown = _timed(self.cli, "analyze", "--input", self.csv,
                                    "--margins", "unknown", "--format", "json")
        parts = {"simulate_s": sim_s, "analyze_known_s": known_s,
                 "analyze_unknown_s": unknown_s}
        return parts, (json.loads(known), json.loads(unknown))

    def check(self, i, out):
        known, unknown = out
        n = self.sizes.n
        problems = report_problems(self.validator, known, n=n, mode="uniform01",
                                   theta=THETA,
                                   reference=self.reference["bounds"]["P2/uniform01"])
        problems += report_problems(self.validator, unknown, n=n, mode="unknown")
        if known.get("pattern_counts") != unknown.get("pattern_counts"):
            problems.append("the two analyze calls read different pattern counts")
        if not self._workers_checked:
            self._workers_checked = True
            # the op's CSV was written at the default worker count (1)
            other = str(self.work / "p2-workers2.csv")
            self._simulate(self.seed + i, other, "--workers", "2")
            with open(self.csv, "rb") as a, open(other, "rb") as b:
                if a.read() != b.read():
                    problems.append("simulate CSV differs between workers 1 and 2")
            os.remove(other)
        return problems

    def corrupt(self, out):
        known, unknown = json.loads(json.dumps(out))
        known["refined"]["clipped"]["upper"] = 1.5
        return known, unknown


class Population(Workload):
    name = "population"
    parts = (("reproduce_s", "s"), ("true_tau_s", "s"))

    def prepare(self):
        self.json_path = self.work / "reproduce.json"

    def _reproduce(self, seed: int, workers: int, path: Path) -> bytes:
        self.cli("reproduce", "--draws", str(self.sizes.draws), "--workers", str(workers),
                 "--seed", str(seed), "--output", str(path))
        return path.read_bytes()

    def op(self, i):
        seed = self.seed + i
        name = SCENARIO_NAMES[i % 3]
        reproduce_s, raw = _timed(self._reproduce, seed, 2, self.json_path)
        self.last_reproduce_s = reproduce_s
        draws = self.sizes.tau_draws
        with self.span("mgp", "mgp.true_tau", {"draws": draws}):
            tau_s, tau = _timed(mgp.true_tau, name, draws=draws, seed=seed)
        return {"reproduce_s": reproduce_s, "true_tau_s": tau_s}, (name, tau, raw)

    def check(self, i, out):
        name, tau, raw = out
        payload = json.loads(raw)
        self.notes["matched_convention"] = payload["matched_convention"]
        problems = reproduce_problems(payload, self.reference)
        problems += tau_problems(name, tau, self.sizes.tau_draws, payload, self.reference)
        if not self._workers_checked:
            self._workers_checked = True
            other = self.work / "reproduce-workers1.json"
            single_s, single = _timed(self._reproduce, self.seed + i, 1, other)
            if single != raw:
                problems.append("reproduce JSON differs between workers 1 and 2")
            self.thread_speedup = single_s / self.last_reproduce_s
            other.unlink()
        return problems

    def corrupt(self, out):
        name, tau, raw = out
        payload = json.loads(raw)
        row = payload["results"][0]
        row["refined"]["lower"] = row["worst_case"]["lower"] - 0.5
        return name, tau, json.dumps(payload).encode()


# --------------------------------------------------------------------------
# batch-small inputs: generated and written by the benchmark itself, so a
# change to taubounds.write_csv cannot change them


def _cell(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def _write_xy(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    lines = [f"{_cell(a)},{_cell(b)}\n" for a, b in zip(x.tolist(), y.tolist())]
    path.write_text("x,y\n" + "".join(lines), encoding="utf-8")


def small_dataset(rng: np.random.Generator, max_rows: int):
    """One file's worth of records: log-uniform size, random Gaussian rho and logit gamma.

    Nothing is filtered here: sizes and values that make ``analyze`` fail
    stay (see ``BatchSmall.prepare`` for the known crash).
    Returns (x, y, pattern counts, rho).
    """
    n = int(round(math.exp(rng.uniform(math.log(2.0), math.log(max_rows)))))
    rho = float(rng.uniform(-0.95, 0.95))
    gamma = rng.normal(0.0, 2.0, (4, 2))
    z1, w = rng.standard_normal(n), rng.standard_normal(n)
    u = special.ndtr(z1)
    v = special.ndtr(rho * z1 + math.sqrt(1.0 - rho * rho) * w)
    logits = u[:, None] * gamma[:, 0] + v[:, None] * gamma[:, 1]
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    t = rng.random(n)
    z = 1 + (t > cum[:, 0]).astype(int) + (t > cum[:, 1]) + (t > cum[:, 2])
    x = np.where((z == 1) | (z == 2), u, np.nan)
    y = np.where((z == 1) | (z == 3), v, np.nan)
    return x, y, np.bincount(z, minlength=5)[1:], rho


class BatchSmall(Workload):
    name = "batch-small"
    parts = (("report_ms", "ms"),)
    warmup_ops = 30
    MODES = ("uniform01", "unknown", "from-file")

    def prepare(self):
        rng = np.random.default_rng([self.seed, 0xBA7C])
        identity = self.work / "identity_cdf.csv"
        identity.write_text("value,cdf\n0,0\n1,1\n", encoding="utf-8")
        files = []
        for k in range(self.sizes.files):
            x, y, counts, rho = small_dataset(rng, self.sizes.max_rows)
            path = self.work / f"small-{k:05d}.csv"
            _write_xy(path, x, y)
            mode = self.MODES[k % 3]
            argv = ["analyze", "--input", str(path), "--margins", mode, "--format", "json"]
            # theta = C(1/2, 1/2) of the generating Gaussian copula (Sheppard)
            theta = None if mode == "unknown" else 0.25 + math.asin(rho) / (2.0 * math.pi)
            if theta is not None:
                argv += ["--theta", repr(theta)]
            if mode == "from-file":
                argv += ["--x-cdf", str(identity), "--y-cdf", str(identity)]
            files.append((argv, int(counts.sum()), counts, mode.replace("-", "_"), theta))
        # the untimed first call of each tiny file: one that ends in the known
        # crash is reported, not timed; any other outcome is timed and checked
        self.files, crashed = [], []
        for k, entry in enumerate(files):
            if entry[1] < EDGE_ROWS:
                try:
                    self.cli(*entry[0])
                except OpFailed as exc:
                    if KNOWN_CRASH in str(exc):
                        crashed.append(f"file {k} (n={entry[1]}, patterns "
                                       f"{[int(c) for c in entry[2]]}, {entry[3]})")
                        continue
            self.files.append(entry)
        tiny = sum(1 for entry in files if entry[1] < EDGE_ROWS)
        self.notes["known_tiny_n_crashes"] = (
            f"{len(crashed)} of {tiny} files with n < {EDGE_ROWS} end in "
            f"IncoherentIntervalError and are not timed: {'; '.join(crashed) or 'none'}")

    def op(self, i):
        argv = self.files[i % len(self.files)][0]
        t0 = time.perf_counter()
        out = self.cli(*argv)
        return {"report_ms": 1e3 * (time.perf_counter() - t0)}, json.loads(out)

    def check(self, i, out):
        _, n, counts, mode, theta = self.files[i % len(self.files)]
        return report_problems(self.validator, out, n=n, counts=counts, mode=mode,
                               theta=theta)

    def corrupt(self, out):
        bad = json.loads(json.dumps(out))
        bad["worst_case"]["clipped"]["lower"] = -2.0
        return bad


WORKLOADS = {w.name: w for w in (PluginPipeline, Population, BatchSmall)}


def report_validator():
    """A validator for report_schema.json, built once per run."""
    path = Path(taubounds.__file__).with_name("report_schema.json")
    schema = json.loads(path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# --------------------------------------------------------------------------
# traced run: rebound names and direct kernel timings


def install_probes(tracer) -> None:
    """Rebind the names the calling modules imported to traced wrappers."""
    def read_counts(args, kwargs, result):
        return {"rows": len(result), "bytes": os.path.getsize(args[0])}

    def write_counts(args, kwargs, result):
        return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}

    def pairs(args, kwargs, result):
        n = len(args[0])
        return {"pairs": n * (n - 1) // 2}

    tracer.rebind(cli, "read_csv", "data", "data.read_csv", read_counts)
    tracer.rebind(cli, "write_csv", "data", "data.write_csv", write_counts)
    tracer.rebind(cli, "analyze", "estimator", "estimator.analyze")
    tracer.rebind(cli, "simulate_dataset", "mgp", "mgp.simulate_dataset",
                  lambda a, k, r: {"draws": int(a[1])})
    tracer.rebind(cli, "population_bounds", "mgp", "mgp.population_bounds",
                  lambda a, k, r: {"draws": int(k["draws"])})
    tracer.rebind(jsonschema, "validate", "jsonschema", "cli.schema_validate")
    tracer.rebind(estimator, "summarize", "estimator", "estimator.summarize")
    for attr in ("marginal_cdf_bounds", "envelope_summary", "worst_case", "refined",
                 "clip", "decide"):
        tracer.rebind(estimator, attr, "bounds", f"bounds.{attr}")
    for module in (estimator, mgp):
        for attr in ("constrained_upper", "constrained_lower"):
            tracer.rebind(module, attr, "copulas", f"copulas.{attr}")
    tracer.rebind(mgp, "propensity", "mgp", "mgp.propensity",
                  lambda a, k, r: {"rows": len(a[1])})
    tracer.rebind(mgp, "kendall_tau", "concordance", "concordance.kendall_tau", pairs)


def _median_time(reps, fn, *args):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_timings(seed: int) -> dict[str, float]:
    """Direct timings of public kernels on fixed inputs, in ms."""
    spec = copulas.CopulaSpec.gaussian(0.99)
    sample_ms = 1e3 * _median_time(7, copulas.sample_copula, spec, BLOCK, seed)
    uv = copulas.sample_copula(spec, BLOCK, seed)
    u, v = uv[:, 0].copy(), uv[:, 1].copy()

    def surfaces():
        copulas.constrained_upper(THETA, u, v)
        copulas.constrained_lower(THETA, u, v)

    constrained_ms = 1e3 * _median_time(7, surfaces)
    # the 10^6-element merge-sort inversion count of bench_concordance.py,
    # on whichever kernel (compiled or numpy) the package loaded
    a = np.ascontiguousarray(np.random.default_rng(seed).standard_normal(1_000_000))
    merge_ms = 1e3 * _median_time(3, concordance._kernel.discordant_by_merge, a)
    return {"copulas.sample_ms_per_block": sample_ms,
            "copulas.constrained_ms_per_block": constrained_ms,
            "concordance.merge_kernel_ms": merge_ms}
