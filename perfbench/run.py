#!/usr/bin/env python3
"""Benchmark of the taubounds CLI pipeline and Monte Carlo engine.

Run from the repository root:

    python3 perfbench/run.py --workload plugin-1m --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One closed-loop client in one process calls the program in process, for
``--seconds`` seconds: the next operation starts when the previous one and
its output check have finished. ``reproduce`` uses 2 worker threads.
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones (see workloads.py for the workloads and
spans.py for how spans are taken). Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload at tiny sizes in both modes, checks that every
metric of BENCHMARK.json is produced with its unit, and that a deliberately
corrupted output counts as a failed operation.

The program is loaded from ``src/`` of the checkout; the benchmark writes
only under ``.perfbench_run/`` (spans and results are kept there, inputs are
deleted at the end).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
# Environment variables that select program behaviour; unset for every run
# so that a shell setting cannot change a workload.
ISOLATED_ENV = ("TAUBOUNDS_WORKERS", "TAUBOUNDS_NO_EXT")
SETUP_REPEATS = 5
SETUP_CODE = "import taubounds.cli as cli; cli.build_parser()"
LAYERS = ("data", "mgp", "copulas", "concordance", "estimator", "bounds", "cli")


def load_program():
    """Import taubounds from the checkout's sources, or exit with an error."""
    if not (SRC / "taubounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'taubounds'}")
    for key in ISOLATED_ENV:
        os.environ.pop(key, None)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import taubounds
    if Path(taubounds.__file__).resolve().parent != (SRC / "taubounds").resolve():
        sys.exit(f"perfbench: taubounds imported from {taubounds.__file__}, not {SRC}")
    return taubounds


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = child_env()
    times = []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if k:  # the first start only warms the file cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment_stamp(taubounds) -> dict:
    from importlib import metadata

    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ,
                                             "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "taubounds").glob("*")):
        if path.suffix in (".py", ".pyx", ".json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "HAVE_COMPILED_KERNEL": bool(taubounds.HAVE_COMPILED_KERNEL),
    }


# --------------------------------------------------------------------------
# closed loop


def until(seconds: float):
    """Operation indices 0, 1, ... until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield i
        i += 1


def run_ops(wl, indices, mutate=None) -> list[dict]:
    records = []
    for i in indices:
        if wl.tracer is not None:
            wl.tracer.op = i
        error, parts, out = None, {}, None
        t0 = time.perf_counter()
        try:
            parts, out = wl.op(i)
        except Exception as exc:  # any crash of the program is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if wl.tracer is not None:
            wl.tracer.op = None
        problems = []
        if error is None:
            try:
                problems = wl.check(i, mutate(out) if mutate else out)
            except Exception:  # a check that cannot read the output rejects it
                problems = ["output check raised:\n" + traceback.format_exc()]
        for line in ([error] if error else []) + problems:
            print(f"  op {i}: {line}", file=sys.stderr)
        records.append({"i": i, "wall": wall, "parts": parts, "error": error,
                        "problems": problems})
    return records


def describe(name, unit, values) -> str:
    """Median, the highest of p99.9/p99/p90 with at least 10 samples beyond it, and n."""
    line = f"  {name:24s} p50 {statistics.median(values):.6g} {unit}"
    tail = [p for p in (99.9, 99.0, 90.0) if len(values) * (1.0 - p / 100.0) >= 10]
    if tail:
        cut = statistics.quantiles(values, n=1000, method="inclusive")[round(tail[0] * 10) - 1]
        line += f", p{tail[0]:g} {cut:.6g} {unit}"
    return line + f"  (n={len(values)})"


def e2e_metrics(wl, records, setup_s) -> dict:
    ok = [r for r in records if not (r["error"] or r["problems"])]
    failed = len(records) - len(ok)
    # latencies of completed operations; failures are counted, not timed
    walls_ms = [1e3 * r["wall"] for r in (ok or records)]
    busy = sum(r["wall"] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {wl.name}: {len(records)} operations, {failed} failed, "
          f"fail_ratio {failed / len(records):.6g}")
    print(f"  {'setup_s':24s} {setup_s:.6g} s")
    print(describe("op_ms", "ms", walls_ms))
    for name, unit in wl.parts:
        values = [r["parts"][name] for r in ok]
        if values:
            print(describe(name, unit, values))
    print(f"  {'ops_per_s':24s} {len(ok) / busy:.6g} 1/s")
    print(f"  {'peak_rss_mb':24s} {rss_mb:.6g} MB")
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(walls_ms), "ms"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# --------------------------------------------------------------------------
# traced run


@contextlib.contextmanager
def tracing(wl, tracer):
    """Rebind the probed names and let the workload open spans, for one block."""
    import workloads

    workloads.install_probes(tracer)
    wl.tracer = tracer
    try:
        yield
    finally:
        wl.tracer = None
        tracer.uninstall()


def layer_metrics(spans, traced, untraced, thread_speedup, kernels) -> dict:
    from spans import covered_ns, self_times
    from workloads import BLOCK

    n_ops = len(traced)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(s):
        return (s.end_ns - s.start_ns) / 1e9

    def per_op_s(name):
        return sum(dur(s) for s in by_name[name]) / n_ops

    def median_ms(name):
        calls = by_name[name]
        return 1e3 * statistics.median(dur(s) for s in calls) if calls else 0.0

    def total(names, key):
        return sum(s.counts.get(key, 0) for n in names for s in by_name[n])

    def rate_mbps(name):
        seconds = sum(dur(s) for s in by_name[name])
        return total([name], "bytes") / seconds / 1e6 if seconds else 0.0

    io_calls = len(by_name["data.read_csv"]) + len(by_name["data.write_csv"])
    io_names = ("data.read_csv", "data.write_csv")
    prop_rows = total(["mgp.propensity"], "rows")
    prop_s = sum(dur(s) for s in by_name["mgp.propensity"])

    selfs = self_times(spans)
    layer_self = {layer: defaultdict(float) for layer in LAYERS}
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer][s.op] += selfs[s.id] / 1e6
    ops = [r["i"] for r in traced]
    spans_of_op = defaultdict(list)
    for s in spans:
        spans_of_op[s.op].append(s)
    unattributed = [1e3 * r["wall"] - covered_ns(spans_of_op[r["i"]]) / 1e6 for r in traced]

    m = {
        "data.write_csv_s": (per_op_s("data.write_csv"), "s"),
        "data.write_MBps": (rate_mbps("data.write_csv"), "MB/s"),
        "data.read_csv_s": (per_op_s("data.read_csv"), "s"),
        "data.read_MBps": (rate_mbps("data.read_csv"), "MB/s"),
        "data.read_csv_ms.p50": (median_ms("data.read_csv"), "ms"),
        "data.rows": (total(io_names, "rows") / io_calls if io_calls else 0.0, "count"),
        "data.csv_bytes": (total(io_names, "bytes") / io_calls if io_calls else 0.0, "B"),
        "mgp.simulate_dataset_s": (per_op_s("mgp.simulate_dataset"), "s"),
        "mgp.population_bounds_s": (median_ms("mgp.population_bounds") / 1e3, "s"),
        "mgp.propensity_ms_per_block": (1e3 * prop_s / prop_rows * BLOCK if prop_rows else 0.0,
                                        "ms"),
        "mgp.thread_speedup": (thread_speedup, "ratio"),
        "mgp.draws": (total(["mgp.simulate_dataset", "mgp.population_bounds", "mgp.true_tau"],
                            "draws") / n_ops, "count"),
        "concordance.kendall_tau_s": (per_op_s("concordance.kendall_tau"), "s"),
        "concordance.pairs": (total(["concordance.kendall_tau"], "pairs") / n_ops, "count"),
        "estimator.summarize_s": (per_op_s("estimator.summarize"), "s"),
        "estimator.analyze_ms.p50": (median_ms("estimator.analyze"), "ms"),
        "bounds.marginal_cdf_bounds_s": (per_op_s("bounds.marginal_cdf_bounds"), "s"),
        "bounds.envelope_summary_s": (per_op_s("bounds.envelope_summary"), "s"),
        "cli.schema_validate_ms": (median_ms("cli.schema_validate"), "ms"),
        "op.unattributed_ms": (statistics.median(unattributed), "ms"),
        "trace_overhead": (sum(r["wall"] for r in traced) / sum(r["wall"] for r in untraced)
                           - 1.0, "ratio"),
    }
    m.update({name: (value, "ms") for name, value in kernels.items()})
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (statistics.median(layer_self[layer][i] for i in ops), "ms")
    return m


def print_layers(metrics: dict) -> None:
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:32s} {value:.6g} {unit}")


# --------------------------------------------------------------------------


def new_workload(name, work, seed, sizes):
    import workloads

    reference = json.loads(Path(__file__).with_name("reference.json").read_text())
    wl = workloads.WORKLOADS[name](work, seed, sizes, reference, workloads.report_validator())
    wl.prepare()
    return wl


def run_workload(name, seed, seconds, trace, sizes, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object printed as the last line, and notes."""
    import workloads

    from spans import Tracer

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUN_DIR))
    try:
        wl = new_workload(name, work, seed, sizes)
        run_ops(wl, range(wl.warmup_ops))
        if not trace:
            setup_s = measure_setup(setup_repeats)
            records = run_ops(wl, until(seconds))
            metrics = e2e_metrics(wl, records, setup_s)
        else:
            # each operation runs twice, untraced and traced, in alternating
            # order, so drift in machine speed falls on both sides alike
            tracer = Tracer()
            untraced, traced = [], []
            for i in until(seconds):
                for side in ((untraced, traced) if i % 2 == 0 else (traced, untraced)):
                    with tracing(wl, tracer) if side is traced else contextlib.nullcontext():
                        side.extend(run_ops(wl, [i]))
            records = untraced + traced
            tracer.write(RUN_DIR / f"spans-{name}-seed{seed}.jsonl")
            metrics = layer_metrics(tracer.spans, traced, untraced, wl.thread_speedup,
                                    workloads.kernel_timings(seed))
            print(f"workload {name}: {len(untraced)} untraced and {len(traced)} traced "
                  f"operations, {len(tracer.spans)} spans")
            print_layers(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in wl.notes.items():
        print(f"  note {key}: {value}")
    failed = sum(1 for r in records if r["error"] or r["problems"])
    return {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }, wl.notes


def smoke() -> int:
    """Tiny-size run of every workload and mode; returns the exit code."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(w["name"], 1, 1.0, trace, workloads.SMOKE,
                                     setup_repeats=1)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(math.isfinite(v["value"]) for v in result["metrics"].values())
            if got != want or not finite or not result["correct"] or result["attempted"] < 1:
                ok = False
                print(f"SMOKE FAIL {w['name']} trace={trace}: metrics differ "
                      f"{sorted(set(got.items()) ^ set(want.items()))}, finite={finite}, "
                      f"correct={result['correct']}")
        # a corrupted output must count as a failed operation
        work = Path(tempfile.mkdtemp(prefix="smoke-", dir=RUN_DIR))
        try:
            wl = new_workload(w["name"], work, 1, workloads.SMOKE)
            records = run_ops(wl, range(1), mutate=wl.corrupt)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not records[0]["problems"]:
            ok = False
            print(f"SMOKE FAIL {w['name']}: corrupted output passed the check")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("plugin-1m", "population", "batch-small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    taubounds = load_program()
    from workloads import FULL

    stamp = environment_stamp(taubounds)
    print("env " + json.dumps(stamp, sort_keys=True))
    if args.smoke:
        return smoke()
    result, notes = run_workload(args.workload, args.seed, args.seconds, args.trace, FULL)
    out = RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": stamp, "workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "notes": notes, **result},
                              indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
