"""The benchmark's own checks pass on the package as it stands.

``perfbench/workloads.py::install_probes`` times the package's layers by
rebinding names that its modules imported. A renamed or deleted name would
otherwise surface only in a traced benchmark run. Likewise its
``population`` checks compare ``reproduce`` and ``true_tau`` with
``perfbench/reference.json``; an engine change that fails them fails here
first. The kernels it times directly and the calls it makes to the package
are checked by name and signature, without running them. A module keeps an
import it neither reads nor exports only as a probe target.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest
from test_package_hygiene import MODULES, idle_imports

import taubounds
from taubounds import concordance, copulas, mgp, true_tau
from taubounds.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class CheckingTracer:
    """Stands in for the benchmark's tracer: checks each target, rebinds nothing."""

    def __init__(self):
        self.targets = []

    def rebind(self, module, attr, *rest):
        target = getattr(module, attr, None)
        assert callable(target), f"probe target {module.__name__}.{attr} is not callable"
        self.targets.append(f"{module.__name__}.{attr}")


def test_every_probe_target_resolves(workloads):
    tracer = CheckingTracer()
    workloads.install_probes(tracer)
    assert "taubounds.estimator.summarize" in tracer.targets
    assert "taubounds.cli.read_csv" in tracer.targets


def test_kept_imports_are_probe_targets(workloads):
    # a name kept only by "# noqa: F401" serves the benchmark's rebinding
    tracer = CheckingTracer()
    workloads.install_probes(tracer)
    kept = {f"taubounds.{path.stem}.{name}" for path in MODULES
            for name, _ in idle_imports(path.read_text(encoding="utf-8"))}
    assert kept and kept <= set(tracer.targets)


def test_kernel_timing_targets_resolve():
    # the names kernel_timings and environment_stamp read, without running them
    for target in (copulas.sample_copula, copulas.constrained_upper,
                   copulas.constrained_lower, concordance._kernel.discordant_by_merge):
        assert callable(target)
    assert isinstance(taubounds.HAVE_COMPILED_KERNEL, bool)


def test_perfbench_call_signatures_bind():
    config = mgp.SCENARIOS["P1"].config(mgp.CovariateScale.NORMAL_SCORE)
    # make_reference.py's call
    inspect.signature(mgp.population_bounds).bind(
        config, theta=0.4, draws=1 << 25, seed=20221017, workers=2,
        warn_on_theta_mismatch=False)
    # the population workload's call
    inspect.signature(mgp.true_tau).bind("P1", draws=1_000_000, seed=1)


@pytest.mark.parametrize("call", [
    lambda: mgp.population_bounds_quadrature("P3", [0.25]),
    lambda: mgp.population_bounds_sweep("P3", [0.25], draws=10_000),
    lambda: mgp.simulate_dataset(mgp.SCENARIOS["P3"].config(), 100, seed=0),
], ids=["population_bounds_quadrature", "population_bounds_sweep", "simulate_dataset"])
def test_engines_call_propensity_by_module_name(monkeypatch, call):
    # the traced mgp.propensity_ms_per_block reads 0 if an engine calls a
    # copy of the function that rebinding mgp.propensity does not reach
    calls = []
    original = mgp.propensity

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(mgp, "propensity", counted)
    call()
    assert calls and min(calls) > 0


def test_population_checks_pass(workloads, tmp_path):
    # the arguments the benchmark's population workload passes
    out = tmp_path / "reproduce.json"
    assert main(["reproduce", "--draws", "2000000", "--workers", "2", "--seed", "1",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert workloads.reproduce_problems(payload, reference) == []
    draws = workloads.FULL.tau_draws
    for name in workloads.SCENARIO_NAMES:
        tau = true_tau(name, draws=draws, seed=1)
        assert workloads.tau_problems(name, tau, draws, payload, reference) == []
