"""The benchmark's per-layer probes still find every name they rebind.

``perfbench/workloads.py::install_probes`` times the package's layers by
rebinding names that its modules imported. A renamed or deleted name would
otherwise surface only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class CheckingTracer:
    """Stands in for the benchmark's tracer: checks each target, rebinds nothing."""

    def __init__(self):
        self.targets = []

    def rebind(self, module, attr, *rest):
        target = getattr(module, attr, None)
        assert callable(target), f"probe target {module.__name__}.{attr} is not callable"
        self.targets.append(f"{module.__name__}.{attr}")


def test_every_probe_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tracer = CheckingTracer()
    workloads.install_probes(tracer)
    assert "taubounds.estimator.summarize" in tracer.targets
    assert "taubounds.cli.read_csv" in tracer.targets
