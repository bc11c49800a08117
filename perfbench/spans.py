"""In-memory span recorder for the traced benchmark run.

Spans are taken only from the benchmark: either around a call the benchmark
makes itself, or by rebinding a name that a taubounds module imported (for
example ``taubounds.cli.read_csv``) to a wrapper that records a span and calls
the original. Nothing under ``src/`` is modified; :meth:`Tracer.uninstall`
restores every rebound name.

Each span records its name, layer, start, end, parent span, thread and the
operation it belongs to. A span opened in a worker thread that has no open
span of its own takes the installing thread's innermost open span as parent,
so ``population_bounds`` owns the propensity spans of its thread pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    op: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._rebound: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str, counts: dict | None = None):
        """Record the enclosed block as one span; ``counts`` may be filled in inside it."""
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        owner = self._stacks.get(self._owner)
        parent = stack[-1] if stack else (owner[-1] if owner else None)
        span_id = next(self._ids)
        stack.append(span_id)
        op = self.op
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, name, layer, start, end, parent, ident, op,
                                   dict(counts or {})))

    def rebind(self, module, attr: str, layer: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        ``counts(args, kwargs, result)`` may return a dict of work counts
        (rows, bytes, pairs) stored on the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            found = {}
            with self.span(layer, name, found):
                result = original(*args, **kwargs)
                if counts:
                    found.update(counts(args, kwargs, result))
            return result

        self._rebound.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        kids = [(max(a, s.start_ns), min(b, s.end_ns))
                for a, b in children.get(s.id, ()) if b > s.start_ns and a < s.end_ns]
        out[s.id] = (s.end_ns - s.start_ns) - _union_ns(kids)
    return out


def covered_ns(spans: list[Span]) -> int:
    """Wall time covered by the top-level spans (those without a parent)."""
    return _union_ns((s.start_ns, s.end_ns) for s in spans if s.parent is None)
