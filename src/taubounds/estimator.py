"""Plug-in estimation: from incomplete records to identified sets and decisions.

The margin-knowledge mode decides the route:

* known margins (uniform on [0, 1], or user-supplied CDF tables) transform
  the observed cells through the margins and average the bound integrands
  pattern by pattern;
* unknown margins replace the transforms by the marginal CDF envelopes and
  use their closed-form worst case. Refined (theta) bounds are defined only
  under known margins and are rejected otherwise.

Summaries use order-independent reductions, so record order never changes
a result.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

# marginal_cdf_bounds and constrained_* are not called here; the
# benchmark's traced run rebinds them
from .bounds import (
    Decision,
    DistSummary,
    TauInterval,
    ThetaSummary,
    _plug_in,
    _warn_if_tied,
    clip,
    decide,
    envelope_summary,
    marginal_cdf_bounds,  # noqa: F401
    refined,
    worst_case,
)
from .copulas import check_theta, constrained_lower, constrained_upper  # noqa: F401
from .data import as_dataset
from .errors import MarginTableError, UnsupportedAnalysisError

__all__ = [
    "MarginKind",
    "CdfTable",
    "MarginMode",
    "AnalysisReport",
    "summarize",
    "analyze",
]

_TABLE_START_EPS = 1e-6


class MarginKind(enum.Enum):
    UNIFORM01 = "uniform01"
    FROM_FILE = "from_file"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CdfTable:
    """Piecewise-linear CDF between supplied knots.

    Knots must be strictly increasing; CDF values nondecreasing, starting
    at (numerically) zero and ending at one. Evaluation outside the knot
    range raises :class:`MarginTableError`; interpolated values are clamped
    to [0, 1].
    """

    knots: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != cdf.shape:
            raise MarginTableError("a CDF table needs >= 2 (value, cdf) rows")
        if not np.all(np.isfinite(knots)) or not np.all(np.isfinite(cdf)):
            raise MarginTableError("CDF table entries must be finite")
        if np.any(np.diff(knots) <= 0):
            raise MarginTableError("table values must be strictly increasing")
        if np.any(np.diff(cdf) < -1e-12):
            raise MarginTableError("cdf column must be nondecreasing")
        if abs(cdf[0]) > _TABLE_START_EPS:
            raise MarginTableError(f"cdf must start at 0 (got {cdf[0]!r})")
        if abs(cdf[-1] - 1.0) > 1e-9:
            raise MarginTableError(f"cdf must end at 1 (got {cdf[-1]!r})")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "cdf", np.clip(cdf, 0.0, 1.0))

    @staticmethod
    def from_csv(path) -> "CdfTable":
        """Read a ``value,cdf`` table; a non-numeric first row is treated as a header."""
        knots, values = [], []
        header_allowed = True
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if len(row) != 2:
                    raise MarginTableError(f"{path}: expected 2 columns, got {len(row)}")
                try:
                    knot = float(row[0])
                    value = float(row[1])
                except ValueError:
                    if header_allowed:
                        header_allowed = False
                        continue
                    raise MarginTableError(f"{path}: cannot parse row {row!r}") from None
                header_allowed = False
                knots.append(knot)
                values.append(value)
        return CdfTable(np.asarray(knots), np.asarray(values))

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        # NaN (a missing cell) compares false, so it passes through as NaN
        if np.any(arr < self.knots[0]) or np.any(arr > self.knots[-1]):
            raise MarginTableError(
                f"data value outside the CDF table support "
                f"[{self.knots[0]}, {self.knots[-1]}]")
        return np.clip(np.interp(arr, self.knots, self.cdf), 0.0, 1.0)


@dataclass(frozen=True)
class MarginMode:
    """Declared knowledge about the marginal CDFs of x and y."""

    kind: MarginKind
    x_cdf: CdfTable | None = None
    y_cdf: CdfTable | None = None

    def __post_init__(self):
        if self.kind is MarginKind.FROM_FILE:
            if self.x_cdf is None or self.y_cdf is None:
                raise MarginTableError("from_file margins require both CDF tables")
        elif self.x_cdf is not None or self.y_cdf is not None:
            raise MarginTableError(f"CDF tables are not used with {self.kind.value!r} margins")

    @staticmethod
    def uniform01() -> "MarginMode":
        return MarginMode(MarginKind.UNIFORM01)

    @staticmethod
    def unknown() -> "MarginMode":
        return MarginMode(MarginKind.UNKNOWN)

    @staticmethod
    def from_tables(x_cdf: CdfTable, y_cdf: CdfTable) -> "MarginMode":
        return MarginMode(MarginKind.FROM_FILE, x_cdf, y_cdf)


def _uniform_cdf(a: np.ndarray) -> np.ndarray:
    return np.clip(a, 0.0, 1.0)


def _transforms(margins: MarginMode):
    if margins.kind is MarginKind.UNIFORM01:
        return _uniform_cdf, _uniform_cdf
    if margins.kind is MarginKind.FROM_FILE:
        return margins.x_cdf, margins.y_cdf
    raise UnsupportedAnalysisError(
        "transformed summaries require known margins; with unknown margins "
        "use analyze(), which applies the CDF-envelope worst case")


def summarize(records, margins: MarginMode, theta: float | None = None):
    """Pattern frequencies and conditional bound moments of a dataset.

    Returns a :class:`DistSummary`, or a :class:`ThetaSummary` when
    ``theta`` is given, with the SEs of its endpoints; moments of empty
    patterns stay absent. Unknown margins raise
    :class:`UnsupportedAnalysisError`; :func:`analyze` handles them.
    """
    ds = as_dataset(records)
    if theta is not None:
        check_theta(theta)
    fx, gy = _transforms(margins)
    for name, values in (("x", ds.x), ("y", ds.y)):
        _warn_if_tied(name, np.sort(values))

    def inputs(rows):
        # filled after the transform: a CdfTable rejects values outside its knots
        x, y = ds.x[rows], ds.y[rows]
        uv = (np.where(np.isnan(x), 0.0, fx(x)), np.where(np.isnan(y), 0.0, gy(y)))
        return uv, uv

    return _plug_in(ds, inputs, theta)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything :func:`analyze` derives from a dataset."""

    n: int
    pattern_counts: tuple[int, int, int, int]
    p_hat: tuple[float, float, float, float]
    summary: DistSummary | ThetaSummary
    worst_case_raw: TauInterval
    worst_case_clipped: TauInterval
    refined_raw: TauInterval | None
    refined_clipped: TauInterval | None
    decision: Decision
    margins: MarginMode
    theta: float | None
    se_guard: float
    seed: int
    tool_version: str

    def to_report_dict(self) -> dict:
        """Serialisable report matching the published JSON schema."""
        def num(value):
            if value is None or (isinstance(value, float) and not math.isfinite(value)):
                return None
            return float(value)

        def block(raw: TauInterval, clipped: TauInterval) -> dict:
            return {
                "raw": {"lower": float(raw.lower), "upper": float(raw.upper)},
                "clipped": {"lower": float(clipped.lower), "upper": float(clipped.upper)},
                "se": {"lower": num(raw.se_lower), "upper": num(raw.se_upper)},
            }

        return {
            "n": self.n,
            "pattern_counts": [int(c) for c in self.pattern_counts],
            "p_hat": [float(p) for p in self.p_hat],
            "worst_case": block(self.worst_case_raw, self.worst_case_clipped),
            "refined": (None if self.refined_raw is None
                        else block(self.refined_raw, self.refined_clipped)),
            "decision": self.decision.value,
            "se_guard": float(self.se_guard),
            "margins_mode": self.margins.kind.value,
            "theta": num(self.theta),
            "seed": self.seed,
            "tool_version": self.tool_version,
        }


def analyze(records, margins: MarginMode, theta: float | None = None,
            se_guard: float = 0.0, seed: int = 0) -> AnalysisReport:
    """Identified sets and the dependence decision for a dataset.

    Known margins route through :func:`summarize` and the affine bound
    maps; unknown margins route through the marginal CDF envelopes. The
    decision applies to the refined interval when theta is given, else to
    the worst-case interval, after clipping to [-1, 1].
    """
    from . import __version__

    ds = as_dataset(records)
    n = len(ds)

    refined_raw = refined_clipped = None
    if margins.kind is MarginKind.UNKNOWN:
        if theta is not None:
            raise UnsupportedAnalysisError(
                "theta-refined bounds are defined only under known margins")
        summary = envelope_summary(ds)
        wc_raw = worst_case(summary)
    else:
        summary = summarize(ds, margins, theta)
        base = summary.base if isinstance(summary, ThetaSummary) else summary
        wc_raw = worst_case(base)
        if theta is not None:
            refined_raw = refined(summary)
            refined_clipped = clip(refined_raw)

    wc_clipped = clip(wc_raw)
    decisive = refined_clipped if refined_clipped is not None else wc_clipped
    counts = ds.pattern_counts()
    return AnalysisReport(
        n=n,
        pattern_counts=tuple(int(c) for c in counts),
        p_hat=tuple(counts / n),
        summary=summary,
        worst_case_raw=wc_raw,
        worst_case_clipped=wc_clipped,
        refined_raw=refined_raw,
        refined_clipped=refined_clipped,
        decision=decide(decisive, se_guard=se_guard),
        margins=margins,
        theta=theta,
        se_guard=se_guard,
        seed=seed,
        tool_version=__version__,
    )
