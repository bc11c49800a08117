"""Identified sets for Kendall's tau from pattern-wise distribution summaries.

The association measure is tau = 4 E[C(F(X), G(Y))] - 1. With missingness
pattern Z (1 both observed, 2 only x, 3 only y, 4 neither), splitting the
expectation by pattern and replacing the unknown copula and the unobserved
coordinates by their extreme values yields the worst-case interval

    upper = 4 (m1 p1 + m2 p2 + m3 p3 + p4) - 1
    lower = 4 l1 p1 - 1

where m1 / l1 are the pattern-1 means of min(F(X), G(Y)) and of
max(F(X) + G(Y) - 1, 0), and m2 / m3 the pattern means of F(X) and G(Y).
The worst-case interval always brackets zero. Knowing the median-quadrant
probability theta = C(1/2, 1/2) tightens the pattern-1 terms via the
constrained surfaces and can produce an interval excluding zero.

Raw intervals may leave [-1, 1] (the all-missing upper bound is 3);
:func:`clip` projects them onto [-1, 1] for reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .copulas import _lower_surface, _upper_surface, check_theta
from .data import Dataset, as_dataset
from .errors import InvalidSummaryError, TiedDataWarning, _warn

__all__ = [
    "Decision",
    "TauInterval",
    "DistSummary",
    "ThetaSummary",
    "StepFunction",
    "SteppedCdfBounds",
    "worst_case",
    "refined",
    "clip",
    "decide",
    "marginal_cdf_bounds",
    "envelope_summary",
]

_SIMPLEX_TOL = 1e-12
_MOMENT_TOL = 1e-12


class Decision(enum.Enum):
    DEPENDENCE_POSITIVE = "dependence_positive"
    DEPENDENCE_NEGATIVE = "dependence_negative"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TauInterval:
    """A lower/upper pair for tau with optional standard errors."""

    lower: float
    upper: float
    se_lower: float | None = None
    se_upper: float | None = None

    def __post_init__(self):
        for field in ("lower", "upper", "se_lower", "se_upper"):
            value = getattr(self, field)
            if value is not None:
                object.__setattr__(self, field, float(value))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidSummaryError("interval endpoints must be finite")
        if self.lower > self.upper:
            raise InvalidSummaryError(
                f"lower {self.lower} exceeds upper {self.upper}")


def _check_moment(name: str, value, p: float):
    if p == 0.0:
        if value is not None:
            raise InvalidSummaryError(
                f"{name} must be absent when its pattern has zero probability")
        return
    if value is None:
        raise InvalidSummaryError(f"{name} required when its pattern has mass {p}")
    if not math.isfinite(value) or value < -_MOMENT_TOL or value > 1.0 + _MOMENT_TOL:
        raise InvalidSummaryError(f"{name}={value!r} outside [0, 1]")


@dataclass(frozen=True)
class DistSummary:
    """Pattern probabilities and the conditional moments entering the bounds.

    ``se`` holds the standard errors (lower, upper) of the worst-case
    endpoints when the summary is estimated. Moments of empty patterns are
    ``None``, never imputed.
    """

    p_z: tuple[float, float, float, float]
    m1: float | None
    l1: float | None
    m2: float | None
    m3: float | None
    se: tuple[float, float] | None = None

    def __post_init__(self):
        p = np.asarray(self.p_z, dtype=float)
        if p.shape != (4,):
            raise InvalidSummaryError("p_z must have exactly 4 entries")
        if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
            raise InvalidSummaryError(f"pattern probabilities {self.p_z} outside [0, 1]")
        if abs(p.sum() - 1.0) > _SIMPLEX_TOL:
            raise InvalidSummaryError(
                f"pattern probabilities sum to {p.sum()!r}, not 1")
        _check_moment("m1", self.m1, p[0])
        _check_moment("l1", self.l1, p[0])
        _check_moment("m2", self.m2, p[1])
        _check_moment("m3", self.m3, p[2])
        if p[0] > 0.0 and self.l1 > self.m1 + _MOMENT_TOL:
            raise InvalidSummaryError(
                f"l1={self.l1} exceeds m1={self.m1}; the lower integrand is "
                "dominated by the upper one pointwise")
        if self.se is not None and len(self.se) != 2:
            raise InvalidSummaryError("se must have exactly 2 entries (lower, upper)")


@dataclass(frozen=True)
class ThetaSummary:
    """A :class:`DistSummary` augmented with constrained pattern-1 moments.

    ``m1_theta`` / ``l1_theta`` are the pattern-1 means of the upper and
    lower constrained surfaces at level ``theta``; ``se`` holds the standard
    errors (lower, upper) of the refined endpoints when estimated.

    Construction enforces l1 <= l1_theta <= m1_theta <= m1 up to
    ``_MOMENT_TOL``. The affine bound map and its rounding are monotone in
    these moments, so :func:`refined` of any accepted summary is nested in
    the worst-case interval of ``base``, widened by that tolerance carried
    through the map.
    """

    theta: float
    m1_theta: float | None
    l1_theta: float | None
    base: DistSummary
    se: tuple[float, float] | None = None

    def __post_init__(self):
        check_theta(self.theta)
        p1 = self.base.p_z[0]
        _check_moment("m1_theta", self.m1_theta, p1)
        _check_moment("l1_theta", self.l1_theta, p1)
        if p1 > 0.0:
            if self.l1_theta > self.m1_theta + _MOMENT_TOL:
                raise InvalidSummaryError("l1_theta exceeds m1_theta")
            if self.m1_theta > self.base.m1 + _MOMENT_TOL:
                raise InvalidSummaryError(
                    "m1_theta exceeds m1: constrained upper surface must sit "
                    "below the unconstrained one")
            if self.l1_theta < self.base.l1 - _MOMENT_TOL:
                raise InvalidSummaryError(
                    "l1_theta below l1: constrained lower surface must sit "
                    "above the unconstrained one")


def _interval(base: DistSummary, m1: float | None, l1: float | None, se) -> TauInterval:
    """The affine map of ``base`` at pattern-1 moments (m1, l1), with SEs ``se``.

    The summaries hold l1 <= m1 only up to ``_MOMENT_TOL``, and rounding can
    put the computed l1 an ulp above m1 (at u = 1, (u + v) - 1 can exceed v),
    so a lower end above the upper one is set to the upper one.
    """
    p = np.asarray(base.p_z, dtype=float)
    m1, l1, m2, m3 = (v if v is not None else 0.0 for v in (m1, l1, base.m2, base.m3))
    se_lower, se_upper = se if se is not None else (None, None)
    upper = 4.0 * (m1 * p[0] + m2 * p[1] + m3 * p[2] + p[3]) - 1.0
    return TauInterval(min(4.0 * l1 * p[0] - 1.0, upper), upper, se_lower, se_upper)


def worst_case(summary: DistSummary) -> TauInterval:
    """Worst-case identified set (raw, unclipped) from a summary.

    Exact affine evaluation; the summary's standard errors, when present,
    are those of these endpoints.
    """
    return _interval(summary, summary.m1, summary.l1, summary.se)


def refined(summary: ThetaSummary) -> TauInterval:
    """Median-constrained identified set (raw, unclipped).

    Same affine map as :func:`worst_case` with the pattern-1 moments
    replaced by the constrained-surface means. The result is nested in the
    worst-case interval of the embedded summary, widened by the moment
    tolerance :class:`ThetaSummary` allows, carried through the affine map:
    that class enforces the moment ordering, and the map is monotone in it.
    """
    return _interval(summary.base, summary.m1_theta, summary.l1_theta, summary.se)


def _integrands(upper_uv, lower_uv, weights: np.ndarray, thetas: list[float]) -> np.ndarray:
    """Integrands of the bound values for the plug-in and both population
    engines, one row each: worst-case upper, lower, then (refined upper,
    lower) per theta. Inputs: the (u, v) of the upper and of the lower ones,
    and (4, n) pattern weights, one row per pattern: the propensities, or a
    one-hot pattern as a (4, 1) column shared by every point (then missing
    cells may hold any value in [0, 1])."""
    (u, v), (lu, lv) = upper_uv, lower_uv
    p1 = weights[0]
    tail = weights[1] * u + weights[2] * v + weights[3]
    cols = np.empty((2 + 2 * len(thetas), len(u)))
    cols[0] = np.minimum(u, v) * p1 + tail
    cols[1] = np.maximum(lu + lv - 1.0, 0.0) * p1
    for j, th in enumerate(thetas):
        cols[2 + 2 * j] = _upper_surface(th, u, v) * p1 + tail
        cols[3 + 2 * j] = _lower_surface(th, lu, lv) * p1
    return cols


def _plug_in(ds: Dataset, inputs, thetas=(), projected=False):
    """The :class:`DistSummary`, then a :class:`ThetaSummary` per theta, of a
    dataset from its :func:`_integrands` under one-hot weights. ``inputs(rows)``
    gives their (upper_uv, lower_uv) at ``rows`` and, if ``projected``, n times
    the projection terms of the worst-case (upper, lower) integrands. A
    pattern's moment is an integrand's mean over its rows; an endpoint's SE is
    4 sd / sqrt(n) of its integrand (plus projection) over all rows. Patterns
    are reduced one at a time, each sorted: row order never changes a bit."""
    n, width, block = len(ds), 2 + 2 * len(thetas), 1 << 16  # block: rows per integrand call
    means, parts = [], []  # parts: (rows, mean, variance) of each SE integrand
    for k in range(4):
        rows = np.flatnonzero(ds.z == k + 1)
        cols = np.empty((width, rows.size))
        for extra in range(1 + projected):  # the integrands, then with the projection
            for a in range(0, rows.size, block):
                got = inputs(rows[a:a + block])
                cols[:, a:a + block] = _integrands(*got[:2], (np.arange(4) == k)[:, None], thetas)
                if extra:
                    cols[:, a:a + block] += got[2] / n
            cols.sort(axis=1)
            if not extra:
                means.append([float(m) for m in cols.sum(axis=1) / rows.size] if rows.size
                             else [None] * width)
        if rows.size:
            parts.append((rows.size, cols.mean(axis=1), cols.var(axis=1)))
    mean = sum(m * mu for m, mu, _ in parts) / n
    squares = sum(m * (var + (mu - mean) ** 2) for m, mu, var in parts)
    se = [4.0 * math.sqrt(q / (n - 1) / n) if n > 1 else math.nan for q in squares]
    base = DistSummary(tuple(ds.pattern_counts() / n), means[0][0], means[0][1],
                       means[1][0], means[2][0], se=(se[1], se[0]))
    return [base] + [ThetaSummary(th, means[0][2 + 2 * j], means[0][3 + 2 * j], base,
                                  se=(se[3 + 2 * j], se[2 + 2 * j]))
                     for j, th in enumerate(thetas)]


def clip(interval: TauInterval) -> TauInterval:
    """Project each endpoint of a raw interval onto [-1, 1].

    For an interval that meets [-1, 1] (as every population one does: the
    worst case brackets 0) this is the intersection. The estimate from a
    tiny sample can lie wholly above 1 or below -1; it becomes (1, 1) or
    (-1, -1).
    """
    return replace(interval, lower=min(max(interval.lower, -1.0), 1.0),
                   upper=max(min(interval.upper, 1.0), -1.0))


def decide(interval: TauInterval, se_guard: float = 0.0) -> Decision:
    """Partition decision from an interval.

    Dependence is declared positive iff the lower endpoint is strictly
    above zero and negative iff the upper endpoint is strictly below zero;
    anything else is inconclusive. ``se_guard`` widens the interval by
    that many standard errors first (requires the interval to carry SEs);
    the default applies the population rule with no tolerance band. A
    negative, infinite or NaN guard raises ``ValueError``; a NaN SE
    (estimation gives one only at n = 1) makes the decision inconclusive
    under any guard > 0.
    """
    if not 0 <= se_guard < math.inf:
        raise ValueError(f"se_guard must be a nonnegative number below infinity, "
                         f"got {se_guard!r}")
    lower, upper = interval.lower, interval.upper
    if se_guard:
        if interval.se_lower is None or interval.se_upper is None:
            raise ValueError("se_guard requires an interval with standard errors")
        lower -= se_guard * interval.se_lower
        upper += se_guard * interval.se_upper
    if upper < 0.0:
        return Decision.DEPENDENCE_NEGATIVE
    if lower > 0.0:
        return Decision.DEPENDENCE_POSITIVE
    return Decision.INCONCLUSIVE


# ---------------------------------------------------------------------------
# marginal CDF envelopes (unknown-margins route)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nondecreasing step function.

    ``base`` is the value left of the first jump; ``cum[i]`` the value from
    ``xs[i]`` (inclusive) onward.
    """

    xs: np.ndarray
    cum: np.ndarray
    base: float

    def __call__(self, t) -> float | np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.concatenate(([self.base], self.cum))[np.searchsorted(self.xs, t, side="right")]
        return float(out) if t.ndim == 0 else out


@dataclass(frozen=True)
class SteppedCdfBounds:
    """Pointwise marginal CDF envelopes for x and y."""

    lower_f: StepFunction
    upper_f: StepFunction
    lower_g: StepFunction
    upper_g: StepFunction


def _warn_if_tied(name: str, s: np.ndarray) -> None:
    """Warn if the sorted values ``s`` repeat (NaN equals nothing, so never does)."""
    if np.any(s[1:] == s[:-1]):
        _warn(f"tied values in observed {name}; continuing, but the "
              "identification argument assumes continuous data", TiedDataWarning)


def marginal_cdf_bounds(records) -> SteppedCdfBounds:
    """Envelopes bracketing the unknown marginal CDFs.

    The observed part of each margin pins down P(X <= x, X observed)
    exactly; the rows where the coordinate is missing contribute all their
    mass either above x (lower envelope) or below x (upper envelope):

        upper_f(x) = P(X <= x | Z=1) P(Z=1) + P(X <= x | Z=2) P(Z=2)
                     + P(Z=3) + P(Z=4)
        lower_f(x) = P(X <= x | Z=1) P(Z=1) + P(X <= x | Z=2) P(Z=2)

    and symmetrically for y with patterns 2 and 3 exchanged.
    """
    ds = as_dataset(records)
    n, c = len(ds), ds.pattern_counts()
    envelopes = []
    for values, missing in ((ds.x, c[2] + c[3]), (ds.y, c[1] + c[3])):
        knots, counts = np.unique(values[~np.isnan(values)], return_counts=True)
        cum = np.cumsum(counts) / n
        envelopes += [StepFunction(knots, cum, base=0.0),
                      StepFunction(knots, cum + missing / n, base=missing / n)]
    return SteppedCdfBounds(*envelopes)


def envelope_summary(records) -> DistSummary:
    """Worst-case summary over all margins within the CDF envelopes of
    ``records`` (:func:`marginal_cdf_bounds`): the upper envelopes replace
    the margin transforms in m1, m2 and m3, the lower ones in l1. In the
    SEs each row's integrand carries its Hajek projection: the envelopes
    come from the same rows, each adding its indicator to them."""
    ds = as_dataset(records)
    n, z, c = len(ds), ds.z, ds.pattern_counts()
    missing = (c[2] + c[3], c[1] + c[3])
    # per column, n times the lower envelope at each row; these counts and
    # the projection's (below 2n) are exact in int32 for n < 2^30
    ranked, at_or_below = [], []
    for name, values in (("x", ds.x), ("y", ds.y)):
        rows = np.flatnonzero(~np.isnan(values))
        rows = rows[np.argsort(values[rows])].astype(np.int32)
        s = values[rows]
        _warn_if_tied(name, s)
        # runs of equal values: each sorted value's first position, and its count
        starts = np.flatnonzero(np.diff(s, prepend=np.nan) != 0.0)
        run = np.repeat(np.arange(starts.size), np.diff(starts, append=s.size))
        ranked.append((rows, starts[run].astype(np.int32)))
        at_or_below.append(np.zeros(n, np.int32))
        at_or_below[-1][rows] = np.append(starts[1:], s.size)[run]

    # rows whose upper integrand reads F, G; whose lower one reads both (exactly, on n F)
    pat1 = z == 1
    reads_lower = pat1 & (at_or_below[0] + at_or_below[1] > n)
    f_le_g = at_or_below[0] + missing[0] <= at_or_below[1] + missing[1]
    reads_upper = ((z == 2) | pat1 & f_le_g, (z == 3) | pat1 & ~f_le_g)
    # Row j adds 1{x_j missing or x_j <= t} to n F_upper(t), 1{x_j observed,
    # x_j <= t} to n F_lower(t): over the readers i of F at x_i, those with
    # x_i >= x_j if x_j is observed, else all of them (upper) or none (lower).
    shift, term = np.zeros((2, n), np.int32), np.empty(n, np.int32)
    for (rows, first), reads in zip(ranked, reads_upper):
        for k, (readers, if_missing) in enumerate(((reads, np.count_nonzero(reads)),
                                                   (reads_lower, 0))):
            term.fill(if_missing)
            term[rows] = np.cumsum(readers[rows[::-1]], dtype=np.int32)[::-1][first]
            shift[k] += term
    del ranked, reads_upper, reads_lower, term, rows, first, s, run, pat1, f_le_g  # freed

    def inputs(rows):
        lower = tuple(count[rows] / n for count in at_or_below)
        return tuple(a + m / n for a, m in zip(lower, missing)), lower, shift[:, rows]

    return _plug_in(ds, inputs, projected=True)[0]
