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
:func:`clip` intersects with [-1, 1] for reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .copulas import check_theta
from .data import Dataset, as_dataset
from .errors import IncoherentIntervalError, InvalidSummaryError

__all__ = [
    "Decision",
    "IntervalKind",
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


class IntervalKind(enum.Enum):
    WORST_CASE = "worst_case"
    REFINED = "refined"


class Decision(enum.Enum):
    DEPENDENCE_POSITIVE = "dependence_positive"
    DEPENDENCE_NEGATIVE = "dependence_negative"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TauInterval:
    """A lower/upper pair for tau with provenance and optional standard errors."""

    lower: float
    upper: float
    kind: IntervalKind
    clipped: bool = False
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
        if self.clipped and (self.lower < -1.0 or self.upper > 1.0):
            raise InvalidSummaryError("clipped interval must lie inside [-1, 1]")

    def width(self) -> float:
        return self.upper - self.lower


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

    ``se`` holds sampling standard errors for (m1, l1, m2, m3) when the
    summary is estimated; ``n`` is the sample size behind the pattern
    frequencies (enables the multinomial part of error propagation).
    Moments of empty patterns are ``None``, never imputed.
    """

    p_z: tuple[float, float, float, float]
    m1: float | None
    l1: float | None
    m2: float | None
    m3: float | None
    se: tuple[float, float, float, float] | None = None
    n: int | None = None

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
        if self.se is not None and len(self.se) != 4:
            raise InvalidSummaryError("se must have exactly 4 entries (m1, l1, m2, m3)")


@dataclass(frozen=True)
class ThetaSummary:
    """A :class:`DistSummary` augmented with constrained pattern-1 moments.

    ``m1_theta`` / ``l1_theta`` are the pattern-1 means of the upper and
    lower constrained surfaces at level ``theta``; ``se`` holds their
    standard errors when estimated.

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


def _multinomial_se(p: np.ndarray, n: int | None) -> np.ndarray:
    if n is None or n <= 0:
        return np.zeros(4)
    return np.sqrt(p * (1.0 - p) / n)


def _propagate(p: np.ndarray, moments: np.ndarray, moment_se: np.ndarray,
               p_se: np.ndarray) -> float:
    # linear error propagation through sum_z moment_z * p_z; an undefined
    # moment SE (single-row pattern, stored as NaN) propagates to NaN, while
    # empty patterns contribute nothing
    ms = np.where(p > 0.0, moment_se, 0.0)
    var = np.sum((p * ms) ** 2) + np.sum((moments * p_se) ** 2)
    return float(4.0 * np.sqrt(var))


def _affine(p: np.ndarray, m1: float, m2: float, m3: float, l1: float) -> tuple[float, float]:
    upper = 4.0 * (m1 * p[0] + m2 * p[1] + m3 * p[2] + p[3]) - 1.0
    lower = 4.0 * l1 * p[0] - 1.0
    return lower, upper


def _interval(kind: IntervalKind, base: DistSummary, m1: float | None,
              l1: float | None, se_1=None) -> TauInterval:
    """The affine map of ``base`` with the pattern-1 moments (m1, l1).

    When ``se_1`` holds the standard errors of (m1, l1), standard errors are
    propagated linearly, those of m2 and m3 taken from ``base`` (zero when
    absent), plus the multinomial contribution of the pattern frequencies
    when ``base.n`` is known.
    """
    p = np.asarray(base.p_z, dtype=float)
    m1, l1, m2, m3 = (v if v is not None else 0.0 for v in (m1, l1, base.m2, base.m3))
    lower, upper = _affine(p, m1, m2, m3, l1)
    se_lower = se_upper = None
    if se_1 is not None:
        se_b = np.asarray(base.se, dtype=float) if base.se is not None else np.zeros(4)
        p_se = _multinomial_se(p, base.n)
        se_upper = _propagate(p, np.array([m1, m2, m3, 1.0]),
                              np.array([se_1[0], se_b[2], se_b[3], 0.0]), p_se)
        se_lower = _propagate(np.array([p[0], 0, 0, 0]), np.array([l1, 0, 0, 0]),
                              np.array([se_1[1], 0, 0, 0]), p_se)
    return TauInterval(lower, upper, kind, se_lower=se_lower, se_upper=se_upper)


def worst_case(summary: DistSummary) -> TauInterval:
    """Worst-case identified set (raw, unclipped) from a summary.

    Exact affine evaluation; when ``summary.se`` is present, standard
    errors are propagated linearly (plus the multinomial contribution of
    the pattern frequencies when ``summary.n`` is known).
    """
    se_1 = summary.se[:2] if summary.se is not None else None
    return _interval(IntervalKind.WORST_CASE, summary, summary.m1, summary.l1, se_1)


def refined(summary: ThetaSummary) -> TauInterval:
    """Median-constrained identified set (raw, unclipped).

    Same affine map as :func:`worst_case` with the pattern-1 moments
    replaced by the constrained-surface means. The result is nested in the
    worst-case interval of the embedded summary, widened by the moment
    tolerance :class:`ThetaSummary` allows, carried through the affine map:
    that class enforces the moment ordering, and the map is monotone in it.
    """
    return _interval(IntervalKind.REFINED, summary.base, summary.m1_theta,
                     summary.l1_theta, summary.se)


def clip(interval: TauInterval) -> TauInterval:
    """Intersect a raw interval with [-1, 1].

    Coherent inputs always intersect (the worst-case interval brackets 0);
    an interval entirely outside [-1, 1] raises
    :class:`IncoherentIntervalError`.
    """
    if interval.lower > 1.0 or interval.upper < -1.0:
        raise IncoherentIntervalError(
            f"interval ({interval.lower}, {interval.upper}) does not meet [-1, 1]")
    return replace(interval, lower=max(interval.lower, -1.0),
                   upper=min(interval.upper, 1.0), clipped=True)


def decide(interval: TauInterval, se_guard: float = 0.0) -> Decision:
    """Partition decision from an interval.

    Dependence is declared positive iff the lower endpoint is strictly
    above zero and negative iff the upper endpoint is strictly below zero;
    anything else is inconclusive. ``se_guard`` widens the interval by
    that many standard errors first (requires the interval to carry SEs);
    the default applies the population rule with no tolerance band.
    """
    lower, upper = interval.lower, interval.upper
    if se_guard:
        if se_guard < 0:
            raise ValueError("se_guard must be nonnegative")
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
    ``xs[i]`` (inclusive) onward. ``terminal`` records the function's value
    at the supremum of the variable's support, which for a lower CDF
    envelope is 1 even though the steps plateau below it.
    """

    xs: np.ndarray
    cum: np.ndarray
    base: float
    terminal: float = 1.0

    def __call__(self, t) -> float | np.ndarray:
        t = np.asarray(t, dtype=float)
        # Searching the keys in sorted order keeps the binary searches in
        # cache; the indices, scattered back through the argsort, are the same.
        keys = t.ravel()
        order = np.argsort(keys)
        idx = np.empty(keys.size, dtype=np.intp)
        idx[order] = np.searchsorted(self.xs, keys[order], side="right")
        out = np.concatenate(([self.base], self.cum))[idx.reshape(t.shape)]
        return float(out) if t.ndim == 0 else out


@dataclass(frozen=True)
class SteppedCdfBounds:
    """Pointwise marginal CDF envelopes for x and y."""

    lower_f: StepFunction
    upper_f: StepFunction
    lower_g: StepFunction
    upper_g: StepFunction


def _envelopes(values: np.ndarray, missing_mass: float, n: int) -> tuple[StepFunction, StepFunction]:
    if values.size:
        xs, counts = np.unique(values, return_counts=True)
        cum = np.cumsum(counts) / n
    else:
        xs = np.empty(0)
        cum = np.empty(0)
    lower = StepFunction(xs, cum, base=0.0)
    upper = StepFunction(xs, cum + missing_mass, base=missing_mass)
    return lower, upper


def marginal_cdf_bounds(records) -> SteppedCdfBounds:
    """Envelopes bracketing the unknown marginal CDFs.

    The observed part of each margin pins down P(X <= x, X observed)
    exactly; the rows where the coordinate is missing contribute all their
    mass either above x (lower envelope) or below x (upper envelope):

        upper_f(x) = P(X <= x | Z=1) P(Z=1) + P(X <= x | Z=2) P(Z=2)
                     + P(Z=3) + P(Z=4)
        lower_f(x) = P(X <= x | Z=1) P(Z=1) + P(X <= x | Z=2) P(Z=2)

    with lower_f jumping to 1 at the supremum of the support (recorded as
    the ``terminal`` attribute), and symmetrically for y with patterns 2
    and 3 exchanged.
    """
    ds = as_dataset(records)
    n = len(ds)
    counts = ds.pattern_counts()
    x_obs = ds.x[~np.isnan(ds.x)]
    y_obs = ds.y[~np.isnan(ds.y)]
    lower_f, upper_f = _envelopes(np.sort(x_obs), (counts[2] + counts[3]) / n, n)
    lower_g, upper_g = _envelopes(np.sort(y_obs), (counts[1] + counts[3]) / n, n)
    return SteppedCdfBounds(lower_f, upper_f, lower_g, upper_g)


def _moment(values: np.ndarray) -> tuple[float | None, float]:
    """Order-independent sample mean and standard error of a transform."""
    m = values.size
    if m == 0:
        return None, math.nan
    s = np.sort(values)
    mean = float(np.sum(s) / m)
    if m == 1:
        return mean, math.nan
    return mean, float(np.std(s, ddof=1) / math.sqrt(m))


def _pattern_summary(ds: Dataset, upper, lower) -> DistSummary:
    """Pattern frequencies and the four bound moments, with standard errors.

    ``upper`` is the pair of transforms (f, g) applied to x and y in the
    upper-bound moments m1, m2, m3; ``lower`` the pair applied in the
    lower-bound moment l1. Moments of empty patterns stay absent.
    """
    n = len(ds)
    (f_up, g_up), (f_lo, g_lo) = upper, lower
    pat1 = ds.z == 1
    x1, y1 = ds.x[pat1], ds.y[pat1]
    m1, se_m1 = _moment(np.minimum(f_up(x1), g_up(y1)))
    l1, se_l1 = _moment(np.maximum(f_lo(x1) + g_lo(y1) - 1.0, 0.0))
    m2, se_m2 = _moment(f_up(ds.x[ds.z == 2]))
    m3, se_m3 = _moment(g_up(ds.y[ds.z == 3]))
    return DistSummary(tuple(ds.pattern_counts() / n), m1, l1, m2, m3,
                       se=(se_m1, se_l1, se_m2, se_m3), n=n)


def envelope_summary(records, cdf_bounds: SteppedCdfBounds) -> DistSummary:
    """Summary with the margin transforms replaced by the CDF envelopes.

    The upper envelopes enter the upper-bound moments (m1, m2, m3) and the
    lower envelopes the lower-bound moment (l1), matching the closed-form
    worst case over all margins admissible under ``cdf_bounds``.
    """
    ds = as_dataset(records)
    return _pattern_summary(ds, (cdf_bounds.upper_f, cdf_bounds.upper_g),
                            (cdf_bounds.lower_f, cdf_bounds.lower_g))

