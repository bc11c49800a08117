"""Copula bound surfaces, the Gaussian copula family, and its sampler.

Every bivariate copula C satisfies the pointwise envelope

    max(u + v - 1, 0)  <=  C(u, v)  <=  min(u, v),

attained by the countermonotone and comonotone copulas. When the joint
probability of both variables falling below their medians is known to be
``theta``, the envelope tightens to the constrained surfaces
:func:`constrained_lower` / :func:`constrained_upper`.

The envelope copulas are the rho = 1 and rho = -1 members of the Gaussian
family :class:`CopulaSpec`. Expectations of supermodular integrands over the
set of all copulas are extremised at them; the population engines of
:mod:`taubounds.mgp` evaluate such expectations for every rho in [-1, 1].

scipy is imported by the functions that call it, not at module level, so
that ``analyze`` never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "CopulaSpec",
    "constrained_lower",
    "constrained_upper",
    "sample_copula",
]


@dataclass(frozen=True)
class CopulaSpec:
    """A bivariate Gaussian copula, given by ``rho``, the correlation of the
    underlying normal pair, in [-1, 1].

    The family holds the independence copula (rho = 0) and the
    Frechet-Hoeffding envelopes: the comonotone copula M (rho = 1) and the
    countermonotone copula W (rho = -1).
    """

    rho: float

    def __post_init__(self):
        rho = float(self.rho)
        if not -1.0 <= rho <= 1.0:  # also rejects NaN
            raise DomainError(f"rho must lie in [-1, 1], got {self.rho!r}")
        object.__setattr__(self, "rho", rho)

    @staticmethod
    def gaussian(rho: float) -> "CopulaSpec":
        return CopulaSpec(rho)

    @staticmethod
    def comonotone() -> "CopulaSpec":
        return CopulaSpec(1.0)

    @staticmethod
    def countermonotone() -> "CopulaSpec":
        return CopulaSpec(-1.0)

    @staticmethod
    def independence() -> "CopulaSpec":
        return CopulaSpec(0.0)


def _unit(name: str, a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _maybe_scalar(result: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(x) == 0 for x in inputs):
        return float(result)
    return result


def check_theta(theta: float) -> float:
    """Validate a median-quadrant probability; must lie in [0, 1/2]."""
    th = float(theta)
    if not np.isfinite(th) or not 0.0 <= th <= 0.5:
        raise DomainError(f"theta must lie in [0, 0.5], got {theta!r}")
    return th


def constrained_lower(theta: float, u, v) -> float | np.ndarray:
    """Lower copula envelope under the constraint ``C(1/2, 1/2) = theta``.

    Evaluates ``max(max(u + v - 1, 0), theta - (1/2 - u)^+ - (1/2 - v)^+)``.
    Dominates the lower envelope ``max(u + v - 1, 0)`` pointwise, equals it
    at ``theta = 0``, and equals ``theta`` at the median point (1/2, 1/2).
    """
    out = _lower_surface(check_theta(theta), _unit("u", u), _unit("v", v))
    return _maybe_scalar(out, u, v)


def _lower_surface(th: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # unchecked, as is _upper_surface: the integrands' inputs are checked upstream
    slack = th - np.maximum(0.5 - u, 0.0) - np.maximum(0.5 - v, 0.0)
    return np.maximum(np.maximum(u + v - 1.0, 0.0), slack)


def constrained_upper(theta: float, u, v) -> float | np.ndarray:
    """Upper copula envelope under the constraint ``C(1/2, 1/2) = theta``.

    Evaluates ``min(min(u, v), theta + (u - 1/2)^+ + (v - 1/2)^+)``.
    Is dominated by the upper envelope ``min(u, v)`` pointwise and equals
    it at ``theta = 1/2``.
    """
    out = _upper_surface(check_theta(theta), _unit("u", u), _unit("v", v))
    return _maybe_scalar(out, u, v)


def _upper_surface(th: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    cap = th + np.maximum(u - 0.5, 0.0) + np.maximum(v - 0.5, 0.0)
    return np.minimum(np.minimum(u, v), cap)


def _sample_with(rng: np.random.Generator, spec: CopulaSpec, count: int) -> np.ndarray:
    """Draw ``count`` points from ``spec`` using ``rng``; returns a (count, 2)
    array. At rho = 1 (-1) the second coordinate is Phi(z) = u (Phi(-z))."""
    from scipy import special

    z = rng.standard_normal((count, 2))
    w = spec.rho * z[:, 0] + np.sqrt(1.0 - spec.rho * spec.rho) * z[:, 1]
    return np.column_stack((special.ndtr(z[:, 0]), special.ndtr(w)))


def _rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    # Philox is counter based: substreams keyed by (seed, stream index) are
    # statistically independent and reproducible regardless of scheduling.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed % 2**64, stream]))
    )


def sample_copula(spec: CopulaSpec, count: int, seed: int) -> np.ndarray:
    """Deterministically sample ``count`` points from a copula.

    Parameters
    ----------
    spec : CopulaSpec
        Which copula to draw from.
    count : int
        Number of points, at least 1.
    seed : int
        Seed; identical (spec, count, seed) yield bit-identical output.

    Returns
    -------
    ndarray of shape (count, 2) with both coordinates in [0, 1].
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _sample_with(_rng_for(int(seed)), spec, int(count))

