"""Copula bound surfaces, copula samplers, and extremal expectations.

Every bivariate copula C satisfies the pointwise envelope

    max(u + v - 1, 0)  <=  C(u, v)  <=  min(u, v),

attained by the countermonotone and comonotone copulas. When the joint
probability of both variables falling below their medians is known to be
``theta``, the envelope tightens to the constrained surfaces
:func:`constrained_lower` / :func:`constrained_upper`.

Expectations of supermodular integrands over the set of all copulas are
extremised at the envelope copulas; :func:`extremal_expectation` evaluates
those extremes by one-dimensional quadrature along the (anti)diagonal.

scipy is imported by the functions that call it, not at module level, so
that ``analyze`` never loads it.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "CopulaKind",
    "CopulaSpec",
    "constrained_lower",
    "constrained_upper",
    "sample_copula",
    "extremal_expectation",
]


class CopulaKind(enum.Enum):
    COMONOTONE = "comonotone"
    COUNTERMONOTONE = "countermonotone"
    INDEPENDENCE = "independence"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CopulaSpec:
    """A bivariate copula usable for sampling.

    ``rho`` is the correlation of the underlying bivariate normal pair and
    is meaningful only for the Gaussian kind. The endpoints ``rho = +/-1``
    are deliberately excluded; use the comonotone / countermonotone kinds
    for perfectly dependent pairs.
    """

    kind: CopulaKind
    rho: float | None = None

    def __post_init__(self):
        if self.kind is CopulaKind.GAUSSIAN:
            if self.rho is None:
                raise DomainError("Gaussian copula requires rho")
            if not np.isfinite(self.rho) or not -1.0 < self.rho < 1.0:
                raise DomainError(
                    f"rho must lie strictly inside (-1, 1), got {self.rho!r}; "
                    "use the comonotone/countermonotone kinds for the endpoints"
                )
        elif self.rho is not None:
            raise DomainError(f"rho is not meaningful for kind {self.kind.value!r}")

    @staticmethod
    def gaussian(rho: float) -> "CopulaSpec":
        return CopulaSpec(CopulaKind.GAUSSIAN, float(rho))

    @staticmethod
    def comonotone() -> "CopulaSpec":
        return CopulaSpec(CopulaKind.COMONOTONE)

    @staticmethod
    def countermonotone() -> "CopulaSpec":
        return CopulaSpec(CopulaKind.COUNTERMONOTONE)

    @staticmethod
    def independence() -> "CopulaSpec":
        return CopulaSpec(CopulaKind.INDEPENDENCE)


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
    """Draw ``count`` points from ``spec`` using ``rng``; returns a (count, 2) array."""
    if spec.kind is CopulaKind.COMONOTONE:
        t = rng.random(count)
        return np.column_stack((t, t))
    if spec.kind is CopulaKind.COUNTERMONOTONE:
        t = rng.random(count)
        return np.column_stack((t, 1.0 - t))
    if spec.kind is CopulaKind.INDEPENDENCE:
        return rng.random((count, 2))
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


_EXTREMAL_KINDS = (CopulaKind.COMONOTONE, CopulaKind.COUNTERMONOTONE)


def extremal_expectation(
    which: CopulaKind | str,
    integrand: Callable[[float, float], float],
    *,
    tol: float = 1e-9,
    breakpoints: Sequence[float] = (0.5,),
) -> float:
    """Expectation of ``integrand(u, v)`` under an envelope copula.

    The comonotone copula concentrates on the diagonal v = u and the
    countermonotone copula on the antidiagonal v = 1 - u, so the bivariate
    expectation reduces to a one-dimensional integral over u in [0, 1].
    For supermodular integrands these are the maximal and minimal values of
    the expectation over all copulas.

    ``breakpoints`` are interior kink locations passed to the quadrature
    (the envelope surfaces themselves kink at u = 1/2).

    Raises
    ------
    QuadratureError
        If the adaptive rule cannot certify an absolute error below ``tol``.
    """
    kind = CopulaKind(which) if isinstance(which, str) else which
    if kind not in _EXTREMAL_KINDS:
        raise DomainError("extremal expectations are defined for the comonotone "
                          "and countermonotone kinds only")
    if kind is CopulaKind.COMONOTONE:
        def g(t):
            return integrand(t, t)
    else:
        def g(t):
            return integrand(t, 1.0 - t)

    from scipy import integrate

    pts = [p for p in breakpoints if 0.0 < p < 1.0]
    result = integrate.quad(g, 0.0, 1.0, epsabs=tol / 10.0, epsrel=1e-12,
                            points=pts or None, limit=200, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > tol:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}")
    return float(value)
