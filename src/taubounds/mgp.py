"""Joint laws of (x, y, pattern): logit propensities, simulation, population bounds.

A configuration couples a latent copula pair (U, V) with a multinomial-logit
model for the missingness pattern,

    P[Z = z | x, y] = exp(g[z][0] x + g[z][1] y) / sum_j exp(g[j][0] x + g[j][1] y),

where the covariates (x, y) are either the copula pair itself
(``uniform01``) or its normal scores (``normal_score``). Population bound
values are Monte Carlo averages of the copula-surface integrands weighted
by the propensities; no pattern needs to be drawn for them.

All sampling is performed in fixed-size blocks with counter-based
substreams keyed by (seed, block index), so results are bit-identical for
any worker count.
"""

from __future__ import annotations

import enum
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bounds import Decision, IntervalKind, TauInterval
from .concordance import kendall_tau
from .copulas import CopulaSpec, check_theta, constrained_lower, constrained_upper, \
    _rng_for, _sample_with
from .data import Dataset

__all__ = [
    "CovariateScale",
    "MgpConfig",
    "Scenario",
    "SCENARIOS",
    "ThetaMismatchWarning",
    "PopulationBounds",
    "propensity",
    "simulate_dataset",
    "population_bounds",
    "population_bounds_sweep",
    "true_tau",
    "median_joint_prob",
    "scenario_manifest",
]

BLOCK_SIZE = 1 << 18
"""Draws per substream block. Part of the stream layout: changing it
changes every sampled value, so it is fixed."""


class CovariateScale(enum.Enum):
    UNIFORM01 = "uniform01"
    NORMAL_SCORE = "normal_score"


class ThetaMismatchWarning(UserWarning):
    """The supplied theta is far from the configuration's actual median-quadrant mass."""


@dataclass(frozen=True, eq=False)
class MgpConfig:
    """Latent copula plus logit coefficients; defines the full law of (x, y, z).

    ``gamma`` has one row per pattern z = 1..4, columns being the x and y
    coefficients.
    """

    gamma: np.ndarray
    copula: CopulaSpec
    covariate_scale: CovariateScale = CovariateScale.UNIFORM01

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (4, 2):
            raise ValueError(f"gamma must be a 4x2 matrix, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma entries must be finite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


def propensity(config: MgpConfig, x, y) -> np.ndarray:
    """Pattern probabilities P[Z = . | x, y]; last axis has length 4.

    Overflow-safe (max-logit subtraction); entries are positive and sum
    to 1.
    """
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    logits = (xx[..., None] * config.gamma[:, 0]
              + yy[..., None] * config.gamma[:, 1])
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# built-in scenarios


@dataclass(frozen=True)
class Scenario:
    """A named demonstration configuration with its published target values."""

    name: str
    gamma: tuple[tuple[float, float], ...]
    rho: float
    theta: float
    targets: dict[str, float]
    expected_decision: Decision

    def config(self, covariate_scale: CovariateScale = CovariateScale.UNIFORM01) -> MgpConfig:
        return MgpConfig(np.array(self.gamma, dtype=float),
                         CopulaSpec.gaussian(self.rho), covariate_scale)


SCENARIOS: dict[str, Scenario] = {
    "P1": Scenario(
        name="P1",
        gamma=((2.0, 2.0), (-5.0, 0.25), (5.0, -0.25), (-5.0, -5.0)),
        rho=-0.999,
        theta=0.4,
        targets={"refined_upper": -0.0108},
        expected_decision=Decision.DEPENDENCE_NEGATIVE,
    ),
    "P2": Scenario(
        name="P2",
        gamma=((0.5, 0.5), (3.0, 0.5), (0.5, -2.0), (2.0, 2.0)),
        rho=0.99,
        theta=0.4,
        targets={"refined_lower": 0.034},
        expected_decision=Decision.DEPENDENCE_POSITIVE,
    ),
    "P3": Scenario(
        name="P3",
        gamma=((0.5, 0.5), (3.0, 0.5), (0.5, -2.0), (2.0, 2.0)),
        rho=0.0,
        theta=0.4,
        targets={"refined_lower": -0.32, "refined_upper": 0.63},
        expected_decision=Decision.INCONCLUSIVE,
    ),
}


def scenario_manifest() -> dict:
    """Scenario constants in JSON-able form, for audit files."""
    return {
        name: {
            "gamma": [list(row) for row in sc.gamma],
            "rho": sc.rho,
            "theta": sc.theta,
            "targets": dict(sc.targets),
            "expected_decision": sc.expected_decision.value,
        }
        for name, sc in SCENARIOS.items()
    }


def _as_config(config_or_name, covariate_scale=CovariateScale.UNIFORM01) -> MgpConfig:
    if isinstance(config_or_name, MgpConfig):
        return config_or_name
    if isinstance(config_or_name, Scenario):
        return config_or_name.config(covariate_scale)
    return SCENARIOS[str(config_or_name)].config(covariate_scale)


# ---------------------------------------------------------------------------
# blocked deterministic sampling


def _block_sizes(total: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (total // BLOCK_SIZE)
    if total % BLOCK_SIZE:
        sizes.append(total % BLOCK_SIZE)
    return sizes


def _covariates(uv: np.ndarray, scale: CovariateScale) -> tuple[np.ndarray, np.ndarray]:
    u, v = uv[:, 0], uv[:, 1]
    if scale is CovariateScale.UNIFORM01:
        return u, v
    # clip keeps the normal scores finite for u rounded to exactly 0 or 1
    lo, hi = 1e-300, 1.0 - 1e-16
    return special.ndtri(np.clip(u, lo, hi)), special.ndtri(np.clip(v, lo, hi))


def _run_blocks(task, total: int, workers: int) -> list:
    """Apply ``task(block_index, size)`` to every block; results in block order."""
    sizes = _block_sizes(total)
    if workers <= 1:
        return [task(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, i, m) for i, m in enumerate(sizes)]
        return [f.result() for f in futures]


def _draw_block(config: MgpConfig, seed: int, index: int, size: int):
    """Block ``index`` of the simulation stream: latent pairs ``uv``, the
    covariates (x, y) and the drawn pattern z."""
    rng = _rng_for(int(seed), index)
    uv = _sample_with(rng, config.copula, size)
    t = rng.random(size)
    x, y = _covariates(uv, config.covariate_scale)
    cum = np.cumsum(propensity(config, x, y), axis=1)
    z = (1 + (t > cum[:, 0]).astype(np.uint8)
         + (t > cum[:, 1]).astype(np.uint8)
         + (t > cum[:, 2]).astype(np.uint8))
    return uv, x, y, z


def simulate_dataset(config: MgpConfig, n: int, seed: int, workers: int = 1) -> Dataset:
    """Simulate ``n`` records; masking follows the drawn pattern.

    Deterministic per (config, n, seed) for any worker count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def task(index: int, size: int):
        _, x, y, z = _draw_block(config, seed, index, size)
        x = np.where((z == 1) | (z == 2), x, np.nan)
        y = np.where((z == 1) | (z == 3), y, np.nan)
        return x, y

    parts = _run_blocks(task, int(n), workers)
    return Dataset(np.concatenate([p[0] for p in parts]),
                   np.concatenate([p[1] for p in parts]))


def _simulate_latent(config: MgpConfig, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unmasked draws (u, v, z) of :func:`simulate_dataset`'s stream."""
    parts = _run_blocks(lambda index, size: _draw_block(config, seed, index, size),
                        int(n), 1)
    return (np.concatenate([p[0][:, 0] for p in parts]),
            np.concatenate([p[0][:, 1] for p in parts]),
            np.concatenate([p[3] for p in parts]))


# ---------------------------------------------------------------------------
# population bound values by Monte Carlo


@dataclass(frozen=True)
class PopulationBounds:
    """Monte Carlo estimates of the population bound values of a configuration."""

    worst_case: TauInterval
    refined: TauInterval | None
    p_z: np.ndarray
    p_z_se: np.ndarray
    theta: float | None
    theta_hat: float
    theta_hat_se: float
    draws: int
    seed: int


def population_bounds_sweep(
    config_or_name,
    thetas,
    draws: int = 10_000_000,
    seed: int = 0,
    workers: int = 1,
    covariate_scale: CovariateScale = CovariateScale.UNIFORM01,
    warn_on_theta_mismatch: bool = True,
) -> list[PopulationBounds]:
    """Population bounds for several theta values from one set of draws.

    Sharing draws makes the nesting of the refined intervals inside the
    worst-case interval, and their monotonicity in theta, hold exactly
    rather than up to Monte Carlo noise.
    """
    config = _as_config(config_or_name, covariate_scale)
    thetas = [check_theta(t) for t in thetas]
    if draws < 10_000:
        raise ValueError(f"draws must be >= 10^4, got {draws}")

    # statistic columns: wc upper, wc lower, (refined upper, lower) per theta,
    # the four propensities, and the median-quadrant indicator
    k = 2 + 2 * len(thetas) + 4 + 1

    def task(index: int, size: int):
        rng = _rng_for(int(seed), index)
        uv = _sample_with(rng, config.copula, size)
        u, v = uv[:, 0], uv[:, 1]
        x, y = _covariates(uv, config.covariate_scale)
        pi = propensity(config, x, y)
        tail = pi[:, 1] * u + pi[:, 2] * v + pi[:, 3]
        cols = np.empty((size, k))
        cols[:, 0] = np.minimum(u, v) * pi[:, 0] + tail
        cols[:, 1] = np.maximum(u + v - 1.0, 0.0) * pi[:, 0]
        for j, th in enumerate(thetas):
            cols[:, 2 + 2 * j] = constrained_upper(th, u, v) * pi[:, 0] + tail
            cols[:, 3 + 2 * j] = constrained_lower(th, u, v) * pi[:, 0]
        cols[:, -5:-1] = pi
        cols[:, -1] = (u <= 0.5) & (v <= 0.5)
        return cols.sum(axis=0), (cols * cols).sum(axis=0)

    parts = _run_blocks(task, int(draws), workers)
    total = np.sum([p[0] for p in parts], axis=0)
    total_sq = np.sum([p[1] for p in parts], axis=0)
    n = float(draws)
    mean = total / n
    variance = np.maximum(total_sq - n * mean**2, 0.0) / (n - 1.0)
    se = np.sqrt(variance / n)

    def interval(i_upper: int, i_lower: int, kind: IntervalKind) -> TauInterval:
        return TauInterval(4.0 * mean[i_lower] - 1.0, 4.0 * mean[i_upper] - 1.0,
                           kind, se_lower=4.0 * se[i_lower], se_upper=4.0 * se[i_upper])

    wc = interval(0, 1, IntervalKind.WORST_CASE)
    theta_hat = float(mean[-1])
    theta_hat_se = float(se[-1])
    out = []
    for j, th in enumerate(thetas):
        if warn_on_theta_mismatch and abs(th - theta_hat) > 3.0 * max(theta_hat_se, 1e-300):
            warnings.warn(
                f"supplied theta={th} differs from the configuration's "
                f"median-quadrant probability {theta_hat:.4f} "
                f"(+/- {theta_hat_se:.1e}); the refined bounds condition on "
                "side information this configuration does not satisfy",
                ThetaMismatchWarning, stacklevel=2)
        out.append(PopulationBounds(
            worst_case=wc,
            refined=interval(2 + 2 * j, 3 + 2 * j, IntervalKind.REFINED),
            p_z=mean[-5:-1].copy(),
            p_z_se=se[-5:-1].copy(),
            theta=th,
            theta_hat=theta_hat,
            theta_hat_se=theta_hat_se,
            draws=int(draws),
            seed=int(seed),
        ))
    if not thetas:
        out.append(PopulationBounds(wc, None, mean[-5:-1].copy(), se[-5:-1].copy(),
                                    None, theta_hat, theta_hat_se, int(draws), int(seed)))
    return out


def population_bounds(
    config_or_name,
    theta: float | None = None,
    draws: int = 10_000_000,
    seed: int = 0,
    workers: int = 1,
    covariate_scale: CovariateScale = CovariateScale.UNIFORM01,
    warn_on_theta_mismatch: bool = True,
) -> PopulationBounds:
    """Population worst-case and (when theta is given) refined bound values.

    Estimates carry Monte Carlo standard errors computed from the per-draw
    integrands, which captures the covariance between the terms of the
    affine formulas exactly.
    """
    thetas = [] if theta is None else [theta]
    return population_bounds_sweep(
        config_or_name, thetas, draws=draws, seed=seed, workers=workers,
        covariate_scale=covariate_scale,
        warn_on_theta_mismatch=warn_on_theta_mismatch)[0]


def true_tau(config_or_name, draws: int = 1_000_000, seed: int = 0) -> float:
    """Concordance estimate of tau over complete latent pairs (before masking)."""
    if draws < 10_000:
        raise ValueError(f"draws must be >= 10^4, got {draws}")
    config = _as_config(config_or_name)
    parts = []
    for index, size in enumerate(_block_sizes(int(draws))):
        parts.append(_sample_with(_rng_for(int(seed), index), config.copula, size))
    uv = np.concatenate(parts, axis=0)
    return kendall_tau(uv[:, 0], uv[:, 1])


def median_joint_prob(config_or_name, draws: int = 1_000_000, seed: int = 0) -> float:
    """Monte Carlo estimate of the median-quadrant probability C(1/2, 1/2)."""
    if draws < 10_000:
        raise ValueError(f"draws must be >= 10^4, got {draws}")
    config = _as_config(config_or_name)
    hits = 0
    for index, size in enumerate(_block_sizes(int(draws))):
        uv = _sample_with(_rng_for(int(seed), index), config.copula, size)
        hits += int(np.sum((uv[:, 0] <= 0.5) & (uv[:, 1] <= 0.5)))
    return hits / float(draws)
