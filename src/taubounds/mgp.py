"""Joint laws of (x, y, pattern): logit propensities, simulation, population bounds.

A configuration couples a latent copula pair (U, V) with a multinomial-logit
model for the missingness pattern,

    P[Z = z | x, y] = exp(g[z][0] x + g[z][1] y) / sum_j exp(g[j][0] x + g[j][1] y),

where the covariates (x, y) are either the copula pair itself
(``uniform01``) or its normal scores (``normal_score``). Population bound
values are expectations of the copula-surface integrands weighted by the
propensities; no pattern needs to be drawn for them. Two engines compute
them from one integrand routine: piecewise Gauss-Legendre quadrature
(:func:`population_bounds_quadrature`, deterministic, used by the CLI) and
Monte Carlo (:func:`population_bounds_sweep`, the reference the tests check
the quadrature against). Both cover the whole Gaussian family, rho in
[-1, 1], so the expectations under the Frechet-Hoeffding envelopes M
(rho = 1) and W (rho = -1) come from the same quadrature. Kendall's tau and
the median-quadrant probability of the latent copula are closed forms.

All sampling is performed in fixed-size blocks with counter-based
substreams keyed by (seed, block index), drawn and reduced one block after
another in block order.

scipy is imported by the functions that call it, not at module level, so
that ``analyze`` never loads it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import Decision, TauInterval, _integrands as _bound_integrands, _tau
# kendall_tau and the constrained surfaces are not called here (bounds._integrands
# evaluates the surfaces); the benchmark's traced run still rebinds them
from .concordance import kendall_tau  # noqa: F401
from .copulas import CopulaSpec, check_theta, _rng_for, _sample_with
from .copulas import constrained_lower, constrained_upper  # noqa: F401
from .data import Dataset
from .errors import _warn

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
    "population_bounds_quadrature",
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
    """Pattern probabilities P[Z = . | x, y], pattern-major: shape ``(4,) + x.shape``.

    Overflow-safe (max-logit subtraction); entries are positive and sum
    to 1. Row k is pattern k + 1, so long inputs are reduced across four
    contiguous rows, not along a short last axis. The normaliser is summed
    ((w0 + w1) + w2) + w3, the order in which numpy sums a last axis of
    length 4: every value equals that of the softmax along such an axis.
    """
    xx = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    logits = np.stack([xx * gx + yy * gy for gx, gy in config.gamma])
    logits -= np.maximum(np.maximum(logits[0], logits[1]), np.maximum(logits[2], logits[3]))
    weights = np.exp(logits, out=logits)
    weights /= ((weights[0] + weights[1]) + weights[2]) + weights[3]
    return weights


# ---------------------------------------------------------------------------
# built-in scenarios


@dataclass(frozen=True)
class Scenario:
    """A demonstration configuration with its published target values."""

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
        gamma=((2.0, 2.0), (-5.0, 0.25), (5.0, -0.25), (-5.0, -5.0)),
        rho=-0.999,
        theta=0.4,
        targets={"refined_upper": -0.0108},
        expected_decision=Decision.DEPENDENCE_NEGATIVE,
    ),
    "P2": Scenario(
        gamma=((0.5, 0.5), (3.0, 0.5), (0.5, -2.0), (2.0, 2.0)),
        rho=0.99,
        theta=0.4,
        targets={"refined_lower": 0.034},
        expected_decision=Decision.DEPENDENCE_POSITIVE,
    ),
    "P3": Scenario(
        gamma=((0.5, 0.5), (3.0, 0.5), (0.5, -2.0), (2.0, 2.0)),
        rho=0.0,
        theta=0.4,
        targets={"refined_lower": -0.32, "refined_upper": 0.63},
        expected_decision=Decision.INCONCLUSIVE,
    ),
}


def scenario_manifest() -> dict:
    """Scenario constants in JSON-able form, for audit files."""
    return {name: asdict(sc) | {"expected_decision": sc.expected_decision.value}
            for name, sc in SCENARIOS.items()}


def _as_config(config_or_name) -> MgpConfig:
    if isinstance(config_or_name, MgpConfig):
        return config_or_name
    return SCENARIOS[str(config_or_name)].config()


# ---------------------------------------------------------------------------
# blocked deterministic sampling


def _block_sizes(total: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (total // BLOCK_SIZE)
    if total % BLOCK_SIZE:
        sizes.append(total % BLOCK_SIZE)
    return sizes


def _covariates(u: np.ndarray, v: np.ndarray,
                scale: CovariateScale) -> tuple[np.ndarray, np.ndarray]:
    if scale is CovariateScale.UNIFORM01:
        return u, v
    from scipy import special

    # clip keeps the normal scores finite for u rounded to exactly 0 or 1
    lo, hi = 1e-300, 1.0 - 1e-16
    return special.ndtri(np.clip(u, lo, hi)), special.ndtri(np.clip(v, lo, hi))


def _run_blocks(task, total: int) -> list:
    """Apply ``task(block_index, size)`` to every block; results in block order."""
    return [task(i, m) for i, m in enumerate(_block_sizes(total))]


def _draw_block(config: MgpConfig, seed: int, index: int, size: int):
    """Block ``index`` of the simulation stream: latent pairs ``uv``, the
    covariates (x, y) and the drawn pattern z."""
    rng = _rng_for(int(seed), index)
    uv = _sample_with(rng, config.copula, size)
    t = rng.random(size)
    x, y = _covariates(uv[:, 0], uv[:, 1], config.covariate_scale)
    cum = np.cumsum(propensity(config, x, y)[:3], axis=0)
    z = (1 + (t > cum[0]).astype(np.uint8)
         + (t > cum[1]).astype(np.uint8)
         + (t > cum[2]).astype(np.uint8))
    return uv, x, y, z


def simulate_dataset(config: MgpConfig, n: int, seed: int) -> Dataset:
    """Simulate ``n`` records; masking follows the drawn pattern.

    Deterministic per (config, n, seed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def task(index: int, size: int):
        _, x, y, z = _draw_block(config, seed, index, size)
        x = np.where((z == 1) | (z == 2), x, np.nan)
        y = np.where((z == 1) | (z == 3), y, np.nan)
        return x, y

    parts = _run_blocks(task, int(n))
    return Dataset(np.concatenate([p[0] for p in parts]),
                   np.concatenate([p[1] for p in parts]))


def _simulate_latent(config: MgpConfig, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unmasked draws (u, v, z) of :func:`simulate_dataset`'s stream."""
    parts = _run_blocks(lambda index, size: _draw_block(config, seed, index, size),
                        int(n))
    return (np.concatenate([p[0][:, 0] for p in parts]),
            np.concatenate([p[0][:, 1] for p in parts]),
            np.concatenate([p[3] for p in parts]))


# ---------------------------------------------------------------------------
# population bound values


@dataclass(frozen=True)
class PopulationBounds:
    """Population bound values of a configuration, from one of two engines.

    ``engine`` is ``"quadrature"`` or ``"monte_carlo"``. The ``se_*`` fields
    of the intervals, ``p_z_se`` and ``theta_hat_se`` hold Monte Carlo
    standard errors for the latter, and for the former the quadrature error
    estimate of :func:`population_bounds_quadrature` (times 4 for the tau
    endpoints).
    """

    worst_case: TauInterval
    refined: TauInterval | None
    p_z: np.ndarray
    p_z_se: np.ndarray
    theta: float | None
    theta_hat: float
    theta_hat_se: float
    engine: str


# Lowest threshold of the theta mismatch warning, so that a theta equal to
# the quadrature's theta_hat up to rounding never fires it.
_THETA_MATCH_FLOOR = 1e-12


def _integrands(config: MgpConfig, thetas: list[float], u: np.ndarray,
                v: np.ndarray) -> np.ndarray:
    """Integrands of the population bound values at the latent points (u, v).

    Shape ``(7 + 2 * len(thetas), len(u))``: the (lower, upper) pairs of
    :func:`bounds._integrands` under the propensities, flattened, then the
    four propensities and the median-quadrant indicator. Their expectations
    under the copula are the bound values; both engines average this table.
    """
    x, y = _covariates(u, v, config.covariate_scale)
    pi = propensity(config, x, y)
    return np.concatenate((*_bound_integrands((u, v), (u, v), pi, thetas), pi,
                           [(u <= 0.5) & (v <= 0.5)]))


def _assemble(thetas: list[float], mean: np.ndarray, err: np.ndarray, warn: bool,
              engine: str) -> list[PopulationBounds]:
    """One result per theta (a single one without refined bounds when there
    is no theta) from the expectations of the :func:`_integrands` columns and
    their errors."""
    wc, *at_theta = (_tau(m, 4.0 * e) for m, e in zip(mean[:-5].reshape(-1, 2),
                                                     err[:-5].reshape(-1, 2)))
    theta_hat = float(mean[-1])
    theta_hat_se = float(err[-1])
    out = []
    for j, th in enumerate(thetas or [None]):
        if warn and th is not None \
                and abs(th - theta_hat) > 3.0 * max(theta_hat_se, _THETA_MATCH_FLOOR):
            _warn(f"supplied theta={th} differs from the configuration's "
                  f"median-quadrant probability {theta_hat:.4f} "
                  f"(+/- {theta_hat_se:.1e}); the refined bounds condition on "
                  "side information this configuration does not satisfy",
                  ThetaMismatchWarning)
        out.append(PopulationBounds(
            worst_case=wc,
            refined=None if th is None else at_theta[j],
            p_z=mean[-5:-1].copy(),
            p_z_se=err[-5:-1].copy(),
            theta=th,
            theta_hat=theta_hat,
            theta_hat_se=theta_hat_se,
            engine=engine,
        ))
    return out


# ---------------------------------------------------------------------------
# population bound values by Monte Carlo


def population_bounds_sweep(
    config_or_name,
    thetas,
    draws: int = 10_000_000,
    seed: int = 0,
    warn_on_theta_mismatch: bool = True,
) -> list[PopulationBounds]:
    """Monte Carlo population bounds for several theta values from one set of draws.

    Sharing draws makes the nesting of the refined intervals inside the
    worst-case interval, and their monotonicity in theta, hold exactly
    rather than up to Monte Carlo noise.
    """
    config = _as_config(config_or_name)
    thetas = [check_theta(t) for t in thetas]
    if draws < 10_000:
        raise ValueError(f"draws must be >= 10^4, got {draws}")

    def task(index: int, size: int):
        uv = _sample_with(_rng_for(int(seed), index), config.copula, size)
        table = _integrands(config, thetas, uv[:, 0], uv[:, 1])
        return table.sum(axis=1), (table * table).sum(axis=1)

    parts = _run_blocks(task, int(draws))
    total = np.sum([p[0] for p in parts], axis=0)
    total_sq = np.sum([p[1] for p in parts], axis=0)
    n = float(draws)
    mean = total / n
    variance = np.maximum(total_sq - n * mean**2, 0.0) / (n - 1.0)
    se = np.sqrt(variance / n)
    return _assemble(thetas, mean, se, warn_on_theta_mismatch, "monte_carlo")


def population_bounds(
    config_or_name,
    theta: float | None = None,
    draws: int = 10_000_000,
    seed: int = 0,
    workers=None,
    warn_on_theta_mismatch: bool = True,
) -> PopulationBounds:
    """Monte Carlo population worst-case and (when theta is given) refined bound values.

    Estimates carry Monte Carlo standard errors computed from the per-draw
    integrands, which captures the covariance between the terms of the
    affine formulas exactly. ``workers`` is accepted and ignored.
    """
    thetas = [] if theta is None else [theta]
    return population_bounds_sweep(
        config_or_name, thetas, draws=draws, seed=seed,
        warn_on_theta_mismatch=warn_on_theta_mismatch)[0]


# ---------------------------------------------------------------------------
# population bound values by quadrature

QUADRATURE_NODES = 24
"""Gauss-Legendre nodes per panel in each coordinate. The error estimate
compares the result with the rule of half as many nodes on the same panels."""

_Z_LIMIT = 8.5
"""Both standard-normal coordinates are integrated over [-8.5, 8.5]; the
mass left outside is 4*Phi(-8.5) < 4e-17."""

_PANEL_TOL = 1e-8
"""A strip is refined while halving its nodes changes one of its integrals
by more than this. The Gauss-Legendre error falls so fast with the node
count that the full rule is then far closer (within 1e-13 of the 48-node
rule on P1-P3)."""

_MAX_ROUNDS = 12
"""Refinement rounds before the remaining strips are accepted as they are;
their error still shows in the estimate."""

_MAX_SPLIT = 16
"""Most pieces a w panel is cut into."""

_RIDGE = 0.02
"""Width s = sqrt(1 - rho^2) below which the z range is also cut at s, 4s,
16s, ... (up to 1) on both sides of every point where a kink line crosses
the ridge v = u (rho > 0) or v = 1 - u (rho < 0). The copula's mass lies
within about s of that ridge, so the z integrand turns within about s of
such a point, too narrowly for the nodes of a wide strip to notice. At
s = 0 (rho = +-1) the mass lies on the ridge and the z range is cut at the
crossings alone."""


@functools.cache
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _panel_rule(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on the panels between consecutive
    ``edges`` along the last axis; a zero-width panel gets zero weight."""
    x, w = _legendre(nodes)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    mid = edges[..., :-1, None] + half
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


def _outer_cuts(thetas: list[float]) -> np.ndarray:
    """The u-values where the integrals over v kink."""
    th = np.asarray(thetas, dtype=float)
    return np.concatenate(([0.5], th, 1.0 - th, 0.5 - th, 0.5 + th))


def _z_edges(thetas: list[float], rho: float) -> np.ndarray:
    """The initial strip edges in z: the outer cuts, graded towards the
    ridge crossings when the ridge is narrow and cut at them when it has no
    width (see ``_RIDGE``)."""
    from scipy import special

    u = _outer_cuts(thetas)
    s = math.sqrt(1.0 - rho * rho)
    steps = np.zeros(1)
    if s < _RIDGE:
        # the kink lines of the inner cuts cross the ridge at the outer cuts
        # and, for the lines parallel to the other diagonal, here
        th = np.asarray(thetas, dtype=float)
        extra = [0.75 - th / 2, 0.25 + th / 2] if rho < 0 else [0.5 - th / 2, 0.5 + th / 2]
        u = np.concatenate([u] + extra)
        if s > 0.0:
            steps = np.append(0.0, s * 4.0 ** np.arange(math.ceil(math.log(1.0 / s, 4.0))))
    z = special.ndtri(u[(u > 0.0) & (u < 1.0)])[:, None]
    z = np.concatenate(([-_Z_LIMIT, _Z_LIMIT], (z + steps).ravel(), (z - steps).ravel()))
    return np.unique(np.clip(z, -_Z_LIMIT, _Z_LIMIT))


def _inner_cuts(u: np.ndarray, thetas: list[float]) -> np.ndarray:
    """For each u, the v-values where an integrand kinks; one row per u.

    They are where the Frechet and theta-constrained surfaces switch branch:
    v = u, 1 - u and 1/2 for every surface; theta, 1 - theta, theta + u - 1/2
    and u - theta + 1/2 for the upper one; 1 - theta - u, theta + 1/2,
    1/2 - theta and 1 + theta - u for the lower one (the last where it
    switches between theta and u + v - 1 with both coordinates above 1/2).
    The cuts that do not move with u are the :func:`_outer_cuts`.
    """
    th = np.asarray(thetas, dtype=float)
    uu = u[:, None]
    fixed = _outer_cuts(thetas)
    moving = [uu, 1.0 - uu, th + uu - 0.5, uu - th + 0.5, 1.0 - th - uu, 1.0 + th - uu]
    return np.concatenate([np.broadcast_to(fixed, (len(u), len(fixed)))] + moving, axis=1)


def _w_panels(thetas: list[float]) -> int:
    """Panels in w per z node before any cutting into pieces."""
    return _inner_cuts(np.zeros(1), thetas).shape[1] + 1


def _strip_sums(config: MgpConfig, thetas: list[float], a: np.ndarray, b: np.ndarray,
                split: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Integrals of the :func:`_integrands` columns over the strips a < z < b.

    The coordinates are the sampler's: z and w independent standard normal,
    u = Phi(z) and v = Phi(rho z + sqrt(1 - rho^2) w). Each strip gets
    ``outer`` Gauss-Legendre nodes in z. For each of those, the w range is cut
    where v crosses an inner cut, each panel into ``split`` equal pieces
    (per strip), and each piece gets ``inner`` nodes. At rho = +-1, where v
    does not depend on w, every cut is at w = 0. One row per strip.
    """
    from scipy import special

    rho = config.copula.rho
    s = math.sqrt(1.0 - rho * rho)
    panels = _w_panels(thetas)
    out = np.empty((len(a), 7 + 2 * len(thetas)))
    for m in np.unique(split):
        strips = np.flatnonzero(split == m)
        z, z_weight = _panel_rule(np.column_stack((a[strips], b[strips])), outer)
        z = z.ravel()
        z_weight = z_weight.ravel() * np.exp(-0.5 * z * z) / (2.0 * math.pi)
        by_node = np.empty((len(z), out.shape[1]))
        # about one sampling block of points at a time
        step = max(1, BLOCK_SIZE // (panels * m * inner))
        for lo in range(0, len(z), step):
            zc = z[lo:lo + step]
            u = special.ndtr(zc)
            if s > 0.0:
                w_cuts = (special.ndtri(np.clip(_inner_cuts(u, thetas), 0.0, 1.0))
                          - rho * zc[:, None]) / s
            else:
                w_cuts = np.zeros((len(zc), panels - 1))
            rim = np.full((len(zc), 1), _Z_LIMIT)
            edges = np.concatenate(
                (-rim, np.sort(np.clip(w_cuts, -_Z_LIMIT, _Z_LIMIT), axis=1), rim), axis=1)
            if m > 1:
                steps = np.diff(edges, axis=1)[..., None] * (np.arange(m) / m)
                edges = np.concatenate(
                    ((edges[:, :-1, None] + steps).reshape(len(zc), -1), rim), axis=1)
            w, w_weight = _panel_rule(edges, inner)
            # cuts outside (0, 1) or coinciding leave zero-width panels
            node, piece = np.nonzero(w_weight > 0.0)
            w = w[node, piece]
            weight = z_weight[lo + node] * w_weight[node, piece] * np.exp(-0.5 * w * w)
            v = special.ndtr(rho * zc[node] + s * w)
            cols = _integrands(config, thetas, u[node], v)
            # every node keeps points, as its panels span the whole w range
            starts = np.flatnonzero(np.diff(node, prepend=-1))
            by_node[lo:lo + len(zc)] = np.add.reduceat(cols * weight, starts, axis=1).T
        out[strips] = by_node.reshape(len(strips), outer, -1).sum(axis=1)
    return out


def _exceeds(difference: np.ndarray) -> np.ndarray:
    """Strips where some integral changed by more than ``_PANEL_TOL``."""
    return np.abs(difference).max(axis=1) > _PANEL_TOL


def _quadrature(config: MgpConfig, thetas: list[float]):
    """Expectations of the :func:`_integrands` columns, their error estimate
    and the strips used: ``(mean, err, (a, b, split))``.

    Every rho in [-1, 1] takes this path. The z range is first cut at
    :func:`_z_edges`; at rho = +-1, where the copula's mass lies on a
    diagonal, these are the points where the kink lines cross it. A strip
    whose integrals change by more than ``_PANEL_TOL`` when the nodes in both
    coordinates are halved is refined: its w panels are cut into twice as
    many pieces (up to ``_MAX_SPLIT``) if halving the nodes in w alone
    changes them that much, and it is bisected if halving those in z does,
    or if neither alone does. The estimate is |Q24 - Q12| over the final
    strips plus a bound on the rounding error of the sum (n*eps times the
    value, as every term is nonnegative). Every column shares the strips,
    points and summation order, so inequalities that hold between the
    integrands point by point hold between the results exactly.
    """
    edges = _z_edges(thetas, config.copula.rho)
    a, b = edges[:-1], edges[1:]
    split = np.ones(len(a), dtype=int)
    n, h = QUADRATURE_NODES, QUADRATURE_NODES // 2
    done = []
    for rounds_left in range(_MAX_ROUNDS - 1, -1, -1):
        full = _strip_sums(config, thetas, a, b, split, n, n)
        diff = full - _strip_sums(config, thetas, a, b, split, h, h)
        todo = np.flatnonzero(_exceeds(diff) & (rounds_left > 0))
        if len(todo):
            ta, tb, ts, tf = a[todo], b[todo], split[todo], full[todo]
            in_z = _exceeds(tf - _strip_sums(config, thetas, ta, tb, ts, h, n))
            in_w = _exceeds(tf - _strip_sums(config, thetas, ta, tb, ts, n, h))
            more_w = in_w & (ts < _MAX_SPLIT)
            bisect = in_z | ~in_w
            # a strip that needs more w pieces than allowed stays as it is
            refined = bisect | more_w
            todo, bisect = todo[refined], bisect[refined]
            ts = np.where(more_w, 2 * ts, ts)[refined]
        finished = np.ones(len(a), dtype=bool)
        finished[todo] = False
        done.append((a[finished], b[finished], split[finished], full[finished],
                     diff[finished]))
        if not len(todo):
            break
        ta, tb = a[todo], b[todo]
        mid = 0.5 * (ta + tb)
        a = np.concatenate((ta[~bisect], ta[bisect], mid[bisect]))
        b = np.concatenate((tb[~bisect], mid[bisect], tb[bisect]))
        split = np.concatenate((ts[~bisect], ts[bisect], ts[bisect]))
    a, b, split, full, diff = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(a)
    mean = full[order].sum(axis=0)
    terms = n * n * _w_panels(thetas) * split.sum()
    err = np.abs(diff[order].sum(axis=0)) + terms * np.finfo(float).eps * mean
    return mean, err, (a[order], b[order], split[order])


def population_bounds_quadrature(
    config_or_name,
    thetas=(),
    warn_on_theta_mismatch: bool = True,
) -> list[PopulationBounds]:
    """Population bounds for several theta values by deterministic quadrature.

    Returns one result per theta, or a single result without refined
    bounds when ``thetas`` is empty. Every theta uses the same nodes, so the
    refined intervals are nested in the worst case and monotone in theta
    exactly. The ``se_*`` fields hold the error estimate of the adaptive
    piecewise Gauss-Legendre rule (see :func:`_quadrature`). Any rho in
    [-1, 1] is covered, the comonotone and countermonotone copulas
    included.
    """
    config = _as_config(config_or_name)
    thetas = [check_theta(t) for t in thetas]
    mean, err, _ = _quadrature(config, thetas)
    return _assemble(thetas, mean, err, warn_on_theta_mismatch, "quadrature")


# ---------------------------------------------------------------------------
# closed forms of the latent copula


def true_tau(config_or_name, draws=None, seed=None) -> float:
    """Kendall's tau of the latent pair (before masking), in closed form.

    tau = (2/pi) asin(rho) for the Gaussian copula (Kruskal 1958), so 0, 1
    and -1 for the independence, comonotone and countermonotone copulas.
    ``draws`` and ``seed`` are accepted and ignored.
    """
    return 2.0 * math.asin(_as_config(config_or_name).copula.rho) / math.pi


def median_joint_prob(config_or_name) -> float:
    """The median-quadrant probability C(1/2, 1/2) of the latent copula.

    C(1/2, 1/2) = 1/4 + asin(rho) / (2 pi) for the Gaussian copula (Sheppard
    1899), and so 1/4, 1/2 and 0 for the independence, comonotone and
    countermonotone copulas.
    """
    rho = _as_config(config_or_name).copula.rho
    return 0.25 + math.asin(rho) / (2.0 * math.pi)
