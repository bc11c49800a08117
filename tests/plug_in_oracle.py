"""The plug-in reduction as it was written pattern by pattern: one
:func:`taubounds.bounds._integrands` call per pattern and block. Kept as the
oracle that ``tests/test_plug_in.py`` compares the one-pass reduction with,
bit for bit."""

import math

import numpy as np

from taubounds.bounds import DistSummary, ThetaSummary, _integrands


def per_pattern_plug_in(ds, inputs, theta=None, projected=False):
    """Same contract as :func:`taubounds.bounds._plug_in`."""
    thetas = [] if theta is None else [theta]
    n, block = len(ds), 1 << 16  # block: rows per integrand call
    means, parts = [], []  # parts: (rows, mean, variance) of each SE integrand
    for k in range(4):
        rows = np.flatnonzero(ds.z == k + 1)
        pairs = np.empty((1 + len(thetas), 2, rows.size))
        for extra in range(1 + projected):  # the integrands, then with the projection
            for a in range(0, rows.size, block):
                got = inputs(rows[a:a + block])
                pairs[..., a:a + block] = _integrands(*got[:2], (np.arange(4) == k)[:, None],
                                                      thetas)
                if extra:
                    pairs[..., a:a + block] += got[2] / n
            pairs.sort(axis=-1)
            if not extra:
                means.append((pairs.sum(axis=-1) / rows.size).tolist() if rows.size
                             else [[None, None]] * len(pairs))
        if rows.size:
            parts.append((rows.size, pairs.mean(axis=-1), pairs.var(axis=-1)))
    mean = sum(m * mu for m, mu, _ in parts) / n
    squares = sum(m * (var + (mu - mean) ** 2) for m, mu, var in parts)
    se = (4.0 * np.sqrt(squares / (n - 1) / n) if n > 1 else squares * math.nan).tolist()
    (l1, m1), *at_theta = means[0]
    base = DistSummary(tuple(ds.pattern_counts() / n), m1, l1, means[1][0][1], means[2][0][1],
                       se=tuple(se[0]))
    return base if theta is None else ThetaSummary(theta, at_theta[0][1], at_theta[0][0], base,
                                                   se=tuple(se[1]))
