"""Sample Kendall's tau for tie-free continuous data.

The estimate is (concordant - discordant) / C(n, 2). Discordant pairs are
counted exactly, as the merge-sort inversions of y taken in x order
(Knight 1966), in O(n log n).
"""

from __future__ import annotations

import numpy as np

from . import _concordance_py as _kernel
from .errors import TieError

__all__ = ["kendall_tau", "HAVE_COMPILED_KERNEL"]

HAVE_COMPILED_KERNEL = False
"""Always ``False``: the numpy kernel is the only one."""


def _as_xy(points, y) -> tuple[np.ndarray, np.ndarray]:
    if y is None:
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("points must be a sequence of (x, y) pairs")
        return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])
    x = np.ascontiguousarray(points, dtype=float)
    yy = np.ascontiguousarray(y, dtype=float)
    if x.shape != yy.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional arrays of equal length")
    return x, yy


def _reject_ties(name: str, a: np.ndarray) -> None:
    s = np.sort(a)
    dup = s[1:] == s[:-1]
    if dup.any():
        raise TieError(name, float(s[1:][dup][0]))


def kendall_tau(points, y=None) -> float:
    """Kendall rank-correlation estimate in [-1, 1].

    Accepts either an (n, 2) array of pairs or two equal-length 1-d arrays.
    Ties in either coordinate are rejected (the estimate targets continuous
    data), as are samples with fewer than two points.
    """
    x, yy = _as_xy(points, y)
    n = x.size
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(yy))):
        raise ValueError("coordinates must be finite")
    _reject_ties("x", x)
    _reject_ties("y", yy)

    total = n * (n - 1) // 2
    order = np.argsort(x, kind="stable")
    discordant = int(_kernel.discordant_by_merge(yy[order]))
    return (total - 2 * discordant) / total
