"""Exact discordant-pair count by merge-sort inversions, in numpy."""

from __future__ import annotations

import numpy as np

# Below this size inversions are counted directly by broadcasting.
_LEAF = 256


def _inversions(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Count inversions of ``a`` and return its sorted copy."""
    n = a.size
    if n <= _LEAF:
        inv = int(np.triu(a[:, None] > a[None, :], k=1).sum(dtype=np.int64))
        return inv, np.sort(a)
    mid = n // 2
    inv_left, left = _inversions(a[:mid])
    inv_right, right = _inversions(a[mid:])
    # insertion points double as the cross-pair count: an element r of the
    # right half is inverted with every left element strictly above it
    pos = np.searchsorted(left, right, side="left")
    cross = left.size * right.size - int(pos.sum(dtype=np.int64))
    merged = np.empty(n, dtype=a.dtype)
    rpos = pos + np.arange(right.size)
    merged[rpos] = right
    mask = np.ones(n, dtype=bool)
    mask[rpos] = False
    merged[mask] = left
    return inv_left + inv_right + cross, merged


def discordant_by_merge(y_in_x_order: np.ndarray) -> int:
    """Number of discordant pairs, given y values sorted by their x partner."""
    count, _ = _inversions(np.ascontiguousarray(y_in_x_order, dtype=np.float64))
    return count
