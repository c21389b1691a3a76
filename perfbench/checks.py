"""Output checks run outside the timed region on every operation.

Each check returns a list of failure messages; an empty list means the
output passed.  A failed check counts the operation as failed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.coreset import Coreset
from repro.evaluation.distortion import distortion_of_solution

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """A 64-bit key per row from its exact float64 bits."""
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    keys = np.zeros(bits.shape[0], dtype=np.uint64)
    for column in range(bits.shape[1]):
        keys = (keys ^ bits[:, column]) * _MIX
        keys ^= keys >> np.uint64(29)
    return keys


class RowIndex:
    """Finds the input row index of a point by exact equality of its bits."""

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        keys = _row_keys(points)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Input row index of every row, or -1 where the row is not an input row.

        Rows that share a key with several input rows take the first exact
        match; with continuous data two equal input rows do not occur.
        """
        keys = _row_keys(rows)
        slot = np.searchsorted(self._sorted, keys, side="left")
        first = self._order[np.minimum(slot, self._sorted.shape[0] - 1)]
        hit = (self._sorted[np.minimum(slot, self._sorted.shape[0] - 1)] == keys) & np.all(
            self.points[first] == rows, axis=1
        )
        found = np.where(hit, first, -1)
        for index in np.flatnonzero(~hit):
            at = slot[index] + 1
            while at < self._sorted.shape[0] and self._sorted[at] == keys[index]:
                candidate = self._order[at]
                if np.array_equal(self.points[candidate], rows[index]):
                    found[index] = candidate
                    break
                at += 1
        return found


def check_coreset(
    coreset: Coreset,
    *,
    size: int,
    represented: float,
    weight_band: Tuple[float, float],
    rows: RowIndex,
    live: Tuple[int, int],
) -> List[str]:
    """Size, weights, weight-sum band and row membership of one coreset.

    ``represented`` is the number of input points the coreset stands for,
    and ``live`` the ``[start, stop)`` input rows its points must come from.
    """
    failures: List[str] = []
    if coreset.size != size:
        failures.append(f"coreset has {coreset.size} points, requested {size}")
    weights = np.asarray(coreset.weights)
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)):
        failures.append("coreset weights are not all finite and positive")
    ratio = float(weights.sum()) / represented
    low, high = weight_band
    if not low <= ratio <= high:
        failures.append(f"weight-sum ratio {ratio:.4f} outside [{low}, {high}]")
    found = rows.positions(np.asarray(coreset.points))
    start, stop = live
    outside = int(np.count_nonzero((found < start) | (found >= stop)))
    if outside:
        failures.append(f"{outside} coreset rows are not rows of the input rows [{start}, {stop})")
    return failures


def distortion(points: np.ndarray, coreset: Coreset, centers: np.ndarray) -> Tuple[float, List[str]]:
    """The solve's distortion against ``points``, and its check."""
    value = distortion_of_solution(points, coreset, centers).distortion
    if not (np.isfinite(value) and value >= 1.0):
        return value, [f"distortion {value} is not finite and >= 1"]
    return value, []


def check_centers(centers: np.ndarray, coreset: Coreset, k: int) -> List[str]:
    """A k-means answer on ``coreset``: ``k`` finite centers in its bounding box."""
    points = np.asarray(coreset.points)
    if centers.shape != (k, points.shape[1]):
        return [f"centers have shape {centers.shape}, expected {(k, points.shape[1])}"]
    if not np.all(np.isfinite(centers)):
        return ["centers are not all finite"]
    low, high = points.min(axis=0), points.max(axis=0)
    slack = 1e-9 * (np.abs(low) + np.abs(high) + 1.0)  # rounding of a weighted mean
    outside = int(np.count_nonzero(np.any((centers < low - slack) | (centers > high + slack), axis=1)))
    if outside:
        return [f"{outside} centers lie outside the coreset's bounding box"]
    return []


def weight_sum_ratio(coreset: Coreset, represented: float) -> float:
    return float(np.sum(coreset.weights)) / represented


def ess_ratio(coreset: Coreset) -> float:
    """Effective sample size (sum w)^2 / sum w^2 as a share of the coreset size."""
    weights = np.asarray(coreset.weights, dtype=np.float64)
    return float(weights.sum() ** 2 / np.dot(weights, weights)) / coreset.size
