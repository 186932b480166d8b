"""Point-cloud and image metrics.

The earth mover's distance between equal-cardinality, uniform-weight
clouds reduces to a minimum-cost perfect assignment, solved exactly by
Crouse's shortest augmenting path method ("On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016). ``_assign`` follows the steps and
floating-point order of ``scipy.optimize.linear_sum_assignment``, the tests'
oracle, so it returns the same columns, ties included, without importing
scipy.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# earth mover's distance
# ---------------------------------------------------------------------------

def emd_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean matched Euclidean distance between two equal-size clouds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty point cloud")
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"clouds must share shape, got {a.shape} vs {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt(np.sum(diff * diff, axis=2))
    # a NaN compares false everywhere and would yield a wrong assignment
    if not np.isfinite(cost).all():
        raise ValueError("non-finite distance between the point clouds")
    cols = _assign(cost.tolist())
    return float(cost[np.arange(len(cols)), cols].sum()) / cost.shape[0]


def _assign(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a finite square
    cost matrix (nested lists; plain floats are faster here than numpy
    at n = 30)."""
    n = len(cost)
    u = [0.0] * n                       # row duals
    v = [0.0] * n                       # column duals
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # Dijkstra from cur_row over reduced costs to the nearest free column
        shortest = [math.inf] * n
        scanned_rows = []
        scanned_cols = []
        # descending, so a constant matrix assigns the identity
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # on a tie, prefer a free column: it ends the search
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update
        u[cur_row] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - shortest[j]
        # augment along the path back to cur_row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


# ---------------------------------------------------------------------------
# image metrics
# ---------------------------------------------------------------------------

PSNR_CAP = 99.0


def psnr(img: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of maps normalized to a peak of 1,
    capped at ``PSNR_CAP``."""
    if np.shape(img) != np.shape(ref):
        raise ValueError(f"shape mismatch {np.shape(img)} vs {np.shape(ref)}")
    # one float64 difference, squared in place: the values of widening
    # both maps first, without their two copies
    sq = np.subtract(img, ref, dtype=np.float64)
    mse = float(np.mean(np.square(sq, out=sq)))
    if mse == 0.0:
        return PSNR_CAP
    # libm's log, not numpy's: numpy's float64 log10 rounds by SIMD level
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP)


def add_image_noise(img: np.ndarray, snr_drop_db: float, noise: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Lower an image's SNR by ``snr_drop_db`` with the unit-normal field
    ``noise`` (float64, the image's shape), into ``out`` when given.
    A float32 image is widened to float64 before it is squared or added.

    The field is scaled to power Ps*(10^(drop/10) - 1), Ps being the
    image's mean square, so a zero drop returns the image's values and the
    total power grows by exactly the requested decibels.
    """
    p_sig = float(np.mean(np.square(img, dtype=np.float64)))
    p_noise = p_sig * (10.0 ** (snr_drop_db / 10.0) - 1.0)
    out = np.multiply(noise, np.sqrt(p_noise), out=out)
    out += img
    return out
