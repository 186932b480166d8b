"""Point-cloud and image metrics.

The earth mover's distance between equal-cardinality, uniform-weight
clouds reduces to a minimum-cost perfect assignment, solved exactly.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# earth mover's distance
# ---------------------------------------------------------------------------

def emd_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean matched Euclidean distance between two equal-size clouds."""
    # imported here: only the commands that evaluate pay scipy.optimize's
    # 0.4 s, which on a cold start includes scipy.linalg's 0.3 s
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty point cloud")
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"clouds must share shape, got {a.shape} vs {b.shape}")
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt(np.sum(diff * diff, axis=2))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


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
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


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
