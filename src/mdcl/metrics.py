"""Point-cloud and image metrics plus the curve-reconstruction oracle.

The earth mover's distance between equal-cardinality, uniform-weight
clouds reduces to a minimum-cost perfect assignment, solved exactly.
Curve fitting handles the linear families by least squares and the
nonlinear families (unknown gait frequency / swing angle or in-place
timing) by multi-start refinement with variable projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, linear_sum_assignment

from mdcl.motion import CurveModel


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
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


# ---------------------------------------------------------------------------
# image metrics
# ---------------------------------------------------------------------------

PSNR_CAP = 99.0


def psnr(img: np.ndarray, ref: np.ndarray, peak: float = 1.0) -> float:
    img = np.asarray(img, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if img.shape != ref.shape:
        raise ValueError(f"shape mismatch {img.shape} vs {ref.shape}")
    mse = float(np.mean((img - ref) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(peak * peak / mse), PSNR_CAP)


def add_image_noise(img: np.ndarray, snr_drop_db: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Lower an image's SNR by ``snr_drop_db``.

    Gaussian noise with power Ps*(10^(drop/10) - 1) is added, Ps being the
    image's mean square, so a zero drop returns the image untouched and the
    total power grows by exactly the requested decibels.
    """
    if snr_drop_db == 0.0:
        return img.copy()
    p_sig = float(np.mean(img ** 2))
    p_noise = p_sig * (10.0 ** (snr_drop_db / 10.0) - 1.0)
    return img + rng.standard_normal(img.shape) * np.sqrt(p_noise)


# ---------------------------------------------------------------------------
# curve fitting / MNCP verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    coefficients: np.ndarray
    nonlinear: tuple[float, ...]
    residual_rms: float          # at the fit points
    grid_rms: float              # on the validation grid
    grid_rms_rel: float
    condition: float
    rank: int
    sufficient: bool


_RESIDUAL_TOL = 1e-6
_COND_LIMIT = 1e8


def _stencil_designs(model: CurveModel, ts: np.ndarray, nonlinear, h: float,
                     shifts) -> list[np.ndarray]:
    """Design matrices at ``ts + s * h`` for each shift, from one call."""
    n = ts.size
    d = model.design_matrix(np.concatenate([ts + s * h for s in shifts]),
                            nonlinear)
    return [d[i * n:(i + 1) * n] for i in range(len(shifts))]


def _slope_design(model: CurveModel, ts: np.ndarray, nonlinear) -> np.ndarray:
    """Fourth-order finite-difference basis derivative at the given times."""
    h = model.window * 1e-4
    p2, p1, m1, m2 = _stencil_designs(model, ts, nonlinear, h,
                                      (2.0, 1.0, -1.0, -2.0))
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)


def _curvature_design(model: CurveModel, ts: np.ndarray, nonlinear) -> np.ndarray:
    """Fourth-order finite-difference basis second derivative."""
    h = model.window * 5e-4
    p2, p1, z, m1, m2 = _stencil_designs(model, ts, nonlinear, h,
                                         (2.0, 1.0, 0.0, -1.0, -2.0))
    return (-p2 + 16.0 * p1 - 30.0 * z + 16.0 * m1 - m2) / (12.0 * h * h)


def _augmented_system(model: CurveModel, ts: np.ndarray, ys: np.ndarray,
                      nonlinear, slope_ts: np.ndarray | None,
                      inflection_ts: np.ndarray | None = None):
    """Design matrix/targets with derivative rows for tagged samples.

    A key point taken at a curve extremum pins both the value and a zero
    first derivative; an inflection-fallback point pins a zero second
    derivative.  Using this makes the sparse nonlinear families
    identifiable from exactly their minimum point count.
    """
    a = model.design_matrix(ts, nonlinear)
    y = [ys]
    rows = [a]
    w = model.window / (2.0 * np.pi)
    if slope_ts is not None and slope_ts.size:
        rows.append(w * _slope_design(model, slope_ts, nonlinear))
        y.append(np.zeros(slope_ts.size))
    if inflection_ts is not None and inflection_ts.size:
        rows.append(w * w * _curvature_design(model, inflection_ts, nonlinear))
        y.append(np.zeros(inflection_ts.size))
    return np.vstack(rows), np.concatenate(y)


def _lin_fit(model: CurveModel, ts: np.ndarray, ys: np.ndarray,
             nonlinear, slope_ts: np.ndarray | None = None,
             inflection_ts: np.ndarray | None = None,
             ) -> tuple[np.ndarray, float, int, float]:
    a, y = _augmented_system(model, ts, ys, nonlinear, slope_ts, inflection_ts)
    if a.shape[1] == 0 or a.shape[0] == 0:
        rms = float(np.sqrt(np.mean(y ** 2))) if y.size else 0.0
        return np.zeros(a.shape[1]), rms, 0, np.inf
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    gram = a.T @ a
    cond = float(np.linalg.cond(gram)) if rank == a.shape[1] else np.inf
    return coef, rms, int(rank), cond


def _multistart_fit(model: CurveModel, ts: np.ndarray, ys: np.ndarray,
                    slope_ts: np.ndarray | None,
                    inflection_ts: np.ndarray | None, n_starts: int = 32):
    """Variable-projection fit of the nonlinear parameters.

    Starts on a low-discrepancy grid over the parameter box.  Exact
    harmonic aliases tie at zero residual; ties resolve to the smallest
    leading (frequency) parameter so the fundamental wins.
    """
    bounds = np.asarray(model.nonlinear_bounds, dtype=float)
    ndim = bounds.shape[0]

    def residual(theta):
        a, y = _augmented_system(model, ts, ys, theta, slope_ts, inflection_ts)
        coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
        return y - a @ coef

    candidates: list[tuple[float, tuple[float, ...]]] = []
    for g in _halton(n_starts, ndim):
        x0 = bounds[:, 0] + g * (bounds[:, 1] - bounds[:, 0])
        try:
            sol = least_squares(residual, x0, bounds=(bounds[:, 0], bounds[:, 1]),
                                xtol=1e-15, ftol=1e-15, gtol=1e-14)
        except Exception:
            continue
        candidates.append((float(np.sqrt(np.mean(sol.fun ** 2))), tuple(sol.x)))
    if not candidates:
        raise RuntimeError("nonlinear fit failed from every start")
    best_rms = min(rms for rms, _ in candidates)
    tie = 1e-9 * (1.0 + float(np.sqrt(np.mean(ys ** 2))))
    tied = [x for rms, x in candidates if rms <= best_rms + tie]
    return min(tied, key=lambda x: x[0])


def _halton(n: int, dim: int) -> np.ndarray:
    primes = [2, 3, 5, 7][:dim]
    out = np.empty((n, dim))
    for j, p in enumerate(primes):
        seq = []
        for i in range(1, n + 1):
            f, r, x = 1.0, 0.0, i
            while x > 0:
                f /= p
                r += f * (x % p)
                x //= p
            seq.append(r)
        out[:, j] = seq
    return out


def fit_curve_model(model: CurveModel, ts, ys=None, kinds=None,
                    grid_points: int = 4096) -> FitReport:
    """Reconstruct a curve family from samples and validate on a dense grid.

    ``kinds`` optionally tags each sample time ("extremum" samples also
    contribute a zero-slope constraint to nonlinear families).
    """
    ts = np.asarray(ts, dtype=float)
    ys = model.value(ts) if ys is None else np.asarray(ys, dtype=float)
    slope_ts = inflection_ts = None
    if kinds is not None and model.nonlinear_count:
        # linear families fit values alone, keeping rank arguments clean
        slope_ts = np.asarray([t for t, kind in zip(ts, kinds)
                               if kind == "extremum"], dtype=float)
        inflection_ts = np.asarray([t for t, kind in zip(ts, kinds)
                                    if kind == "inflection"], dtype=float)
    if model.nonlinear_count and ts.size >= model.linear_count + model.nonlinear_count:
        nonlinear = _multistart_fit(model, ts, ys, slope_ts, inflection_ts)
    else:
        nonlinear = tuple(model.nonlinear_truth)
    coef, rms, rank, cond = _lin_fit(model, ts, ys, nonlinear,
                                     slope_ts, inflection_ts)
    grid = np.linspace(0.0, model.window, grid_points)
    truth = np.asarray(model.value(grid), dtype=float)
    fitted = model.design_matrix(grid, nonlinear) @ coef if coef.size else np.zeros_like(grid)
    grid_rms = float(np.sqrt(np.mean((fitted - truth) ** 2)))
    truth_rms = float(np.sqrt(np.mean(truth ** 2)))
    rel = grid_rms / truth_rms if truth_rms > 0 else grid_rms
    sufficient = (rank == model.linear_count and rms < _RESIDUAL_TOL * max(1.0, truth_rms)
                  and cond < _COND_LIMIT)
    return FitReport(coef, tuple(float(v) for v in nonlinear), rms,
                     grid_rms, rel, cond, rank, sufficient)


@dataclass(frozen=True)
class MncpReport:
    family: str
    sufficient_at_mncp: bool
    deficient_below: bool | None       # None when deficiency is not forced
    fit: FitReport
    reduced_rank: int | None


def verify_mncp(model: CurveModel) -> MncpReport:
    """Fit from exactly MNCP selected points; drop one and re-check rank.

    Rank deficiency below MNCP is asserted only where the linear unknown
    count forces it; nonlinear families report fit quality alone.
    """
    detailed = model.keypoints_detailed()
    ts = np.asarray([t for t, _ in detailed], dtype=float)
    kinds = [kind for _, kind in detailed]
    fit = fit_curve_model(model, ts, kinds=kinds)
    tol = 1e-6 if not model.nonlinear_count else 1e-4
    metric = fit.grid_rms if not model.nonlinear_count else fit.grid_rms_rel
    sufficient = bool(fit.rank == model.linear_count and metric < tol)
    deficient = None
    reduced_rank = None
    if not model.nonlinear_count and model.mncp - 1 < model.linear_count:
        reduced = ts[:-1]
        a = model.design_matrix(reduced)
        reduced_rank = int(np.linalg.matrix_rank(a)) if a.size else 0
        deficient = reduced_rank < model.linear_count
    return MncpReport(model.family, sufficient, deficient, fit, reduced_rank)
