"""Point-cloud and image metrics plus the curve-reconstruction oracle.

The earth mover's distance between equal-cardinality, uniform-weight
clouds reduces to a minimum-cost perfect assignment, solved exactly.
Curve fitting handles the linear families by least squares and the
nonlinear families (unknown gait frequency / swing angle or in-place
timing) by variable projection: the linear coefficients are projected
out, and damped Gauss-Newton steps refine the nonlinear parameters from
32 starts at once, every start's design matrices built and factored as
one stack per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mdcl.motion import CurveModel


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
    rank: int


def _stencil_designs(model: CurveModel, ts: np.ndarray, nonlinear, h: float,
                     shifts) -> list[np.ndarray]:
    """Design matrices at ``ts + s * h`` for each shift, from one call."""
    n = ts.size
    d = model.design_matrix(np.concatenate([ts + s * h for s in shifts]),
                            nonlinear)
    return [d[..., i * n:(i + 1) * n, :] for i in range(len(shifts))]


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
    identifiable from exactly their minimum point count.  A (K, ndim)
    stack of nonlinear vectors gives a (K, m, p) stack of systems that
    share the targets.
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
    return np.concatenate(rows, axis=-2), np.concatenate(y)


def _lin_fit(model: CurveModel, ts: np.ndarray, ys: np.ndarray,
             nonlinear, slope_ts: np.ndarray | None = None,
             inflection_ts: np.ndarray | None = None,
             ) -> tuple[np.ndarray, float, int]:
    a, y = _augmented_system(model, ts, ys, nonlinear, slope_ts, inflection_ts)
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return coef, rms, int(rank)


# Levenberg-Marquardt settings of the multistart fit, which moves _N_STARTS
# starts in lockstep.  Each start stops when a step lowers its cost by no
# more than _LM_FTOL of it, when its damping passes _LM_MAX_DAMPING without
# a step that lowers the cost at all, or after _LM_MAX_ITER trial steps.  A
# step that would leave the parameter box is shortened to _LM_STEP_BACK of
# the way to the bound.
_N_STARTS = 32
_LM_MAX_ITER = 100
_LM_FTOL = 1e-12
_LM_MAX_DAMPING = 1e12
_LM_STEP_BACK = 0.995
_FD_STEP = float(np.sqrt(np.finfo(float).eps))


def _multistart_fit(model: CurveModel, ts: np.ndarray, ys: np.ndarray,
                    slope_ts: np.ndarray | None,
                    inflection_ts: np.ndarray | None):
    """Variable-projection fit of the nonlinear parameters.

    Starts on a low-discrepancy grid over the parameter box and moves all
    starts in lockstep with damped Gauss-Newton (Levenberg-Marquardt)
    steps: one batched residual evaluation per step covers every active
    start's trial point and its forward-difference Jacobian.  The residual
    is the part of the targets outside the design matrix's column space
    (Golub & Pereyra), so only the nonlinear parameters are iterated.
    Steps are solved in coordinates scaled to the parameter box, each
    start damping its own step with a multiple of the identity, and a
    step that would leave the box stops short of the bound: clipping it
    onto the bound instead parks starts in boundary minima.  Exact
    harmonic aliases tie at zero residual; ties resolve to the smallest
    leading (frequency) parameter so the fundamental wins.
    """
    bounds = np.asarray(model.nonlinear_bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    width = hi - lo
    ndim = bounds.shape[0]

    def residuals(thetas: np.ndarray) -> np.ndarray:
        """(K, m) projection residuals ``y - U U^T y``, rank cut as in lstsq."""
        a, y = _augmented_system(model, ts, ys, thetas, slope_ts, inflection_ts)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        keep = s > np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
        coef = np.einsum("kmp,m->kp", u, y) * keep
        return y - np.einsum("kmp,kp->km", u, coef)

    def evaluate(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (K, m) and box-scaled Jacobians (K, ndim, m), one call.

        Forward differences take scipy's "2-point" step, flipped where it
        would cross the upper bound.
        """
        h = _FD_STEP * np.maximum(1.0, np.abs(thetas))
        h = (thetas + np.where(thetas + h > hi, -h, h)) - thetas
        # row 0 is the point itself, row i + 1 its step in parameter i
        points = thetas[:, None, :] + h[:, None, :] * np.eye(ndim + 1, ndim, -1)
        r = residuals(points.reshape(-1, ndim)).reshape(len(thetas), ndim + 1, -1)
        jac = (r[:, 1:] - r[:, :1]) * (width / h)[:, :, None]
        return r[:, 0], jac

    theta = lo + _halton(_N_STARTS, ndim) * width
    r, jac = evaluate(theta)
    cost = 0.5 * np.sum(r * r, axis=1)
    damping = np.full(_N_STARTS, 1e-3)
    active = np.isfinite(cost) & (cost > 0.0)
    for _ in range(_LM_MAX_ITER):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        j, x = jac[idx], theta[idx]
        jtj = j @ np.swapaxes(j, 1, 2)
        grad = np.einsum("kdm,km->kd", j, r[idx])
        mu = damping[idx] * np.maximum(
            np.diagonal(jtj, axis1=1, axis2=2).max(axis=1), np.finfo(float).tiny)
        step = -np.linalg.solve(jtj + mu[:, None, None] * np.eye(ndim),
                                grad[..., None])[..., 0] * width
        room = np.full_like(step, np.inf)
        np.divide(np.where(step > 0, hi - x, lo - x), step, out=room,
                  where=step != 0)
        reach = room.min(axis=1)
        scale = np.where(reach < 1.0, _LM_STEP_BACK * reach, 1.0)
        cand = np.clip(x + scale[:, None] * step, lo, hi)
        r_new, jac_new = evaluate(cand)
        cost_new = 0.5 * np.sum(r_new * r_new, axis=1)
        better = cost_new < cost[idx]
        done = np.where(better, cost[idx] - cost_new <= _LM_FTOL * cost[idx],
                        damping[idx] * 10.0 > _LM_MAX_DAMPING)
        acc = idx[better]
        theta[acc], r[acc], jac[acc] = cand[better], r_new[better], jac_new[better]
        cost[acc] = cost_new[better]
        damping[idx] *= np.where(better, 0.1, 10.0)
        active[idx[done | (cost[idx] == 0.0)]] = False

    rms = np.sqrt(2.0 * cost / r.shape[1])
    finite = np.flatnonzero(np.isfinite(rms))
    if not finite.size:
        raise RuntimeError("nonlinear fit failed from every start")
    tie = 1e-9 * (1.0 + float(np.sqrt(np.mean(ys ** 2))))
    tied = finite[rms[finite] <= rms[finite].min() + tie]
    return min((tuple(float(v) for v in theta[i]) for i in tied),
               key=lambda x: x[0])


def _halton(n: int, dim: int) -> np.ndarray:
    """First ``n`` points of the Halton sequence in ``dim`` <= 4 dimensions,
    equal to ``scipy.stats.qmc.Halton(dim, scramble=False)``'s points 1..n;
    importing scipy.stats would add 0.6 s to every command's start."""
    primes = [2, 3, 5, 7]
    if dim > len(primes):
        raise ValueError(f"Halton starts support at most {len(primes)} "
                         f"nonlinear parameters, got {dim}")
    out = np.empty((n, dim))
    for j, p in enumerate(primes[:dim]):
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


_GRID_POINTS = 4096     # validation grid of a fit


def fit_curve_model(model: CurveModel, ts, kinds=None) -> FitReport:
    """Reconstruct a curve family from samples and validate on a dense grid.

    ``kinds`` optionally tags each sample time ("extremum" samples also
    contribute a zero-slope constraint to nonlinear families).
    """
    ts = np.asarray(ts, dtype=float)
    ys = model.value(ts)
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
    coef, rms, rank = _lin_fit(model, ts, ys, nonlinear, slope_ts, inflection_ts)
    grid = np.linspace(0.0, model.window, _GRID_POINTS)
    truth = model.value(grid)
    fitted = model.design_matrix(grid, nonlinear) @ coef if coef.size else np.zeros_like(grid)
    grid_rms = float(np.sqrt(np.mean((fitted - truth) ** 2)))
    truth_rms = float(np.sqrt(np.mean(truth ** 2)))
    rel = grid_rms / truth_rms if truth_rms > 0 else grid_rms
    return FitReport(coef, tuple(float(v) for v in nonlinear), rms,
                     grid_rms, rel, rank)


@dataclass(frozen=True)
class MncpReport:
    sufficient_at_mncp: bool
    deficient_below: bool | None       # None when deficiency is not forced
    fit: FitReport
    reduced_rank: int | None


def fit_criterion(model: CurveModel) -> tuple[str, float]:
    """The ``FitReport`` field a family's sufficiency verdict compares, and
    its tolerance: the relative grid error for nonlinear families, the
    absolute one for linear families."""
    return ("grid_rms_rel", 1e-4) if model.nonlinear_count else ("grid_rms", 1e-6)


def verify_mncp(model: CurveModel) -> MncpReport:
    """Fit from exactly MNCP selected points; drop one and re-check rank.

    Rank deficiency below MNCP is asserted only where the linear unknown
    count forces it; nonlinear families report fit quality alone.
    """
    detailed = model.keypoints_detailed()
    ts = np.asarray([t for t, _ in detailed], dtype=float)
    kinds = [kind for _, kind in detailed]
    fit = fit_curve_model(model, ts, kinds=kinds)
    field, tol = fit_criterion(model)
    sufficient = bool(fit.rank == model.linear_count and getattr(fit, field) < tol)
    deficient = None
    reduced_rank = None
    if not model.nonlinear_count and model.mncp - 1 < model.linear_count:
        reduced = ts[:-1]
        a = model.design_matrix(reduced)
        reduced_rank = int(np.linalg.matrix_rank(a)) if a.size else 0
        deficient = reduced_rank < model.linear_count
    return MncpReport(sufficient, deficient, fit, reduced_rank)
