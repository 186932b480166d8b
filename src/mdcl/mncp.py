"""The minimum-number-of-corner-points (MNCP) claim: the curve families,
their fitter and its verdict, ``verify_mncp``.  Linear families are fitted
by least squares, nonlinear ones by variable projection (``_multistart_fit``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mdcl.activities import activity
from mdcl.motion import curve_keypoints, node_curve
from mdcl.scene import NodeId, SceneParams


# ---------------------------------------------------------------------------
# curve families and minimum corner-point counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveModel:
    """A parametric curve family with its reconstruction bookkeeping.

    ``basis_builder`` maps the nonlinear parameter vector to the list of
    linear basis functions; for purely linear families the nonlinear vector
    is empty.  ``mncp`` is the minimum number of corner points the family
    needs for unique reconstruction.  Key points are searched on the
    ground truth's numeric first derivative of ``value``.
    """

    mncp: int
    nonlinear_truth: tuple[float, ...]
    nonlinear_bounds: tuple[tuple[float, float], ...]
    value: Callable
    basis_builder: Callable
    window: float

    @property
    def linear_count(self) -> int:
        return len(self.basis_builder(self.nonlinear_truth))

    @property
    def nonlinear_count(self) -> int:
        return len(self.nonlinear_truth)

    def design_matrix(self, ts, nonlinear=None) -> np.ndarray:
        """Basis columns at ``ts``: (n, p) for one nonlinear vector (the
        truth when None), or (K, n, p) for a (K, ndim) stack of them; one
        vector is built as a one-row stack."""
        ts = np.asarray(ts, dtype=float)
        single = np.ndim(nonlinear) != 2
        stack = np.atleast_2d(np.asarray(
            self.nonlinear_truth if nonlinear is None else nonlinear, dtype=float))
        # (K, 1) parameters broadcast against the times in every basis
        basis = self.basis_builder(tuple(stack.T[:, :, None]))
        out = np.empty((stack.shape[0], ts.size, len(basis)))
        for j, b in enumerate(basis):
            out[..., j] = b(ts)
        return out[0] if single else out

    def keypoints_detailed(self) -> list[tuple[float, str]]:
        return curve_keypoints(self.value, self.window, self.mncp)



def curve_models(p: SceneParams) -> dict[str, CurveModel]:
    """Instantiate the canonical curve families for a scene.

    Every family is one node's curve in a catalog activity, evaluated by
    ``node_curve`` in free space (the wall shifts the distance axis without
    changing which family a curve belongs to) and searched for key points
    by the ground truth's numeric derivative.  The eight walking families
    are S8's (walking) nodes; the two in-situ families are S5's
    (sitting-down) head, whose key points are all extrema.
    """
    phi = p.gait_frequency
    T = p.window
    t0 = p.in_situ_quarter_time
    free_space = dataclasses.replace(p, wall_path=0.0)

    def const_basis(_):
        return [lambda t: np.ones_like(t)]

    def quad_basis(_):
        return [lambda t: np.ones_like(t), lambda t: t, lambda t: t * t]

    def pend_basis(theta):
        def S(t):
            return np.sin(theta * np.sin(phi * t))

        return lambda _: [
            lambda t: np.ones_like(t),
            lambda t: t,
            lambda t: t ** 2,
            S,
            lambda t: t * S(t),
            lambda t: np.cos(theta * np.sin(phi * t)),
        ]

    def vel_basis(nl):
        w, th = nl
        return [
            lambda t: np.ones_like(t),
            lambda t: np.cos(w * t) ** 2,
            lambda t: np.cos(w * t) * np.cos(th * np.sin(w * t)),
        ]

    def insitu_r2_basis(nl):
        w, ph = nl
        return [
            lambda t: np.ones_like(t),
            lambda t: np.sin(w * t + ph),
            lambda t: np.cos(2.0 * w * t + 2.0 * ph),
        ]

    def insitu_d2_basis(nl):
        w, ph = nl
        return [lambda t: np.ones_like(t), lambda t: np.cos(w * t + ph)]

    walk = activity("S8")
    arm = walk.nodes[NodeId.HAND_L].swing_angle
    leg = walk.nodes[NodeId.FOOT_R].swing_angle
    swing_bounds = ((np.pi, 4 * np.pi), (1e-3, np.pi / 2 - 1e-3))
    # name: (activity, node, kind, mncp, basis builder, nonlinear truth, bounds)
    table = {
        "walk_head_r2": ("S8", NodeId.HEAD, "r2", 3, quad_basis, (), ()),
        "walk_torso_r2": ("S8", NodeId.TORSO, "r2", 3, quad_basis, (), ()),
        "walk_head_d2": ("S8", NodeId.HEAD, "d2", 1, const_basis, (), ()),
        "walk_torso_d2": ("S8", NodeId.TORSO, "d2", 1, const_basis, (), ()),
        "walk_hand_r2": ("S8", NodeId.HAND_L, "r2", 6, pend_basis(arm), (), ()),
        "walk_foot_r2": ("S8", NodeId.FOOT_R, "r2", 6, pend_basis(leg), (), ()),
        "walk_hand_d2": ("S8", NodeId.HAND_L, "d2", 5, vel_basis, (phi, arm),
                         swing_bounds),
        "walk_foot_d2": ("S8", NodeId.FOOT_R, "d2", 5, vel_basis, (phi, leg),
                         swing_bounds),
        "insitu_r2": ("S5", NodeId.HEAD, "r2", 5, insitu_r2_basis,
                      (np.pi / (2.0 * t0), -np.pi / 2.0),
                      ((np.pi / 4.0, 2.0 * np.pi), (-np.pi, np.pi))),
        "insitu_d2": ("S5", NodeId.HEAD, "d2", 5, insitu_d2_basis,
                      (np.pi / t0, -np.pi),
                      ((np.pi / 2.0, 4.0 * np.pi), (-2.0 * np.pi, 2.0 * np.pi))),
    }
    models: dict[str, CurveModel] = {}
    for name, (label, node, kind, mncp, basis, truth, bounds) in table.items():
        value = node_curve(node, free_space, activity(label), kind)
        models[name] = CurveModel(mncp, truth, bounds, value=value,
                                  basis_builder=basis, window=T)
    return models


# ---------------------------------------------------------------------------
# curve fitting and the MNCP verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    coefficients: np.ndarray
    nonlinear: tuple[float, ...]
    residual_rms: float          # at the fit points
    grid_rms: float              # on the validation grid
    grid_rms_rel: float
    rank: int


_STENCILS = {1: (1e-4, (2.0, 1.0, -1.0, -2.0), (-1.0, 8.0, -8.0, 1.0)),
             2: (5e-4, (2.0, 1.0, 0.0, -1.0, -2.0), (-1.0, 16.0, -30.0, 16.0, -1.0))}


def _derivative_design(model: CurveModel, ts: np.ndarray, nonlinear,
                       order: int) -> np.ndarray:
    """Fourth-order finite-difference basis derivative of ``order`` at ``ts``
    from one design matrix: ``_STENCILS`` holds each order's step (a window
    fraction), shifts and weights; the weighted sum is over 12 h^order."""
    step, shifts, weights = _STENCILS[order]
    h = model.window * step
    n = ts.size
    d = model.design_matrix(np.concatenate([ts + s * h for s in shifts]),
                            nonlinear)
    total = weights[0] * d[..., :n, :]
    for i, w in enumerate(weights[1:], start=1):
        total = total + w * d[..., i * n:(i + 1) * n, :]
    return total / (12.0 * h * h ** (order - 1))


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
        rows.append(w * _derivative_design(model, slope_ts, nonlinear, 1))
        y.append(np.zeros(slope_ts.size))
    if inflection_ts is not None and inflection_ts.size:
        rows.append(w * w * _derivative_design(model, inflection_ts, nonlinear, 2))
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
    harmonic aliases tie at zero residual; ``_pick_alias`` resolves ties.
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
    return _pick_alias(theta[finite], rms[finite], tie)


def _pick_alias(theta: np.ndarray, rms: np.ndarray, tie: float) -> tuple[float, ...]:
    """The fit among converged starts ``theta`` (K, ndim) with residual rms
    ``rms``: of those within ``tie`` of the lowest rms, the smallest leading
    (frequency) parameter, so the fundamental wins over its harmonic
    aliases; of those whose frequency equals that one to a relative 1e-9
    (aliases in phase), the lowest rms, the first start on a tie."""
    tied = np.flatnonzero(rms <= rms.min() + tie)
    freq = theta[tied, 0]
    low = freq.min()
    same = tied[freq - low <= 1e-9 * abs(low)]
    return tuple(float(v) for v in theta[same[np.argmin(rms[same])]])


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
    nonlinear = (_multistart_fit(model, ts, ys, slope_ts, inflection_ts)
                 if model.nonlinear_count else ())
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
    criterion: str                     # the FitReport field compared ...
    tolerance: float                   # ... with this tolerance

    @property
    def holds(self) -> bool:
        """MNCP points reconstruct the family, and one fewer does not where forced."""
        return self.sufficient_at_mncp and self.deficient_below in (True, None)


def verify_mncp(model: CurveModel) -> MncpReport:
    """Fit from exactly MNCP selected points; drop one and re-check rank.

    Rank deficiency below MNCP is asserted only where the linear unknown
    count forces it; nonlinear families report fit quality alone.
    """
    detailed = model.keypoints_detailed()
    ts = np.asarray([t for t, _ in detailed], dtype=float)
    kinds = [kind for _, kind in detailed]
    fit = fit_curve_model(model, ts, kinds=kinds)
    # the relative grid error for nonlinear families, the absolute one else
    field, tol = ("grid_rms_rel", 1e-4) if model.nonlinear_count else ("grid_rms", 1e-6)
    sufficient = bool(fit.rank == model.linear_count and getattr(fit, field) < tol)
    deficient = None
    if not model.nonlinear_count and model.mncp - 1 < model.linear_count:
        a = model.design_matrix(ts[:-1])
        deficient = (int(np.linalg.matrix_rank(a)) if a.size else 0) < model.linear_count
    return MncpReport(sufficient, deficient, fit, field, tol)
