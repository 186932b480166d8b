"""Closed-form limb-node kinematics.

Every node's squared one-way propagation distance xi^2(t) and squared
radial-model velocity chi^2(t) are evaluated from the motion state the
active activity assigns to it.  The same curves drive both the echo
synthesizer and the analytic ground-truth corner generator, so the two
stay consistent by construction.

Head and torso distances are referenced to the radar height; hand and
foot distances are referenced to the ground, matching the closed forms
of the pendulum curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mdcl.activities import ActivityClass, ActivitySpec, MotionState
from mdcl.scene import ALL_NODES, NodeId, SceneParams


class DegenerateCurveError(ValueError):
    """Raised when a curve cannot supply the requested number of key points."""


# ---------------------------------------------------------------------------
# motion context: effective velocity / geometry for one activity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Context:
    x1: float
    y1: float
    vx: float
    vy: float
    speed: float
    dirx: float
    diry: float
    walk_start: float
    walk_stop: float


def _context(scene: SceneParams, act: ActivitySpec) -> _Context:
    x1, y1 = scene.initial_position
    vx, vy = act.velocity if act.velocity is not None else scene.initial_velocity
    speed = math.hypot(vx, vy)
    if speed > 0:
        dirx, diry = vx / speed, vy / speed
    else:
        dirx, diry = scene.motion_direction()
        if act.velocity is not None:
            # in-place activity: pendulums swing toward the radar
            r = math.hypot(x1, y1)
            dirx, diry = (-x1 / r, -y1 / r) if r > 0 else (-1.0, 0.0)
    t_lo, t_hi = act.walk_span
    return _Context(x1, y1, vx, vy, speed, dirx, diry,
                    t_lo * scene.window, t_hi * scene.window)


def _check_window(t: np.ndarray, T: float):
    if t.size and (t.min() < -1e-12 or t.max() > T + 1e-12):
        raise ValueError(f"t out of observation window [0, {T}]")


def _rest_z_eff(node: NodeId, p: SceneParams) -> float:
    """Vertical offset entering the static distance, per-node reference."""
    if node is NodeId.HEAD:
        return p.torso_upper - p.radar_height + 0.15
    if node is NodeId.TORSO:
        return 0.5 * (p.torso_upper + p.torso_lower) - p.radar_height
    # hands and feet are referenced to the ground
    return p.node_rest_height(node)


def _vertical_ref(node: NodeId, p: SceneParams) -> float:
    return p.radar_height if node in (NodeId.HEAD, NodeId.TORSO) else 0.0


def _pendulum_geometry(node: NodeId, p: SceneParams) -> tuple[float, float]:
    """(limb length, pivot height) for a pendulum node."""
    if node in (NodeId.HAND_L, NodeId.HAND_R):
        return p.arm_length, p.torso_upper
    if node in (NodeId.FOOT_L, NodeId.FOOT_R):
        return p.leg_length, p.torso_lower
    raise ValueError(f"{node} is not a pendulum node")


# ---------------------------------------------------------------------------
# primitive curves
# ---------------------------------------------------------------------------

def _translate_xi_sq(x, y, z_eff, vx, vy, t):
    v_sq = vx * vx + vy * vy
    return v_sq * t * t + 2.0 * (x * vx + y * vy) * t + (x * x + y * y + z_eff * z_eff)


def _pendulum_xi_sq(x, y, vx, vy, dirx, diry, l, h, theta, phi, phase, t):
    # Six-term expansion of the pendulum distance curve.  The
    # swing lever is written with an explicit unit direction so in-place
    # activities (zero body speed) remain well defined; for a moving body
    # it reduces to (2 l^2 / v1) sin(.) (x vx + y vy + v1^2 t).  The
    # half-cycle counterpart limb is modeled by shifting the gait phase
    # (swing angle theta*sin(phi t + phase)), which keeps the limb below
    # its pivot for any phase.
    swing = theta * np.sin(phi * t + phase)
    s = np.sin(swing)
    c = np.cos(swing)
    base = (x * x + y * y + h * h + l * l
            + 2.0 * (x * vx + y * vy) * t + (vx * vx + vy * vy) * t * t)
    lever = 2.0 * l * l * s * ((x * dirx + y * diry) + (vx * dirx + vy * diry) * t)
    return base + lever - 2.0 * h * l * c


def _pendulum_chi_sq(v1, l, theta, phi, phase, t):
    # For phase 0 and pi this matches the two counterpart-limb
    # velocity curves exactly.
    cos_g = np.cos(phi * t + phase)
    swing = theta * np.sin(phi * t + phase)
    return (v1 * v1
            - 2.0 * l * v1 * theta * phi * cos_g * np.cos(swing)
            + l * l * theta * theta * phi * phi * cos_g * cos_g)


def _vertical_xi_sq(x, y, z_center, ref, delta, t0, sign, s):
    r_off = z_center - ref
    u = np.pi * (s - t0) / (2.0 * t0)
    return (x * x + y * y + r_off * r_off + delta * delta / 8.0
            + sign * delta * r_off * np.sin(u)
            - (delta * delta / 8.0) * np.cos(2.0 * u))


def _vertical_chi_sq(delta, t0, s):
    return (np.pi / (32.0 * t0 * t0)) * delta * delta * (
        1.0 + np.cos(np.pi * (s - t0) / t0))


# ---------------------------------------------------------------------------
# node curve evaluation
# ---------------------------------------------------------------------------

def _walk_phase_xi_sq(node, motion, p, ctx, s, x0, y0):
    """Distance during a translation phase starting at (x0, y0), local time s."""
    if motion.swing_angle is not None and motion.state in (
            MotionState.PENDULUM, MotionState.SUDDEN_ACCEL):
        l, h = _pendulum_geometry(node, p)
        return _pendulum_xi_sq(x0, y0, ctx.vx, ctx.vy, ctx.dirx, ctx.diry,
                               l, h, motion.swing_angle, p.gait_frequency,
                               motion.phase, s)
    return _translate_xi_sq(x0, y0, _rest_z_eff(node, p), ctx.vx, ctx.vy, s)


def _vertical_phase_xi_sq(node, motion, p, ctx, s, x0, y0, span_len, full_cycle):
    drop = motion.drop if motion.drop is not None else p.in_situ_height_drop
    sign = 1.0 if motion.rise_first else -1.0
    z_top = p.node_rest_height(node)
    z_center = z_top - 0.5 * drop
    ref = _vertical_ref(node, p)
    if full_cycle:
        t0 = p.in_situ_quarter_time
    else:
        # monotone half-cycle filling the episode span
        t0 = 0.5 * span_len
    return _vertical_xi_sq(x0, y0, z_center, ref, drop, t0, sign, s)


def _vertical_phase_chi_sq(motion, p, s, span_len, full_cycle):
    drop = motion.drop if motion.drop is not None else p.in_situ_height_drop
    t0 = p.in_situ_quarter_time if full_cycle else 0.5 * span_len
    return _vertical_chi_sq(drop, t0, s)


def node_distance_sq(node: NodeId, p: SceneParams, act: ActivitySpec, t):
    """Squared one-way propagation distance xi^2(t) in m^2.

    ``t`` may be a scalar or array inside [0, window].  In through-wall
    scenes (``p.through_wall``) the refraction path is added to the
    unsquared distance before squaring.  Inactive nodes answer with their
    static initial-pose distance.
    """
    t_arr = np.asarray(t, dtype=float)
    _check_window(t_arr, p.window)
    ctx = _context(p, act)
    motion = act.node(node)
    out = _xi_sq_free(node, motion, p, ctx, act, t_arr)
    wall = p.wall.extra_path if p.through_wall else 0.0
    if wall > 0.0:
        out = (np.sqrt(out) + wall) ** 2
    if np.ndim(t) == 0:
        return float(out)
    return out


def _xi_sq_free(node, motion, p, ctx, act, t):
    if motion.state is MotionState.INACTIVE:
        z = _rest_z_eff(node, p)
        return np.full_like(t, ctx.x1 ** 2 + ctx.y1 ** 2 + z * z)

    if act.activity_class is ActivityClass.COMBINATION:
        return _combo_eval(node, motion, p, ctx, t, want="xi")

    if motion.state is MotionState.SUDDEN_ACCEL:
        return _vertical_phase_xi_sq(node, motion, p, ctx, t, ctx.x1, ctx.y1,
                                     p.window, full_cycle=True)
    return _walk_phase_xi_sq(node, motion, p, ctx, t, ctx.x1, ctx.y1)


def node_velocity_sq(node: NodeId, p: SceneParams, act: ActivitySpec,
                     t, *, exact: bool = False):
    """Squared radial-model velocity chi^2(t) in (m/s)^2.

    Head/torso use the constant approximation by default; ``exact=True``
    adds the vertical micro-undulation rate (alpha*phi*cos(phi t))^2.
    """
    t_arr = np.asarray(t, dtype=float)
    _check_window(t_arr, p.window)
    ctx = _context(p, act)
    motion = act.node(node)
    out = _chi_sq(node, motion, p, ctx, act, t_arr, exact)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _chi_sq(node, motion, p, ctx, act, t, exact):
    if motion.state is MotionState.INACTIVE:
        return np.zeros_like(t)

    if act.activity_class is ActivityClass.COMBINATION:
        return _combo_eval(node, motion, p, ctx, t, want="chi", exact=exact)

    if motion.state is MotionState.SUDDEN_ACCEL:
        return _vertical_phase_chi_sq(motion, p, t, p.window, full_cycle=True)
    return _walk_phase_chi_sq(node, motion, p, ctx, t, exact)


def _walk_phase_chi_sq(node, motion, p, ctx, s, exact):
    if motion.swing_angle is not None and motion.state in (
            MotionState.PENDULUM, MotionState.SUDDEN_ACCEL):
        l, _ = _pendulum_geometry(node, p)
        return _pendulum_chi_sq(ctx.speed, l, motion.swing_angle,
                                p.gait_frequency, motion.phase, s)
    base = np.full_like(s, ctx.vx ** 2 + ctx.vy ** 2)
    if exact and node in (NodeId.HEAD, NodeId.TORSO):
        und = p.undulation_amplitude * p.gait_frequency * np.cos(p.gait_frequency * s)
        base = base + und * und
    return base


def _combo_eval(node, motion, p, ctx, t, want, exact=False):
    """Piecewise evaluation for combination activities.

    The body walks inside the walking span; outside it the node follows
    its vertical episode with clamped local time, so the pose holds still
    before the episode starts and after it ends.
    """
    span_lo = motion.span[0] * p.window
    span_hi = motion.span[1] * p.window
    span_len = span_hi - span_lo
    walk_first = ctx.walk_start < span_lo

    # body position at the start of each phase
    if walk_first:
        x_vert = ctx.x1 + ctx.vx * (ctx.walk_stop - ctx.walk_start)
        y_vert = ctx.y1 + ctx.vy * (ctx.walk_stop - ctx.walk_start)
    else:
        x_vert, y_vert = ctx.x1, ctx.y1
    x_walk, y_walk = ctx.x1, ctx.y1

    in_walk = (t >= ctx.walk_start) & (t < ctx.walk_stop)
    if ctx.walk_stop >= p.window - 1e-12:   # walking runs to the window edge
        in_walk = t >= ctx.walk_start
    s_vert = np.clip(t - span_lo, 0.0, span_len)
    s_walk = np.clip(t - ctx.walk_start, 0.0, ctx.walk_stop - ctx.walk_start)

    if want == "xi":
        vert = _vertical_phase_xi_sq(node, motion, p, ctx, s_vert, x_vert, y_vert,
                                     span_len, full_cycle=False)
        walk = _walk_phase_xi_sq(node, motion, p, ctx, s_walk, x_walk, y_walk)
    else:
        vert = _vertical_phase_chi_sq(motion, p, s_vert, span_len, full_cycle=False)
        walk = _walk_phase_chi_sq(node, motion, p, ctx, s_walk, exact)
    return np.where(in_walk, walk, vert)


def node_distance(node: NodeId, p: SceneParams, act: ActivitySpec, t):
    """One-way distance xi(t) in meters."""
    return np.sqrt(node_distance_sq(node, p, act, t))


def distance_slope_sign(node: NodeId, p: SceneParams, act: ActivitySpec, t):
    """Sign of d(xi^2)/dt, used to place velocity points on the signed
    Doppler axis.  Ties resolve to +1."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    h = min(1e-5, p.window * 1e-6)
    lo = np.clip(t_arr - h, 0.0, p.window)
    hi = np.clip(t_arr + h, 0.0, p.window)
    d = (node_distance_sq(node, p, act, hi) - node_distance_sq(node, p, act, lo))
    sign = np.where(d < 0, -1.0, 1.0)
    if np.ndim(t) == 0:
        return float(sign[0])
    return sign


# ---------------------------------------------------------------------------
# key-point selection
# ---------------------------------------------------------------------------

_GRID = 4096
_BISECT_TOL = 1e-9
_DISTINCT_TOL = 1e-6


def _numeric_derivative(fn: Callable, T: float) -> Callable:
    h = T * 2.5e-7

    def deriv(t):
        t = np.asarray(t, dtype=float)
        lo = np.clip(t - h, 0.0, T)
        hi = np.clip(t + h, 0.0, T)
        return (fn(hi) - fn(lo)) / (hi - lo)

    return deriv


def _scan_zeros(fn: Callable, T: float, grid: int = _GRID) -> list[float]:
    """Interior zeros of fn on (0, T): sign-change scan plus bisection."""
    ts = np.linspace(0.0, T, grid + 1)
    vals = np.asarray(fn(ts), dtype=float)
    zeros: list[float] = []
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    for i in sign_change:
        a, b = ts[i], ts[i + 1]
        fa = vals[i]
        while b - a > _BISECT_TOL:
            m = 0.5 * (a + b)
            fm = float(fn(m))
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0:
                b = m
            else:
                a, fa = m, fm
        zeros.append(0.5 * (a + b))
    # isolated exact zeros on the grid (skip flat stretches)
    exact = np.nonzero(vals == 0.0)[0]
    for i in exact:
        if 0 < i < grid and vals[i - 1] != 0.0 and vals[i + 1] != 0.0:
            zeros.append(float(ts[i]))
    zeros = [z for z in sorted(zeros) if _DISTINCT_TOL < z < T - _DISTINCT_TOL]
    return _dedupe(zeros)


def _dedupe(ts: Sequence[float]) -> list[float]:
    out: list[float] = []
    for v in ts:
        if not out or v - out[-1] > _DISTINCT_TOL:
            out.append(v)
    return out


def _spread_subset(candidates: list[float], n: int) -> list[float]:
    """Spread ``n`` picks over the candidate list, skewed off-center.

    The picks keep the first and last candidates but skip one interior
    linspace slot, which avoids mirror-symmetric subsets (t and T - t
    pairs); those would leave the even periodic velocity curves
    unidentifiable from their key points.
    """
    if len(candidates) <= n:
        return list(candidates)
    slots = np.round(np.linspace(0, len(candidates) - 1, n + 1)).astype(int)
    idx = np.unique(np.delete(slots, 1))
    picked = [candidates[i] for i in idx]
    k = 0
    while len(picked) < n and k < len(candidates):
        if candidates[k] not in picked:
            picked.append(candidates[k])
        k += 1
    return sorted(picked[:n]) if len(picked) > n else sorted(picked)


def select_keypoints_detailed(value: Callable, T: float, count: int,
                              derivative: Callable | None = None,
                              ) -> list[tuple[float, str]]:
    """Pick ``count`` strictly increasing sample times on [0, T].

    Always includes the window edges (when count >= 2); interior points are
    first-derivative zeros, then second-derivative zeros, then an
    equispaced fill.  Each time is tagged with how it was chosen
    ("edge", "extremum", "inflection", "fill").
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return [(0.0, "edge")]
    if T <= 0:
        raise DegenerateCurveError("empty observation window")
    deriv = derivative if derivative is not None else _numeric_derivative(value, T)
    chosen: list[tuple[float, str]] = [(0.0, "edge"), (T, "edge")]
    need = count - 2
    if need > 0:
        zeros1 = _scan_zeros(deriv, T)
        picked = [(t, "extremum") for t in _spread_subset(zeros1, need)]
        if len(picked) < need:
            second = _numeric_derivative(deriv, T)
            near = [t for t, _ in picked]
            zeros2 = [z for z in _scan_zeros(second, T)
                      if all(abs(z - q) > 1e-4 * T for q in near)]
            picked += [(t, "inflection")
                       for t in _spread_subset(zeros2, need - len(picked))]
        if len(picked) < need:
            fill = _equispaced_fill([t for t, _ in picked], T,
                                    need - len(picked))
            picked += [(t, "fill") for t in fill]
        chosen += sorted(picked)[:need]
    chosen.sort()
    deduped: list[tuple[float, str]] = []
    for t, kind in chosen:
        if not deduped or t - deduped[-1][0] > _DISTINCT_TOL:
            deduped.append((t, kind))
    if len(deduped) < count:
        raise DegenerateCurveError(
            f"could not find {count} distinct key points on [0, {T}]")
    return deduped


def select_keypoints(value: Callable, T: float, count: int,
                     derivative: Callable | None = None) -> list[float]:
    """Key-point times only; see select_keypoints_detailed."""
    return [t for t, _ in select_keypoints_detailed(value, T, count, derivative)]


def _equispaced_fill(existing: list[float], T: float, n: int) -> list[float]:
    out: list[float] = []
    m = n
    while len(out) < n and m < 64 * (n + 2):
        grid = np.linspace(0.0, T, m + 2)[1:-1]
        out = [g for g in grid
               if all(abs(g - e) > _DISTINCT_TOL for e in existing)][:n]
        m += 1
    return out


# ---------------------------------------------------------------------------
# curve families and minimum corner-point counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveModel:
    """A parametric curve family with its reconstruction bookkeeping.

    ``basis_builder`` maps the nonlinear parameter vector to the list of
    linear basis functions; for purely linear families the nonlinear vector
    is empty.  ``mncp`` is the minimum number of corner points the family
    needs for unique reconstruction.
    """

    family: str
    kind: str                      # "r2" or "d2"
    mncp: int
    linear_count: int
    nonlinear_names: tuple[str, ...]
    nonlinear_truth: tuple[float, ...]
    nonlinear_bounds: tuple[tuple[float, float], ...]
    value: Callable
    basis_builder: Callable
    window: float
    derivative: Callable | None = None

    @property
    def nonlinear_count(self) -> int:
        return len(self.nonlinear_names)

    def basis(self, nonlinear: Sequence[float] | None = None) -> list[Callable]:
        params = tuple(self.nonlinear_truth if nonlinear is None else nonlinear)
        return self.basis_builder(params)

    def design_matrix(self, ts, nonlinear=None) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        cols = [np.broadcast_to(np.asarray(b(ts), dtype=float), ts.shape)
                for b in self.basis(nonlinear)]
        return np.column_stack(cols) if cols else np.zeros((ts.size, 0))

    def keypoints_detailed(self, count: int | None = None) -> list[tuple[float, str]]:
        return select_keypoints_detailed(self.value, self.window,
                                         self.mncp if count is None else count,
                                         derivative=self.derivative)


def groundtruth_counts(activity_class: ActivityClass) -> dict[str, list[int]]:
    """Per-node key-point allocation used for the 30-point ground truth.

    The walking-class Doppler table sums to 22; the extra 8 points are
    spread over the four pendulum nodes so every cloud carries exactly 30.
    Combination activities use the uniform in-place allocation.
    """
    if activity_class is ActivityClass.WALKING:
        return {"r2": [3, 3, 6, 6, 6, 6], "d2": [1, 1, 7, 7, 7, 7]}
    return {"r2": [5] * 6, "d2": [5] * 6}


def curve_models(p: SceneParams) -> dict[str, CurveModel]:
    """Instantiate the canonical curve families for a scene.

    Distance families are built in free space; the wall shifts the distance
    axis without changing which family a curve belongs to.
    """
    x1, y1 = p.initial_position
    vx, vy = p.initial_velocity
    v1 = p.speed
    phi = p.gait_frequency
    T = p.window
    models: dict[str, CurveModel] = {}

    def quad_basis(_):
        return [lambda t: np.ones_like(t), lambda t: t, lambda t: t * t]

    z_head = p.torso_upper - p.radar_height + 0.15
    models["walk_head_r2"] = CurveModel(
        "walk_head_r2", "r2", 3, 3, (), (), (),
        value=lambda t: _translate_xi_sq(x1, y1, z_head, vx, vy, np.asarray(t, float)),
        basis_builder=quad_basis, window=T,
        derivative=lambda t: 2.0 * (vx * vx + vy * vy) * np.asarray(t, float)
        + 2.0 * (x1 * vx + y1 * vy),
    )
    z_torso = 0.5 * (p.torso_upper + p.torso_lower) - p.radar_height
    models["walk_torso_r2"] = CurveModel(
        "walk_torso_r2", "r2", 3, 3, (), (), (),
        value=lambda t: _translate_xi_sq(x1, y1, z_torso, vx, vy, np.asarray(t, float)),
        basis_builder=quad_basis, window=T,
        derivative=lambda t: 2.0 * (vx * vx + vy * vy) * np.asarray(t, float)
        + 2.0 * (x1 * vx + y1 * vy),
    )

    const = v1 * v1
    for name in ("walk_head_d2", "walk_torso_d2"):
        models[name] = CurveModel(
            name, "d2", 1, 1, (), (), (),
            value=lambda t, c=const: np.full_like(np.asarray(t, float), c),
            basis_builder=lambda _: [lambda t: np.ones_like(t)],
            window=T,
        )

    dirx, diry = _unit(vx, vy, x1, y1)
    lever_a = x1 * dirx + y1 * diry
    lever_b = vx * dirx + vy * diry
    for name, (l, h, theta) in {
        "walk_hand_r2": (p.arm_length, p.torso_upper, p.arm_max_angle),
        "walk_foot_r2": (p.leg_length, p.torso_lower, p.leg_max_angle),
    }.items():
        def pend_basis(nl, _l=l, _th=theta):
            def S(t, th=_th):
                return np.sin(th * np.sin(phi * np.asarray(t, float)))

            return [
                lambda t: np.ones_like(np.asarray(t, float)),
                lambda t: np.asarray(t, float),
                lambda t: np.asarray(t, float) ** 2,
                S,
                lambda t: np.asarray(t, float) * S(t),
                lambda t: np.cos(_th * np.sin(phi * np.asarray(t, float))),
            ]

        def pend_r2_deriv(t, _l=l, _h=h, _th=theta):
            t = np.asarray(t, float)
            swing = _th * np.sin(phi * t)
            s, c = np.sin(swing), np.cos(swing)
            rate = _th * phi * np.cos(phi * t)
            return (2.0 * (x1 * vx + y1 * vy) + 2.0 * (vx * vx + vy * vy) * t
                    + 2.0 * _l * _l * (c * rate * (lever_a + lever_b * t)
                                       + s * lever_b)
                    + 2.0 * _h * _l * s * rate)

        models[name] = CurveModel(
            name, "r2", 6, 6, (), (), (),
            value=lambda t, _l=l, _h=h, _th=theta: _pendulum_xi_sq(
                x1, y1, vx, vy, dirx, diry, _l, _h, _th, phi, 0.0,
                np.asarray(t, float)),
            basis_builder=pend_basis, window=T, derivative=pend_r2_deriv,
        )

    for name, (l, theta) in {
        "walk_hand_d2": (p.arm_length, p.arm_max_angle),
        "walk_foot_d2": (p.leg_length, p.leg_max_angle),
    }.items():
        def vel_basis(nl):
            w, th = nl

            return [
                lambda t: np.ones_like(np.asarray(t, float)),
                lambda t: np.cos(w * np.asarray(t, float)) ** 2,
                lambda t: np.cos(w * np.asarray(t, float))
                * np.cos(th * np.sin(w * np.asarray(t, float))),
            ]

        def pend_d2_deriv(t, _l=l, _th=theta):
            t = np.asarray(t, float)
            sin_g, cos_g = np.sin(phi * t), np.cos(phi * t)
            swing = _th * sin_g
            return (2.0 * _l * v1 * _th * phi * phi
                    * (sin_g * np.cos(swing) + _th * cos_g * cos_g * np.sin(swing))
                    - 2.0 * _l * _l * _th * _th * phi ** 3 * sin_g * cos_g)

        models[name] = CurveModel(
            name, "d2", 5, 3, ("phi", "theta"), (phi, theta),
            ((np.pi, 4 * np.pi), (1e-3, np.pi / 2 - 1e-3)),
            value=lambda t, _l=l, _th=theta: _pendulum_chi_sq(
                v1, _l, _th, phi, 0.0, np.asarray(t, float)),
            basis_builder=vel_basis, window=T, derivative=pend_d2_deriv,
        )

    t0 = p.in_situ_quarter_time
    omega = np.pi / (2.0 * t0)
    psi = -omega * t0
    z_center = p.torso_upper - 0.5 * p.in_situ_height_drop

    def insitu_r2_basis(nl):
        w, ph = nl
        return [
            lambda t: np.ones_like(np.asarray(t, float)),
            lambda t: np.sin(w * np.asarray(t, float) + ph),
            lambda t: np.cos(2.0 * w * np.asarray(t, float) + 2.0 * ph),
        ]

    drop = p.in_situ_height_drop
    r_off = z_center - p.radar_height

    def insitu_r2_deriv(t):
        u = omega * np.asarray(t, float) + psi
        return omega * (drop * r_off * np.cos(u)
                        + (drop * drop / 4.0) * np.sin(2.0 * u))

    models["insitu_r2"] = CurveModel(
        "insitu_r2", "r2", 5, 3, ("omega", "psi"), (omega, psi),
        ((np.pi / 4.0, 2.0 * np.pi), (-np.pi, np.pi)),
        value=lambda t: _vertical_xi_sq(
            x1, y1, z_center, p.radar_height, drop, t0, 1.0,
            np.asarray(t, float)),
        basis_builder=insitu_r2_basis, window=T, derivative=insitu_r2_deriv,
    )

    def insitu_d2_basis(nl):
        w, ph = nl
        return [
            lambda t: np.ones_like(np.asarray(t, float)),
            lambda t: np.cos(w * np.asarray(t, float) + ph),
        ]

    def insitu_d2_deriv(t):
        amp = (np.pi / (32.0 * t0 * t0)) * drop * drop
        u = 2.0 * omega * np.asarray(t, float) + 2.0 * psi
        return -amp * 2.0 * omega * np.sin(u)

    models["insitu_d2"] = CurveModel(
        "insitu_d2", "d2", 5, 2, ("omega", "psi"), (2.0 * omega, 2.0 * psi),
        ((np.pi / 2.0, 4.0 * np.pi), (-2.0 * np.pi, 2.0 * np.pi)),
        value=lambda t: _vertical_chi_sq(drop, t0, np.asarray(t, float)),
        basis_builder=insitu_d2_basis, window=T, derivative=insitu_d2_deriv,
    )
    return models


def _unit(vx, vy, x1, y1):
    v = math.hypot(vx, vy)
    if v > 0:
        return vx / v, vy / v
    r = math.hypot(x1, y1)
    return (-x1 / r, -y1 / r) if r > 0 else (-1.0, 0.0)


@dataclass(frozen=True)
class KeyPoint:
    node: NodeId
    t: float
    value: float
    map_kind: str   # "r2" or "d2"
    sign: float = 1.0   # Doppler half for d2 points


def node_keypoints(node: NodeId, p: SceneParams, act: ActivitySpec,
                   kind: str, count: int) -> list[KeyPoint]:
    """Key points of one node's distance or velocity curve for an activity."""
    if kind == "r2":
        fn = lambda t: node_distance_sq(node, p, act, t)
    elif kind == "d2":
        fn = lambda t: node_velocity_sq(node, p, act, t)
    else:
        raise ValueError(f"unknown map kind {kind!r}")
    ts = select_keypoints(fn, p.window, count)
    pts = []
    for t in ts:
        sign = 1.0
        if kind == "d2":
            sign = distance_slope_sign(node, p, act, t)
        pts.append(KeyPoint(node, t, float(fn(t)), kind, sign))
    return pts


def activity_keypoints(p: SceneParams, act: ActivitySpec,
                       kind: str) -> list[KeyPoint]:
    """All 30 ground-truth key points of one map for an activity."""
    counts = groundtruth_counts(act.activity_class)[kind]
    pts: list[KeyPoint] = []
    for node, count in zip(ALL_NODES, counts):
        pts.extend(node_keypoints(node, p, act, kind, count))
    return pts
