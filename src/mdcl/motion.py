"""Closed-form limb-node kinematics.

Every node's squared one-way propagation distance xi^2(t) and squared
radial-model velocity chi^2(t) come from one evaluator, ``node_curve``:
it resolves the node's motion state for the activity once (body velocity
and swing direction, the walking/episode split of combination
activities, the wall's extra path) and returns the curve as a function
of time.  The same curves drive both the echo synthesizer and the
analytic ground-truth corner generator, so the two stay consistent by
construction.

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


def _check_window(t: np.ndarray, T: float):
    if t.size and (t.min() < -1e-12 or t.max() > T + 1e-12):
        raise ValueError(f"t out of observation window [0, {T}]")


def _vertical_ref(node: NodeId, p: SceneParams) -> float:
    return p.radar_height if node in (NodeId.HEAD, NodeId.TORSO) else 0.0


def _pendulum_geometry(node: NodeId, p: SceneParams) -> tuple[float, float]:
    """(limb length, pivot height) for a pendulum node."""
    if node in (NodeId.HAND_L, NodeId.HAND_R):
        return p.arm_length, p.torso_upper
    if node in (NodeId.FOOT_L, NodeId.FOOT_R):
        return p.leg_length, p.torso_lower
    raise ValueError(f"{node} is not a pendulum node")


def _swing_direction(x1, y1, vx, vy) -> tuple[float, float]:
    """Unit direction pendulum limbs swing along: the body velocity's, or
    toward the radar when the body stands still."""
    v = math.hypot(vx, vy)
    if v > 0:
        return vx / v, vy / v
    r = math.hypot(x1, y1)
    return (-x1 / r, -y1 / r) if r > 0 else (-1.0, 0.0)


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

def node_curve(node: NodeId, p: SceneParams, act: ActivitySpec, kind: str) -> Callable:
    """One node's motion curve for an activity: ``t -> xi^2(t)`` in m^2 for
    ``kind`` "r2", ``t -> chi^2(t)`` in (m/s)^2 for "d2".

    The curve follows the motion state the activity assigns to the node.
    A translating or inactive node moves with the body, as a rigid point or
    as a pendulum limb swinging along the body velocity (toward the radar
    when the body stands still); only the empty scene S1, whose body stands
    still, has inactive nodes.  A sudden-acceleration node rises or sinks
    through its in-place vertical cycle.  In combination activities the
    body walks inside the walking span; outside it the node follows its
    vertical episode with clamped local time, so the pose holds still
    before the episode starts and after it ends.

    Head and torso move at the constant body velocity.  The wall's extra
    path ``p.wall_path`` is added to the unsquared distance before
    squaring; in free space (0) the squared curve is left as it is.  ``t``
    is an array of times inside [0, window].
    """
    if kind not in ("r2", "d2"):
        raise ValueError(f"unknown map kind {kind!r}")
    r2 = kind == "r2"
    T = p.window
    motion = act.node(node)
    x1, y1 = p.initial_position
    vx, vy = act.velocity if act.velocity is not None else p.initial_velocity
    speed = math.hypot(vx, vy)
    dirx, diry = _swing_direction(x1, y1, vx, vy)
    z_rest = p.node_rest_height(node) - _vertical_ref(node, p)

    def walking(x0, y0):
        """The translation phase from (x0, y0), in local time."""
        if motion.swing_angle is not None and motion.state in (
                MotionState.PENDULUM, MotionState.SUDDEN_ACCEL):
            l, h = _pendulum_geometry(node, p)
            theta, phi, phase = motion.swing_angle, p.gait_frequency, motion.phase
            if r2:
                return lambda s: _pendulum_xi_sq(x0, y0, vx, vy, dirx, diry,
                                                 l, h, theta, phi, phase, s)
            return lambda s: _pendulum_chi_sq(speed, l, theta, phi, phase, s)
        if r2:
            return lambda s: _translate_xi_sq(x0, y0, z_rest, vx, vy, s)
        return lambda s: np.full_like(s, vx ** 2 + vy ** 2)

    def vertical(x0, y0, t0):
        """The vertical cycle from (x0, y0) with quarter time t0."""
        drop = motion.drop
        if not r2:
            return lambda s: _vertical_chi_sq(drop, t0, s)
        sign = 1.0 if motion.rise_first else -1.0
        z_center = p.node_rest_height(node) - 0.5 * drop
        ref = _vertical_ref(node, p)
        return lambda s: _vertical_xi_sq(x0, y0, z_center, ref, drop, t0, sign, s)

    if act.activity_class is ActivityClass.COMBINATION:
        walk_start, walk_stop = act.walk_span[0] * T, act.walk_span[1] * T
        span_lo, span_hi = motion.span[0] * T, motion.span[1] * T
        span_len = span_hi - span_lo
        if walk_start < span_lo:    # the episode starts where the walk ended
            x_vert = x1 + vx * (walk_stop - walk_start)
            y_vert = y1 + vy * (walk_stop - walk_start)
        else:
            x_vert, y_vert = x1, y1
        walk = walking(x1, y1)
        # a monotone half-cycle fills the episode span
        vert = vertical(x_vert, y_vert, 0.5 * span_len)
        to_edge = walk_stop >= T - 1e-12   # walking runs to the window edge

        def free(t):
            in_walk = (t >= walk_start) if to_edge else (
                (t >= walk_start) & (t < walk_stop))
            # np.minimum(np.maximum(...)) is np.clip without its dispatch cost
            return np.where(
                in_walk,
                walk(np.minimum(np.maximum(t - walk_start, 0.0), walk_stop - walk_start)),
                vert(np.minimum(np.maximum(t - span_lo, 0.0), span_len)))
    elif motion.state is MotionState.SUDDEN_ACCEL:
        free = vertical(x1, y1, p.in_situ_quarter_time)
    else:
        free = walking(x1, y1)
    wall = p.wall_path if r2 else 0.0

    def curve(t):
        t = np.asarray(t, dtype=float)
        _check_window(t, T)
        out = free(t)
        if wall > 0.0:
            # a rounded square can dip below 0 where the node meets the radar
            out = np.square(np.sqrt(np.maximum(out, 0.0)) + wall)
        return out
    return curve


def node_distance(node: NodeId, p: SceneParams, act: ActivitySpec, t):
    """One-way distance xi(t) in meters."""
    return np.sqrt(node_curve(node, p, act, "r2")(t))


def slope_sign(xi_sq: Callable, T: float, t) -> np.ndarray:
    """Sign of d(xi^2)/dt at the times ``t`` on [0, T], used to place
    velocity points on the signed Doppler axis.  Ties resolve to +1."""
    return np.where(_numeric_derivative(xi_sq, T)(t) < 0, -1.0, 1.0)


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
        lo = np.minimum(np.maximum(t - h, 0.0), T)
        hi = np.minimum(np.maximum(t + h, 0.0), T)
        return (fn(hi) - fn(lo)) / (hi - lo)

    return deriv


def _scan_zeros(fn: Callable, T: float) -> list[float]:
    """Interior zeros of fn on (0, T): sign-change scan plus bisection.

    All sign-change brackets are bisected in lockstep, one ``fn`` call on
    the midpoints of the live brackets per round.  A midpoint where fn is
    exactly 0 collapses its bracket onto itself.
    """
    ts = np.linspace(0.0, T, _GRID + 1)
    vals = np.asarray(fn(ts), dtype=float)
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    a, b, fa = ts[sign_change], ts[sign_change + 1], vals[sign_change]
    live = np.nonzero(b - a > _BISECT_TOL)[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        fm = np.asarray(fn(m), dtype=float)
        left = fa[live] * fm < 0         # the zero lies left of m
        to_b = left | (fm == 0.0)
        b[live[to_b]] = m[to_b]
        a[live[~left]] = m[~left]
        fa[live[~left]] = fm[~left]
        live = live[b[live] - a[live] > _BISECT_TOL]
    zeros: list[float] = list(0.5 * (a + b))
    # isolated exact zeros on the grid (skip flat stretches)
    exact = np.nonzero(vals == 0.0)[0]
    for i in exact:
        if 0 < i < _GRID and vals[i - 1] != 0.0 and vals[i + 1] != 0.0:
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
    # the n + 1 slots lie at least 1 apart, so the n picks are distinct and
    # keep the candidates' order
    slots = np.round(np.linspace(0, len(candidates) - 1, n + 1)).astype(int)
    return [candidates[i] for i in np.delete(slots, 1)]


def select_keypoints_detailed(slope: Callable, T: float,
                              count: int) -> list[tuple[float, str]]:
    """Pick ``count`` strictly increasing sample times on [0, T] of a curve
    whose first derivative is ``slope``.

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
    chosen: list[tuple[float, str]] = [(0.0, "edge"), (T, "edge")]
    need = count - 2
    if need > 0:
        zeros1 = _scan_zeros(slope, T)
        picked = [(t, "extremum") for t in _spread_subset(zeros1, need)]
        if len(picked) < need:
            second = _numeric_derivative(slope, T)
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


def curve_keypoints(fn: Callable, T: float, count: int) -> list[tuple[float, str]]:
    """``select_keypoints_detailed`` on the curve ``fn``'s numeric first
    derivative: the key-point rule of every ground-truth curve."""
    return select_keypoints_detailed(_numeric_derivative(fn, T), T, count)


def _equispaced_fill(existing: list[float], T: float, n: int) -> list[float]:
    out: list[float] = []
    m = n
    while len(out) < n and m < 64 * (n + 2):
        grid = np.linspace(0.0, T, m + 2)[1:-1]
        out = [g for g in grid
               if all(abs(g - e) > _DISTINCT_TOL for e in existing)][:n]
        m += 1
    return out


def groundtruth_counts(activity_class: ActivityClass) -> dict[str, list[int]]:
    """Per-node key-point allocation used for the 30-point ground truth.

    The walking-class Doppler table sums to 22; the extra 8 points are
    spread over the four pendulum nodes so every cloud carries exactly 30.
    Combination activities use the uniform in-place allocation.
    """
    if activity_class is ActivityClass.WALKING:
        return {"r2": [3, 3, 6, 6, 6, 6], "d2": [1, 1, 7, 7, 7, 7]}
    return {"r2": [5] * 6, "d2": [5] * 6}


@dataclass(frozen=True)
class KeyPoint:
    node: NodeId
    t: float
    value: float
    sign: float = 1.0   # Doppler half for d2 points


def node_keypoints(node: NodeId, p: SceneParams, act: ActivitySpec,
                   kind: str, count: int) -> list[KeyPoint]:
    """Key points of one node's distance or velocity curve for an activity.

    The curve and, for velocity points, the Doppler sign are evaluated
    once, on the array of key-point times.
    """
    fn = node_curve(node, p, act, kind)
    ts = np.asarray([t for t, _ in curve_keypoints(fn, p.window, count)])
    signs = (slope_sign(node_curve(node, p, act, "r2"), p.window, ts)
             if kind == "d2" else np.ones(ts.size))
    return [KeyPoint(node, t, value, sign)
            for t, value, sign in zip(ts.tolist(), fn(ts).tolist(), signs.tolist())]


def activity_keypoints(p: SceneParams, act: ActivitySpec,
                       kind: str) -> list[KeyPoint]:
    """All 30 ground-truth key points of one map for an activity."""
    counts = groundtruth_counts(act.activity_class)[kind]
    pts: list[KeyPoint] = []
    for node, count in zip(ALL_NODES, counts):
        pts.extend(node_keypoints(node, p, act, kind, count))
    return pts
