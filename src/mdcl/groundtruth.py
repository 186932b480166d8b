"""Analytic ground truth: 30-point corner clouds and reference raster maps.

Corner clouds come straight from the kinematic curves (key-point times and
values mapped onto the rendered squared axes).  Reference maps rasterize
the same curves onto the RTM/DTM grids and push them through the identical
axis-squaring path the measured pipeline uses, so widths and geometry
match pixel for pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mdcl.activities import ActivitySpec
from mdcl.corners import placeholder_lattice
from mdcl.echo import C_LIGHT, RadarConfig
from mdcl.maps import AxisSpec, ProfileMap, normalize
from mdcl.motion import (KeyPoint, activity_keypoints, node_curve, node_distance,
                         slope_sign)
from mdcl.scene import ALL_NODES, SceneParams


@dataclass(frozen=True)
class GroundTruth:
    """Per-activity analytic truth on the rendered map grids."""

    cloud_r: np.ndarray          # 30 x 2, (u, v) normalized
    cloud_d: np.ndarray          # 30 x 2
    keypoints_r: tuple[KeyPoint, ...]
    keypoints_d: tuple[KeyPoint, ...]
    clamped: int                 # points that fell off an axis and were clamped


def _to_cloud(points: list[KeyPoint], window: float, axis: AxisSpec,
              value_scale: float) -> tuple[np.ndarray, int]:
    """The key points as (u, v) = (t / T, row / (rows - 1)) on the
    rendered axis, and how many values fell off it and were clamped."""
    t, sign, value = np.array([(kp.t, kp.sign, kp.value) for kp in points]).T
    value = sign * value * value_scale
    rows = axis.value_to_row(value)
    clamped = int(np.count_nonzero(~((axis.lo <= value) & (value <= axis.hi))))
    return np.column_stack([t / window, rows / (axis.n - 1)]), clamped


def groundtruth_corners(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
                        r2_axis: AxisSpec, d2_axis: AxisSpec) -> GroundTruth:
    """Exactly 30 analytic corner points on each squared map.

    Distance values land on the range^2 axis directly; velocity-squared
    values are scaled by (2 fc / c)^2 onto the signed Doppler^2 axis.
    """
    if act.is_empty:
        grid = placeholder_lattice()
        return GroundTruth(grid, grid.copy(), (), (), 0)
    kp_r = activity_keypoints(p, act, "r2")
    kp_d = activity_keypoints(p, act, "d2")
    doppler_scale = (2.0 * cfg.carrier_hz / C_LIGHT) ** 2
    cloud_r, clamp_r = _to_cloud(kp_r, p.window, r2_axis, 1.0)
    cloud_d, clamp_d = _to_cloud(kp_d, p.window, d2_axis, doppler_scale)
    return GroundTruth(cloud_r, cloud_d, tuple(kp_r), tuple(kp_d),
                       clamp_r + clamp_d)


# ---------------------------------------------------------------------------
# reference raster maps
# ---------------------------------------------------------------------------

def _mti_gain(freq: np.ndarray, pri: float) -> np.ndarray:
    """Two-pulse canceller amplitude response |1 - e^{-j 2 pi f Ts}|."""
    return np.abs(2.0 * np.sin(np.pi * freq * pri))


def _rasterize(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
               axis: AxisSpec, node_track: Callable) -> ProfileMap:
    """Draw every reflecting node's axis value on the slow-time grid.

    ``node_track(node, t)`` gives the node's axis value and its Doppler
    frequency at the slow-time samples ``t``.  Node brightness combines
    the reflectivity with the clutter filter's response at that Doppler,
    so nodes the measured pipeline cancels (static ones) stay dark here
    too.
    """
    t = cfg.slow_times
    img = np.zeros((axis.n, t.size))
    bin_width = (axis.hi - axis.lo) / axis.n
    cols = np.arange(t.size)
    if not act.is_empty:
        for node in ALL_NODES:
            value, doppler = node_track(node, t)
            amp = cfg.reflectivity[node] * _mti_gain(doppler, cfg.pri)
            frac = (value - axis.lo) / bin_width
            lo = np.floor(frac).astype(int)
            w_hi = frac - lo
            for rows, weights in ((lo, 1.0 - w_hi), (lo + 1, w_hi)):
                ok = (rows >= 0) & (rows < axis.n)
                np.maximum.at(img, (rows[ok], cols[ok]), (amp * weights)[ok])
    return ProfileMap(normalize(img), axis, p.window)


def rasterize_rtm(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
                  range_axis: AxisSpec) -> ProfileMap:
    """Trajectory raster on the RTM grid, each node lit at the Doppler of
    its range rate."""
    def range_track(node, t):
        rng = node_distance(node, p, act, t)
        return rng, (2.0 * cfg.carrier_hz / C_LIGHT) * np.gradient(rng, t)
    return _rasterize(p, act, cfg, range_axis, range_track)


def rasterize_dtm(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
                  doppler_axis: AxisSpec) -> ProfileMap:
    """Signed radial-velocity-squared raster on the DTM grid.

    The velocity curve of each node is drawn at the Doppler frequency of
    magnitude 2 fc sqrt(chi^2) / c on the half of the axis matching the
    sign of its range rate.
    """
    def doppler_track(node, t):
        chi = np.sqrt(node_curve(node, p, act, "d2")(t))
        sign = slope_sign(node_curve(node, p, act, "r2"), p.window, t)
        freq = sign * 2.0 * cfg.carrier_hz * chi / C_LIGHT
        return freq, freq
    return _rasterize(p, act, cfg, doppler_axis, doppler_track)
