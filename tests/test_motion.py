"""Kinematic model tests: frozen closed-form values, invariants, key points."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdcl import motion
from mdcl.activities import (ActivityClass, ActivitySpec, NodeMotion, activity,
                             activity_labels)
from mdcl.mncp import curve_models
from mdcl.motion import (DegenerateCurveError, KeyPoint, activity_keypoints,
                         curve_keypoints, groundtruth_counts, node_curve,
                         select_keypoints_detailed, slope_sign)
from mdcl.scene import ALL_NODES, NodeId, SceneParams

from conftest import default_scene

S8 = activity("S8")
S5 = activity("S5")
S10 = activity("S10")
ARM_ANGLE = math.pi / 6     # S8's arm swing angle
WALL_PATH = default_scene().wall_path   # the default wall's extra path


def keypoint_times(model):
    return [t for t, _ in model.keypoints_detailed()]


def select_times(value, T, count):
    return [t for t, _ in curve_keypoints(value, T, count)]


def distance_sq(node, p, act, t):
    return node_curve(node, p, act, "r2")(t)


def velocity_sq(node, p, act, t):
    return node_curve(node, p, act, "d2")(t)


def scene(**kw):
    defaults = dict(initial_position=(3.0, 0.0), wall_path=0.0)
    defaults.update(kw)
    return default_scene(**defaults)


def scalar_scan_zeros(fn, T, grid=motion._GRID):
    """Oracle for ``motion._scan_zeros``: each sign-change bracket bisected
    on its own, one scalar ``fn`` call per step."""
    ts = np.linspace(0.0, T, grid + 1)
    vals = np.asarray(fn(ts), dtype=float)
    zeros = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        a, b = ts[i], ts[i + 1]
        fa = vals[i]
        while b - a > motion._BISECT_TOL:
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
    for i in np.nonzero(vals == 0.0)[0]:
        if 0 < i < grid and vals[i - 1] != 0.0 and vals[i + 1] != 0.0:
            zeros.append(float(ts[i]))
    zeros = [z for z in sorted(zeros)
             if motion._DISTINCT_TOL < z < T - motion._DISTINCT_TOL]
    return motion._dedupe(zeros)


def outcome(call):
    """A call's result, or its degenerate-curve error as a comparable value."""
    try:
        return call()
    except DegenerateCurveError as exc:
        return ("degenerate", str(exc))


class TestDistanceCurves:
    def test_head_static_is_squared_initial_range(self):
        # x1=3, h1=h0=1.5: xi^2 = 3^2 + 0.15^2 = 9.0225, constant in t
        p = scene(initial_velocity=(0.0, 0.0))
        for t in (0.0, 1.3, 4.0):
            assert distance_sq(NodeId.HEAD, p, S8, t) == pytest.approx(9.0225, abs=1e-12)

    def test_head_moving_frozen_values(self):
        # quadratic v1^2 t^2 + 2 x1 v1x t + R1^2 at t=0 and t=2
        p = scene(initial_velocity=(-1.0, 0.0))
        assert distance_sq(NodeId.HEAD, p, S8, 0.0) == pytest.approx(9.0225, abs=1e-12)
        assert distance_sq(NodeId.HEAD, p, S8, 2.0) == pytest.approx(1.0225, abs=1e-12)

    def test_hand_no_swing_matches_rigid_point(self):
        # zero swing angle collapses the pendulum onto (x+vx t, y+vy t, h1-l1)
        p = scene(initial_velocity=(-0.5, 0.2))
        act = activity("S8")
        nodes = dict(act.nodes)
        nodes[NodeId.HAND_L] = NodeMotion(swing_angle=0.0)
        frozen = ActivitySpec("S8", "walking", ActivityClass.WALKING, nodes=nodes)
        for t in (0.0, 1.0, 3.7):
            x = 3.0 - 0.5 * t
            y = 0.2 * t
            z = p.torso_upper - p.arm_length
            expected = x * x + y * y + z * z
            got = distance_sq(NodeId.HAND_L, p, frozen, t)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_at_zero_equals_r3sq_minus_2h1l1(self):
        p = scene(initial_velocity=(-0.6, 1.0))
        r3_sq = 9.0 + p.torso_upper ** 2 + p.arm_length ** 2
        expected = r3_sq - 2.0 * p.torso_upper * p.arm_length
        assert distance_sq(NodeId.HAND_L, p, S8, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_positive_and_continuous(self):
        p = default_scene()
        t = np.linspace(0.0, p.window, 4096)
        for label in ("S2", "S5", "S8", "S9", "S12"):
            act = activity(label)
            for node in ALL_NODES:
                xi_sq = distance_sq(node, p, act, t)
                assert np.all(xi_sq > 0)
                # continuity: adjacent samples move less than the worst-case
                # slope bound of a few m^2 per sample
                assert np.max(np.abs(np.diff(xi_sq))) < 0.25

    def test_out_of_window_raises(self):
        p = scene()
        with pytest.raises(ValueError):
            distance_sq(NodeId.HEAD, p, S8, 4.5)
        with pytest.raises(ValueError):
            distance_sq(NodeId.HEAD, p, S8, -0.1)

    def test_inactive_node_static(self):
        """S1's body stands still, so every node holds its distance at zero
        velocity."""
        p = scene()
        s1 = activity("S1")
        t = np.linspace(0, 4, 7)
        for node in ALL_NODES:
            assert np.ptp(distance_sq(node, p, s1, t)) == 0.0, node
            assert np.all(velocity_sq(node, p, s1, t) == 0.0), node

    def test_node_rest_geometry(self):
        """At t = 0 each of S1's still nodes lies at x1^2 + y1^2 + (rest -
        ref)^2: the head 0.15 m above the torso top and the torso at its
        midpoint, from the radar height; the hands an arm and the feet a
        leg below their pivots, from the ground."""
        p = scene(initial_position=(2.5, -1.25), radar_height=1.2)
        x1, y1 = p.initial_position
        rest = {
            NodeId.HEAD: (p.torso_upper + 0.15, p.radar_height),
            NodeId.TORSO: (0.5 * (p.torso_upper + p.torso_lower), p.radar_height),
            NodeId.HAND_L: (p.torso_upper - p.arm_length, 0.0),
            NodeId.HAND_R: (p.torso_upper - p.arm_length, 0.0),
            NodeId.FOOT_L: (p.torso_lower - p.leg_length, 0.0),
            NodeId.FOOT_R: (p.torso_lower - p.leg_length, 0.0),
        }
        for node, (height, ref) in rest.items():
            z = height - ref
            assert distance_sq(node, p, activity("S1"), 0.0) == x1 * x1 + y1 * y1 + z * z, node

    def test_wall_shifts_unsquared_distance_exactly(self):
        shift = 0.12 * (math.sqrt(6.0) - 1.0)
        p_free = default_scene(wall_path=0.0)
        p_wall = default_scene(wall_path=shift)
        t = np.linspace(0, 4, 64)
        for node in (NodeId.HEAD, NodeId.HAND_R, NodeId.FOOT_L):
            d_free = np.sqrt(distance_sq(node, p_free, S8, t))
            d_wall = np.sqrt(distance_sq(node, p_wall, S8, t))
            assert np.allclose(d_wall - d_free, shift, atol=1e-12)

    @pytest.mark.parametrize("velocity", [(0.0, 0.0), (-0.6, 1.0)])
    def test_feet_through_wall_finite_at_the_radar(self, velocity):
        # a foot passing under a radar at the origin has xi^2 near 0, which
        # can round below 0 before the wall's sqrt
        p = default_scene(initial_position=(0.0, 0.0), initial_velocity=velocity)
        t = np.linspace(0.0, p.window, 400001)
        for label in ("S9", "S10"):
            for node in (NodeId.FOOT_L, NodeId.FOOT_R):
                assert np.isfinite(distance_sq(node, p, activity(label), t)).all()

    def test_static_head_torso_constant_to_machine_precision(self):
        p = scene(initial_velocity=(0.0, 0.0))
        t = np.linspace(0, 4, 4096)
        for node in (NodeId.HEAD, NodeId.TORSO):
            vals = distance_sq(node, p, S8, t)
            assert np.ptp(vals) == 0.0

    def test_pendulum_residual_periodic(self):
        # for an in-place swing the curve minus its (constant) quadratic
        # part is exactly gait-periodic; the autocorrelation peaks at one
        # period within a sample
        p = scene(initial_velocity=(0.0, 0.0))
        s2 = activity("S2")
        n = 4096
        t = np.linspace(0, p.window, n, endpoint=False)
        xi_sq = distance_sq(NodeId.HAND_L, p, s2, t)
        period_samples = n // 4   # gait period 1 s of the 4 s window
        assert np.allclose(xi_sq[period_samples:], xi_sq[:-period_samples],
                           rtol=0, atol=1e-12)
        resid = xi_sq - xi_sq.mean()
        spec = np.abs(np.fft.fft(resid)) ** 2
        ac = np.real(np.fft.ifft(spec))        # circular autocorrelation
        lo, hi = period_samples // 2, 3 * period_samples // 2
        peak = lo + int(np.argmax(ac[lo:hi]))
        assert abs(peak - period_samples) <= 1

    def test_left_right_phase_swap(self):
        # swapping the pendulum phase reproduces the counterpart limb curve
        p = default_scene()
        t = np.linspace(0, 4, 512)
        nodes = dict(S8.nodes)
        nodes[NodeId.HAND_L] = nodes[NodeId.HAND_R]
        swapped = ActivitySpec("S8", "walking", ActivityClass.WALKING, nodes=nodes)
        left_as_right = distance_sq(NodeId.HAND_L, p, swapped, t)
        right = distance_sq(NodeId.HAND_R, p, S8, t)
        assert np.allclose(left_as_right, right, rtol=0, atol=1e-12)
        for n_a, n_b in ((NodeId.FOOT_L, NodeId.FOOT_R),):
            nodes = dict(S8.nodes)
            nodes[n_a] = nodes[n_b]
            swapped = ActivitySpec("S8", "walking", ActivityClass.WALKING, nodes=nodes)
            assert np.allclose(distance_sq(n_a, p, swapped, t),
                               distance_sq(n_b, p, S8, t), atol=1e-12)


class TestVelocityCurves:
    def test_head_constant(self):
        p = scene(initial_velocity=(1.0, 0.0))
        for t in (0.0, 0.77, 4.0):
            assert velocity_sq(NodeId.HEAD, p, S8, t) == pytest.approx(1.0, abs=1e-14)

    def test_hand_at_zero(self):
        p = default_scene()
        v1 = math.hypot(*p.initial_velocity)
        expected = (v1 - p.arm_length * ARM_ANGLE * p.gait_frequency) ** 2
        assert velocity_sq(NodeId.HAND_L, p, S8, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_in_situ_velocity_at_quarter_time(self):
        # (pi / 16 t0^2) * drop^2 at t = t0 for the in-place curve; S5 drops
        # head/torso by 0.45 m
        p = default_scene()
        drop = 0.45
        expected = (np.pi / 16.0) * drop * drop
        assert velocity_sq(NodeId.TORSO, p, S5, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_exact_mode_bounded_by_undulation_amplitude(self):
        # the unsimplified model adds the head's vertical undulation rate
        # (alpha phi cos(phi t))^2, alpha = 0.05 m, to the constant |v|^2
        p = default_scene()
        alpha, phi = 0.05, p.gait_frequency
        t = np.linspace(0, 4, 2048)
        approx = velocity_sq(NodeId.HEAD, p, S8, t)
        exact = approx + (alpha * phi * np.cos(phi * t)) ** 2
        bound = (alpha * phi) ** 2
        dev = np.abs(exact - approx)
        assert np.max(dev) <= bound + 1e-12
        assert np.max(dev) == pytest.approx(bound, rel=1e-6)


class TestMotionStateDispatch:
    """Frozen closed-form values of the in-situ and combination branches.

    S5's head sinks through the full in-place cycle: delta = 0.45 m about
    z_center = 1.65 - 0.225 = 1.425 m (r_off = -0.075 m under the radar),
    t0 = 1 s.  S10 walks on [0, 2) s, then sits down on [2, 3] s (half
    cycle, t0 = 0.5 s) from x = 3 - 0.5 * 2 = 2 m, and holds still after.
    """

    @pytest.mark.parametrize("t, xi_sq, chi_sq", [
        (0.0, 9.0225, 0.0),                          # top: offset 0.15 m
        (1.0, 9.005625, (np.pi / 16.0) * 0.45 ** 2),  # middle, fastest
        (2.0, 9.09, 0.0),                            # bottom: offset 0.3 m
    ])
    def test_in_situ_head(self, t, xi_sq, chi_sq):
        p = scene()
        assert distance_sq(NodeId.HEAD, p, S5, t) == pytest.approx(xi_sq, abs=1e-12)
        assert velocity_sq(NodeId.HEAD, p, S5, t) == pytest.approx(chi_sq, abs=1e-12)

    @pytest.mark.parametrize("t, xi_sq, chi_sq", [
        (1.0, 2.5 ** 2 + 0.15 ** 2, 0.25),           # walking, x = 2.5 m
        (2.5, 4.005625, (np.pi / 8.0) * 0.45 ** 2 * 2.0),   # mid-episode
        (3.5, 4.09, 0.0),                            # seated, holds still
    ])
    def test_combination_head(self, t, xi_sq, chi_sq):
        p = scene(initial_velocity=(-0.5, 0.0))
        assert distance_sq(NodeId.HEAD, p, S10, t) == pytest.approx(xi_sq, abs=1e-12)
        assert velocity_sq(NodeId.HEAD, p, S10, t) == pytest.approx(chi_sq, abs=1e-12)

    def test_combination_hand_swings_while_walking(self):
        # at t = 1 s the arm hangs straight down (swing phase 2 pi) at
        # x = 2.5 m, 0.85 m above the ground, moving at v1 - l1 theta1 phi
        p = scene(initial_velocity=(-0.5, 0.0))
        xi_sq = 2.5 ** 2 + (p.torso_upper - p.arm_length) ** 2
        chi_sq = (0.5 - p.arm_length * ARM_ANGLE * p.gait_frequency) ** 2
        assert distance_sq(NodeId.HAND_L, p, S10, 1.0) == pytest.approx(xi_sq, abs=1e-12)
        assert velocity_sq(NodeId.HAND_L, p, S10, 1.0) == pytest.approx(chi_sq, abs=1e-12)


class TestKeypoints:
    def test_head_quadratic_vertex_inside(self):
        # vertex of (t-3)^2 at t=3 inside [0, 4]
        pts = select_times(lambda t: np.asarray(t - 3.0) ** 2, 4.0, 3)
        assert pts == pytest.approx([0.0, 3.0, 4.0], abs=1e-8)

    def test_head_quadratic_vertex_outside_takes_midpoint(self):
        pts = select_times(lambda t: np.asarray(t + 5.0) ** 2, 4.0, 3)
        assert pts == pytest.approx([0.0, 2.0, 4.0], abs=1e-9)

    def test_hand_velocity_five_points_from_extrema(self):
        # independent oracle: dense sign-change scan of the closed-form derivative
        p = default_scene()
        model = curve_models(p)["walk_hand_d2"]
        v1 = math.hypot(*p.initial_velocity)
        l, th, phi = p.arm_length, ARM_ANGLE, p.gait_frequency

        def d_chi_sq(t):
            sin_g, cos_g = np.sin(phi * t), np.cos(phi * t)
            swing = th * sin_g
            return (2 * l * v1 * th * phi ** 2 * (sin_g * np.cos(swing)
                    + th * cos_g ** 2 * np.sin(swing))
                    - 2 * l * l * th * th * phi ** 3 * sin_g * cos_g)

        grid = np.linspace(0, 4, 40001)
        vals = d_chi_sq(grid)
        oracle_zeros = grid[:-1][np.sign(vals[:-1]) * np.sign(vals[1:]) < 0]
        pts = keypoint_times(model)
        assert len(pts) == 5
        assert pts[0] == 0.0 and pts[-1] == 4.0
        for t in pts[1:-1]:
            assert np.min(np.abs(oracle_zeros - t)) < 2e-4

    def test_in_situ_distance_keypoints_match_hand_derivation(self):
        # S5's head sinks by delta = 0.45 m about r_off = -0.075 m with
        # t0 = 1 s: d(xi^2)/du = delta cos(u) (-r_off + (delta / 2) sin(u)),
        # u = pi (t - 1) / 2, vanishes at cos(u) = 0 (t = 0, 2, 4) and at
        # sin(u) = -1/3 (t = 1 - (2 / pi) asin(1/3) and 3 + (2 / pi) asin(1/3))
        model = curve_models(default_scene())["insitu_r2"]
        off = (2.0 / np.pi) * np.arcsin(1.0 / 3.0)
        assert model.keypoints_detailed() == [
            (0.0, "edge"), (pytest.approx(1.0 - off, abs=1e-8), "extremum"),
            (pytest.approx(2.0, abs=1e-8), "extremum"),
            (pytest.approx(3.0 + off, abs=1e-8), "extremum"), (4.0, "edge")]

    def test_in_situ_velocity_keypoints_uniform(self):
        model = curve_models(default_scene())["insitu_d2"]
        assert keypoint_times(model) == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0], abs=1e-8)

    def test_constant_curve_filled_equispaced(self):
        pts, kinds = zip(*select_keypoints_detailed(
            lambda t: np.zeros_like(np.asarray(t, float)), 4.0, 5))
        assert list(pts) == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0], abs=1e-9)
        assert set(kinds[1:-1]) == {"fill"}

    def test_strictly_increasing_and_count(self):
        p = default_scene()
        for name, model in curve_models(p).items():
            pts = keypoint_times(model)
            assert len(pts) == model.mncp
            assert all(b - a > 1e-9 for a, b in zip(pts, pts[1:])), name
            if model.mncp >= 2 and name.endswith("_r2"):
                assert pts[0] == 0.0 and pts[-1] == p.window

    def test_activity_keypoints_match_pointwise_oracle(self):
        # each curve and its Doppler sign are evaluated once, on the array of
        # key-point times; each point evaluated as a one-element array
        # gives the same bits
        p = default_scene()
        total = 0
        for label in (f"S{i}" for i in range(2, 13)):
            act = activity(label)
            for kind in ("r2", "d2"):
                want = []
                counts = groundtruth_counts(act.activity_class)[kind]
                for node, count in zip(ALL_NODES, counts):
                    fn = node_curve(node, p, act, kind)
                    xi = node_curve(node, p, act, "r2")
                    slope = motion._numeric_derivative(fn, p.window)
                    for t, _ in select_keypoints_detailed(slope, p.window, count):
                        one = np.array([t])
                        sign = slope_sign(xi, p.window, one)[0] if kind == "d2" else 1.0
                        want.append(KeyPoint(node, t, fn(one)[0], sign))
                got = activity_keypoints(p, act, kind)
                assert got == want, (label, kind)
                total += len(got)
        assert total == 660

    def test_degenerate_window(self):
        with pytest.raises(DegenerateCurveError):
            select_times(lambda t: np.asarray(t), 0.0, 3)

    def test_numeric_derivative_equals_clipped_difference(self):
        """The min/max stencil gives the bits of its ``np.clip`` form on a
        combination curve, at the window edges and within a step of them."""
        p = scene(initial_velocity=(-0.5, 0.0))
        T = p.window
        fn = node_curve(NodeId.HAND_L, p, S10, "r2")
        h = T * 2.5e-7
        t = np.concatenate([np.linspace(0.0, T, 1001),
                            [h / 2, h, 1.5 * h, T - h / 2, T - h, T - 1.5 * h]])
        lo, hi = np.clip(t - h, 0.0, T), np.clip(t + h, 0.0, T)
        want = (fn(hi) - fn(lo)) / (hi - lo)
        assert motion._numeric_derivative(fn, T)(t).tobytes() == want.tobytes()


class TestLockstepBisection:
    """The lockstep key-point search equals the one-bracket-at-a-time one."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-0.5, 4.5), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    def test_polynomial_zeros_match_scalar_oracle(self, roots, scale):
        def fn(t):
            out = scale * np.ones_like(np.asarray(t, dtype=float))
            for r in roots:
                out = out * (np.asarray(t, dtype=float) - r)
            return out
        assert motion._scan_zeros(fn, 4.0) == scalar_scan_zeros(fn, 4.0)

    def test_midpoint_zero_collapses_bracket(self):
        # the zero sits halfway between two grid points, so the first
        # midpoint hits it exactly
        z = 1.0 + 2.0 ** -11
        line = lambda t: np.asarray(t, dtype=float) - z
        # a second bracket that does not collapse keeps bisecting
        pair = lambda t: line(t) * (np.asarray(t, dtype=float) - 3.3)
        assert motion._scan_zeros(line, 4.0) == scalar_scan_zeros(line, 4.0) == [z]
        assert motion._scan_zeros(pair, 4.0) == scalar_scan_zeros(pair, 4.0)
        assert motion._scan_zeros(pair, 4.0)[0] == z

    @settings(max_examples=4, deadline=None)
    @given(position=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
           velocity=st.one_of(st.just((0.0, 0.0)),
                              st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))),
           wall_path=st.sampled_from((0.0, WALL_PATH)))
    @example(position=(3.0, 0.0), velocity=(-0.6, 1.0), wall_path=WALL_PATH)
    @example(position=(3.0, 0.0), velocity=(0.0, 0.0), wall_path=0.0)
    def test_scene_keypoints_match_scalar_oracle(self, position, velocity,
                                                 wall_path):
        p = default_scene(initial_position=position, initial_velocity=velocity,
                          wall_path=wall_path)

        def search():
            acts = {(label, kind): outcome(lambda: activity_keypoints(
                        p, activity(label), kind))
                    for label in (f"S{i}" for i in range(2, 13))
                    for kind in ("r2", "d2")}
            fams = {name: outcome(model.keypoints_detailed)
                    for name, model in curve_models(p).items()}
            return acts, fams

        lockstep = search()
        with mock.patch.object(motion, "_scan_zeros", scalar_scan_zeros):
            assert lockstep == search()


PI = math.pi
STILL = (0.0, 0.0)
WHOLE = (0.0, 1.0)
TRANSLATE = (None, 0.0, None)
# label: (class, velocity, walk_span, episode_span, rise_first,
#         (swing_angle, phase, drop) of N1 head, N2 torso, N3/N4 hands, N5/N6 feet)
CATALOG = {
    "S1": (ActivityClass.EMPTY, STILL, WHOLE, WHOLE, False, [TRANSLATE] * 6),
    "S2": (ActivityClass.WALKING, STILL, WHOLE, WHOLE, False,
           [TRANSLATE, TRANSLATE, (PI / 3, 0.0, None), (PI / 3, PI, None),
            TRANSLATE, TRANSLATE]),
    "S3": (ActivityClass.WALKING, STILL, WHOLE, WHOLE, False,
           [TRANSLATE, TRANSLATE, (PI / 12, 0.0, None), (PI / 12, PI, None),
            (PI / 3, 0.0, None), (PI / 3, PI, None)]),
    "S4": (ActivityClass.IN_SITU, STILL, WHOLE, WHOLE, False,
           [(None, 0.0, 0.3), (None, 0.0, 0.3), (None, 0.0, 0.6), (None, 0.0, 0.6),
            (None, 0.0, 0.05), (None, 0.0, 0.05)]),
    "S5": (ActivityClass.IN_SITU, STILL, WHOLE, WHOLE, False,
           [(None, 0.0, 0.45), (None, 0.0, 0.45), (None, 0.0, 0.45),
            (None, 0.0, 0.45), (None, 0.0, 0.05), (None, 0.0, 0.05)]),
    "S6": (ActivityClass.IN_SITU, STILL, WHOLE, WHOLE, True,
           [(None, 0.0, 0.45), (None, 0.0, 0.45), (None, 0.0, 0.45),
            (None, 0.0, 0.45), (None, 0.0, 0.05), (None, 0.0, 0.05)]),
    "S7": (ActivityClass.WALKING, STILL, WHOLE, WHOLE, False,
           [TRANSLATE, TRANSLATE, (PI / 4, 0.0, None), (PI / 4, PI, None),
            (PI / 8, PI, None), (PI / 8, 0.0, None)]),
    "S8": (ActivityClass.WALKING, None, WHOLE, WHOLE, False,
           [TRANSLATE, TRANSLATE, (PI / 6, 0.0, None), (PI / 6, PI, None),
            (PI / 4, PI, None), (PI / 4, 0.0, None)]),
    "S9": (ActivityClass.COMBINATION, None, (0.5, 1.0), (0.25, 0.5), True,
           [(None, 0.0, 0.45), (None, 0.0, 0.45), (PI / 6, 0.0, 0.45),
            (PI / 6, PI, 0.45), (PI / 4, PI, 0.05), (PI / 4, 0.0, 0.05)]),
    "S10": (ActivityClass.COMBINATION, None, (0.0, 0.5), (0.5, 0.75), False,
            [(None, 0.0, 0.45), (None, 0.0, 0.45), (PI / 6, 0.0, 0.45),
             (PI / 6, PI, 0.45), (PI / 4, PI, 0.05), (PI / 4, 0.0, 0.05)]),
    "S11": (ActivityClass.COMBINATION, None, (0.5, 1.0), (0.3, 0.5), True,
            [(None, 0.0, 1.1), (None, 0.0, 0.9), (PI / 6, 0.0, 0.7),
             (PI / 6, PI, 0.7), (PI / 4, PI, 0.1), (PI / 4, 0.0, 0.1)]),
    "S12": (ActivityClass.COMBINATION, None, (0.0, 0.5), (0.5, 0.7), False,
            [(None, 0.0, 1.1), (None, 0.0, 0.9), (PI / 6, 0.0, 0.7),
             (PI / 6, PI, 0.7), (PI / 4, PI, 0.1), (PI / 4, 0.0, 0.1)]),
}


class TestCatalog:
    def test_labels(self):
        assert activity_labels() == list(CATALOG)

    @pytest.mark.parametrize("label", list(CATALOG))
    def test_entry(self, label):
        act = activity(label)
        assert (act.activity_class, act.velocity, act.walk_span,
                act.episode_span, act.rise_first, [
                    (m.swing_angle, m.phase, m.drop)
                    for m in (act.nodes[node] for node in ALL_NODES)]) == CATALOG[label]

    @pytest.mark.parametrize("node", [NodeId.HEAD, NodeId.TORSO])
    def test_swing_rejected_on_head_and_torso(self, node):
        nodes = dict(S8.nodes)
        nodes[node] = S8.nodes[NodeId.HAND_L]
        with pytest.raises(ValueError, match="only hands and feet"):
            ActivitySpec("S8", "walking", ActivityClass.WALKING, nodes=nodes)


def catalog_args(label, *, nodes=(), **changes):
    """``ActivitySpec`` arguments of catalog ``label`` with ``changes``;
    ``nodes`` replaces the motions of some nodes."""
    act = activity(label)
    return {**vars(act), "nodes": {**act.nodes, **dict(nodes)}, **changes}


# an in-place episode drops every node of these classes, and no other node
IN_PLACE = {ActivityClass.IN_SITU, ActivityClass.COMBINATION}


@st.composite
def drawn_specs(draw):
    """``ActivitySpec`` arguments whose nodes drop as their class says, but
    for at most one node: about half break that rule."""
    activity_class = draw(st.sampled_from(ActivityClass))
    odd = draw(st.none() | st.sampled_from(ALL_NODES))
    spans = st.lists(st.integers(0, 8).map(lambda k: k / 8),
                     min_size=2, max_size=2).map(sorted).map(tuple)
    nodes = {node: NodeMotion(
        None if node in (NodeId.HEAD, NodeId.TORSO)
        else draw(st.none() | st.floats(-1.5, 1.5)),
        draw(st.floats(0.0, 2 * math.pi)),
        draw(st.floats(0.0, 1.5)) if (activity_class in IN_PLACE) != (node is odd)
        else None) for node in ALL_NODES}
    return dict(label="SX", name="drawn", activity_class=activity_class, nodes=nodes,
                velocity=draw(st.none() | st.tuples(st.floats(-1.5, 1.5),
                                                    st.floats(-1.5, 1.5))),
                walk_span=draw(spans), episode_span=draw(spans),
                rise_first=draw(st.booleans()))


DEFAULT_SCENE = vars(default_scene())
drawn_scenes = st.fixed_dictionaries(dict(
    radar_height=st.floats(0.0, 3.0),
    initial_position=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    torso_upper=st.floats(0.8, 1.8), torso_lower=st.floats(0.3, 1.0),
    arm_length=st.floats(0.0, 1.2), leg_length=st.floats(0.0, 1.2),
    initial_velocity=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    gait_frequency=st.floats(1.0, 10.0), in_situ_quarter_time=st.floats(0.1, 2.0),
    window=st.floats(1.0, 8.0), wall_path=st.floats(0.0, 0.3)))


class TestActivitySpec:
    @settings(max_examples=100, deadline=None)
    @given(spec=drawn_specs(), scene=drawn_scenes)
    @example(spec=catalog_args("S10", nodes={NodeId.HEAD: NodeMotion()}),
             scene=DEFAULT_SCENE)
    @example(spec=catalog_args("S8", nodes={NodeId.HEAD: NodeMotion(drop=0.3)}),
             scene=DEFAULT_SCENE)
    @example(spec=catalog_args("S10", episode_span=(0.5, 0.5)), scene=DEFAULT_SCENE)
    def test_a_spec_that_builds_has_finite_curves(self, spec, scene):
        """A spec or scene that cannot run raises ``ValueError`` when it is
        built; any other gives finite curves and a full key-point set."""
        try:
            act = ActivitySpec(**spec)
        except ValueError as exc:
            assert str(exc).startswith(f"{spec['label']}: ")
            return
        try:
            p = SceneParams(**scene)
        except ValueError:
            return
        T = p.window
        t = np.linspace(0.0, T, 513)
        for kind in ("r2", "d2"):
            for node in ALL_NODES:
                assert np.isfinite(node_curve(node, p, act, kind)(t)).all(), (node, kind)
            pts = activity_keypoints(p, act, kind)
            assert [sum(pt.node is node for pt in pts) for node in ALL_NODES] == \
                groundtruth_counts(act.activity_class)[kind]
            assert all(0.0 <= pt.t <= T and math.isfinite(pt.value) for pt in pts)
        assert all((m.drop is not None) == (act.activity_class in IN_PLACE)
                   for m in act.nodes.values())


class TestTables:
    def test_groundtruth_counts_always_30(self):
        for cls in (ActivityClass.WALKING, ActivityClass.IN_SITU,
                    ActivityClass.COMBINATION):
            counts = groundtruth_counts(cls)
            assert sum(counts["r2"]) == 30
            assert sum(counts["d2"]) == 30

class TestSceneValidation:
    def test_gait_habit_constraint(self):
        with pytest.raises(ValueError):
            default_scene(window=1.0, gait_frequency=math.pi)

    def test_torso_ordering(self):
        with pytest.raises(ValueError):
            default_scene(torso_upper=0.9, torso_lower=0.95)
