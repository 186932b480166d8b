"""MNCP tests: the curve families, their fitter against oracles, and the
verdict ``mncp-verify`` prints."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.stats import qmc

from mdcl import mncp, motion
from mdcl.activities import activity
from mdcl.cli import main
from mdcl.mncp import CurveModel, curve_models, fit_curve_model, verify_mncp
from mdcl.motion import node_curve
from mdcl.scene import NodeId

from conftest import default_scene

FAMILIES = curve_models(default_scene())
# curve family of each node, in the order head, torso, hands, feet
NODE_FAMILIES = ("head", "torso", "hand", "hand", "foot", "foot")


def column_stack_design(model, ts, nonlinear=None):
    """Oracle for ``CurveModel.design_matrix``: broadcast columns, stacked;
    a (K, ndim) stack of nonlinear vectors is built one vector at a time."""
    if np.ndim(nonlinear) == 2:
        return np.stack([column_stack_design(model, ts, tuple(nl))
                         for nl in nonlinear])
    nonlinear = model.nonlinear_truth if nonlinear is None else tuple(nonlinear)
    ts = np.asarray(ts, dtype=float)
    cols = [np.broadcast_to(np.asarray(b(ts), dtype=float), ts.shape)
            for b in model.basis_builder(nonlinear)]
    return np.column_stack(cols) if cols else np.zeros((ts.size, 0))


def shiftwise_slope_design(model, ts, nonlinear):
    """Oracle for ``mncp._derivative_design`` at order 1: one design matrix
    per shift."""
    h = model.window * 1e-4
    d = lambda s: column_stack_design(model, ts + s * h, nonlinear)
    return (-d(2.0) + 8.0 * d(1.0) - 8.0 * d(-1.0) + d(-2.0)) / (12.0 * h)


def shiftwise_curvature_design(model, ts, nonlinear):
    """Oracle for ``mncp._derivative_design`` at order 2: one design matrix
    per shift."""
    h = model.window * 5e-4
    d = lambda s: column_stack_design(model, ts + s * h, nonlinear)
    return (-d(2.0) + 16.0 * d(1.0) - 30.0 * d(0.0) + 16.0 * d(-1.0)
            - d(-2.0)) / (12.0 * h * h)


# the oracle for ``mncp._derivative_design`` at each order
SHIFTWISE_DESIGNS = {1: shiftwise_slope_design, 2: shiftwise_curvature_design}


def trf_multistart_fit(model, ts, ys, slope_ts, inflection_ts):
    """Oracle for ``mncp._multistart_fit``: one bounded scipy trust-region
    fit per start, same starts, candidate RMS and tie rule."""
    bounds = np.asarray(model.nonlinear_bounds, dtype=float)
    ndim = bounds.shape[0]

    def residual(theta):
        a, y = mncp._augmented_system(model, ts, ys, theta, slope_ts,
                                         inflection_ts)
        coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
        return y - a @ coef

    candidates = []
    for g in mncp._halton(mncp._N_STARTS, ndim):
        x0 = bounds[:, 0] + g * (bounds[:, 1] - bounds[:, 0])
        try:
            sol = least_squares(residual, x0, bounds=(bounds[:, 0], bounds[:, 1]),
                                xtol=1e-15, ftol=1e-15, gtol=1e-14)
        except Exception:
            continue
        candidates.append((float(np.sqrt(np.mean(sol.fun ** 2))), tuple(sol.x)))
    best_rms = min(rms for rms, _ in candidates)
    tie = 1e-9 * (1.0 + float(np.sqrt(np.mean(ys ** 2))))
    tied = [x for rms, x in candidates if rms <= best_rms + tie]
    return min(tied, key=lambda x: x[0])


def scene_families(gait_frequency, quarter_time, arm_angle, leg_angle):
    """Curve families of a scene whose walking catalog entry (S8) swings
    the arms and legs at the given angles."""
    walk = activity("S8")
    nodes = dict(walk.nodes)
    nodes[NodeId.HAND_L] = dataclasses.replace(nodes[NodeId.HAND_L],
                                               swing_angle=arm_angle)
    nodes[NodeId.FOOT_R] = dataclasses.replace(nodes[NodeId.FOOT_R],
                                               swing_angle=leg_angle)
    walk = dataclasses.replace(walk, nodes=nodes)
    with mock.patch.object(mncp, "activity",
                           lambda label: walk if label == "S8" else activity(label)):
        return curve_models(default_scene(gait_frequency=gait_frequency,
                                          in_situ_quarter_time=quarter_time))


def pendulum_chi_sq_slope(p, length, theta):
    """Oracle: hand-derived d(chi^2)/dt of a pendulum limb swinging at
    ``theta`` with gait phase 0."""
    v1, phi = math.hypot(*p.initial_velocity), p.gait_frequency

    def slope(t):
        t = np.asarray(t, float)
        sin_g, cos_g = np.sin(phi * t), np.cos(phi * t)
        swing = theta * sin_g
        return (2.0 * length * v1 * theta * phi * phi
                * (sin_g * np.cos(swing) + theta * cos_g * cos_g * np.sin(swing))
                - 2.0 * length * length * theta * theta * phi ** 3 * sin_g * cos_g)

    return slope


NONLINEAR = sorted(name for name, model in FAMILIES.items() if model.nonlinear_count)


class TestCurveFitting:
    def test_quadratic_through_three_points(self):
        model = CurveModel(
            3, (), (),
            value=lambda t: 1.0 + np.asarray(t, float) + np.asarray(t, float) ** 2,
            basis_builder=lambda _: [lambda t: np.ones_like(t), lambda t: t,
                                     lambda t: t * t],
            window=2.0)
        fit = fit_curve_model(model, [0.0, 1.0, 2.0])     # values 1, 3, 7
        assert fit.coefficients == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_two_points_rank_deficient(self):
        model = CurveModel(
            3, (), (),
            value=lambda t: np.asarray(t, float) ** 2,
            basis_builder=lambda _: [lambda t: np.ones_like(t), lambda t: t,
                                     lambda t: t * t],
            window=2.0)
        fit = fit_curve_model(model, [0.0, 1.0])
        assert fit.rank == 2

    def test_nonlinear_family_fitted_from_few_points(self):
        # three points for four unknowns: the parameters still come from the
        # fit, never from the family's true values
        model = FAMILIES["insitu_d2"]
        ts = [t for t, _ in model.keypoints_detailed()][:3]
        with mock.patch.object(mncp, "_multistart_fit",
                               wraps=mncp._multistart_fit) as fit:
            report = fit_curve_model(model, ts)
        fit.assert_called_once()
        assert len(report.nonlinear) == model.nonlinear_count

    def test_hand_curve_reconstruction(self):
        model = curve_models(default_scene())["walk_hand_r2"]
        fit = fit_curve_model(model, [t for t, _ in model.keypoints_detailed()])
        assert fit.grid_rms < 1e-6

    def test_noiseless_self_family_property(self):
        # any family refits its own samples whenever enough points are given
        rng = np.random.default_rng(9)
        for name, model in curve_models(default_scene()).items():
            if model.nonlinear_count:
                continue
            ts = np.sort(rng.random(model.linear_count + 3) * model.window)
            fit = fit_curve_model(model, ts)
            a = model.design_matrix(ts)
            if np.linalg.cond(a.T @ a) < 1e8:
                assert fit.residual_rms < 1e-8 * max(
                    1.0, float(np.sqrt(np.mean(model.value(ts) ** 2)))), name


class TestVerifyMncp:
    def test_all_families(self):
        for name, model in curve_models(default_scene()).items():
            report = verify_mncp(model)
            assert report.sufficient_at_mncp, name
            if report.deficient_below is not None:
                assert report.deficient_below, name

    def test_linear_families_forced_deficiency(self):
        models = curve_models(default_scene())
        for name in ("walk_head_r2", "walk_torso_r2", "walk_hand_r2",
                     "walk_foot_r2", "walk_head_d2", "walk_torso_d2"):
            report = verify_mncp(models[name])
            assert report.deficient_below is True

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(position=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
           velocity=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
           gait_frequency=st.floats(1.05 * math.pi, 3.95 * math.pi))
    @example(position=(3.0, 0.0), velocity=(-0.6, 1.0), gait_frequency=2 * math.pi)
    @example(position=(3.0, 0.0), velocity=(0.0, 0.0), gait_frequency=2 * math.pi)
    def test_walking_families_across_scenes(self, position, velocity,
                                            gait_frequency):
        """The linear walking families reconstruct from their MNCP points
        and not from one fewer on any scene.  The two nonlinear ones do not
        on every scene (the fit can miss, or five key points can fit
        another swing angle), so their verdicts are checked against key
        points from the hand-derived slope instead of the numeric one."""
        p = default_scene(initial_position=position, initial_velocity=velocity,
                          gait_frequency=gait_frequency)
        walk = activity("S8")
        for name, model in curve_models(p).items():
            if not name.startswith("walk"):
                continue
            report = verify_mncp(model)
            if not model.nonlinear_count:
                assert report.sufficient_at_mncp and report.deficient_below, name
                continue
            node = NodeId.HAND_L if "hand" in name else NodeId.FOOT_R
            length = p.arm_length if node is NodeId.HAND_L else p.leg_length
            analytic = motion.select_keypoints_detailed(pendulum_chi_sq_slope(
                p, length, walk.node(node).swing_angle), model.window, model.mncp)
            with mock.patch.object(CurveModel, "keypoints_detailed",
                                   lambda _: analytic):
                ref = verify_mncp(model)
            assert [t for t, _ in model.keypoints_detailed()] == pytest.approx(
                [t for t, _ in analytic], abs=1e-8), name
            assert (report.sufficient_at_mncp, report.deficient_below) == (
                ref.sufficient_at_mncp, ref.deficient_below), name

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(position=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
           quarter_time=st.floats(0.26, 1.95))
    @example(position=(3.0, 0.0), quarter_time=1.0)
    @example(position=(0.0, 0.0), quarter_time=0.26)
    @example(position=(-6.0, 6.0), quarter_time=1.95)
    @example(position=(3.0, 0.0), quarter_time=0.285).xfail(
        reason="optimizer miss: the fit settles at omega 1.96 (truth 5.51)",
        raises=AssertionError)
    @example(position=(3.0, 0.0), quarter_time=0.3)
    def test_in_situ_families_across_scenes(self, position, quarter_time):
        """The in-situ families, S5's head, reconstruct from their MNCP
        points at any position and quarter time.  Between quarter times of
        about 0.27 and 0.33 s insitu_r2 may not (ROADMAP item 12's two
        causes); the known optimizer miss is kept as a strict example.  At
        0.3 s two phases fit the picks to rounding, and the truth's is the
        lower-rms alias that ``_pick_alias`` takes."""
        models = curve_models(default_scene(initial_position=position,
                                            in_situ_quarter_time=quarter_time))
        for name in ("insitu_r2", "insitu_d2"):
            report = verify_mncp(models[name])
            assert report.sufficient_at_mncp, (name, report.fit.grid_rms_rel)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 11: the numeric second derivative places the S5 "
        "torso's inflection key points only to about 1e-4"))
    def test_in_situ_torso_distance_sufficient(self):
        # S5's torso has the head's family, but two of its five key points
        # are inflections; with the numeric rule it fits to 1.35e-4
        p = default_scene()
        torso = node_curve(NodeId.TORSO, dataclasses.replace(p, wall_path=0.0),
                           activity("S5"), "r2")
        model = dataclasses.replace(curve_models(p)["insitu_r2"], value=torso)
        assert verify_mncp(model).sufficient_at_mncp

    def test_nonlinear_families_report_fit_only(self):
        models = curve_models(default_scene())
        for name in ("walk_hand_d2", "walk_foot_d2", "insitu_r2", "insitu_d2"):
            report = verify_mncp(models[name])
            assert report.deficient_below is None
            tol = 1e-4
            assert report.fit.grid_rms_rel < tol, name


class TestDesignOracles:
    """Filled design matrices and one-call stencils equal the stacked,
    shift-by-shift construction bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2 ** 31 - 1),
           st.integers(1, 12))
    def test_designs_match_oracles(self, name, seed, n):
        model = FAMILIES[name]
        rng = np.random.default_rng(seed)
        ts = rng.random(n) * model.window
        bounds = np.asarray(model.nonlinear_bounds, dtype=float).reshape(-1, 2)
        nonlinear = tuple(bounds[:, 0] + rng.random(len(bounds))
                          * (bounds[:, 1] - bounds[:, 0]))
        for nl in (None, nonlinear):
            got = model.design_matrix(ts, nl)
            assert got.shape == (n, model.linear_count)
            assert np.array_equal(got, column_stack_design(model, ts, nl))
        for order, oracle in SHIFTWISE_DESIGNS.items():
            got = mncp._derivative_design(model, ts, nonlinear, order)
            want = oracle(model, ts, nonlinear)
            # bit for bit, the signs of zeros included
            assert np.array_equal(got, want), order
            assert np.array_equal(np.signbit(got), np.signbit(want)), order

    def test_scalar_and_empty_times(self):
        for model in FAMILIES.values():
            for ts in (1.25, np.zeros(0)):
                assert np.array_equal(model.design_matrix(ts),
                                      column_stack_design(model, ts))
                assert (model.design_matrix(ts).shape
                        == column_stack_design(model, ts).shape)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(NONLINEAR), st.integers(0, 2 ** 31 - 1),
           st.integers(1, 12), st.integers(1, 8))
    def test_batched_designs_match_stacked(self, name, seed, n, k):
        model = FAMILIES[name]
        rng = np.random.default_rng(seed)
        ts = rng.random(n) * model.window
        ys = rng.random(n)
        slope_ts, inflection_ts = ts[:n // 2], ts[n // 2:]
        bounds = np.asarray(model.nonlinear_bounds, dtype=float)
        stack = bounds[:, 0] + rng.random((k, len(bounds))) * (bounds[:, 1] - bounds[:, 0])

        def stacked(build):
            return np.stack([build(tuple(nl)) for nl in stack])

        got = model.design_matrix(ts, stack)
        assert got.shape == (k, n, model.linear_count)
        assert np.array_equal(got, stacked(lambda nl: model.design_matrix(ts, nl)))
        for order, oracle in SHIFTWISE_DESIGNS.items():
            got = mncp._derivative_design(model, ts, stack, order)
            want = stacked(lambda nl: oracle(model, ts, nl))
            assert np.array_equal(got, want), order
            assert np.array_equal(np.signbit(got), np.signbit(want)), order
        a, y = mncp._augmented_system(model, ts, ys, stack, slope_ts, inflection_ts)
        assert np.array_equal(a, stacked(lambda nl: mncp._augmented_system(
            model, ts, ys, nl, slope_ts, inflection_ts)[0]))
        assert np.array_equal(y, mncp._augmented_system(
            model, ts, ys, tuple(stack[0]), slope_ts, inflection_ts)[1])

    def test_verify_mncp_matches_oracles(self):
        def reports():
            return {name: verify_mncp(model) for name, model in FAMILIES.items()}

        stacks = []

        def design_oracle(model, ts, nonlinear=None):
            stacks.append(np.ndim(nonlinear) == 2)
            return column_stack_design(model, ts, nonlinear)

        fast = reports()
        with mock.patch.object(CurveModel, "design_matrix", design_oracle), \
                mock.patch.object(mncp, "_derivative_design",
                                  lambda model, ts, nl, order:
                                  SHIFTWISE_DESIGNS[order](model, ts, nl)):
            slow = reports()
        for name, report in fast.items():
            ref = slow[name]
            assert (report.sufficient_at_mncp, report.deficient_below) == (
                ref.sufficient_at_mncp, ref.deficient_below)
            assert np.array_equal(report.fit.coefficients, ref.fit.coefficients), name
            for field in ("nonlinear", "residual_rms", "grid_rms", "grid_rms_rel",
                          "rank"):
                assert getattr(report.fit, field) == getattr(ref.fit, field), (name, field)
        assert any(stacks)      # the multistart fit built its systems in stacks


class TestLockstepFit:
    """The lockstep Levenberg-Marquardt fit against one scipy trust-region
    fit per start (``trf_multistart_fit``).

    The two optimizers take different paths, so from the same 32 starts
    either may reach the global minimum where the other does not: over
    560 fits on random scenes, only the oracle reconstructed
    1 curve and only the lockstep fit 9.  The scenes are therefore drawn
    from a fixed seed.
    """

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(name=st.sampled_from(NONLINEAR),
           gait_frequency=st.floats(1.05 * math.pi, 3.95 * math.pi),
           quarter_time=st.floats(0.26, 1.95),
           arm_angle=st.floats(0.2, 1.5), leg_angle=st.floats(0.2, 1.5))
    @example(name="walk_hand_d2", gait_frequency=2 * math.pi, quarter_time=1.0,
             arm_angle=math.pi / 6, leg_angle=math.pi / 4)
    @example(name="walk_foot_d2", gait_frequency=2 * math.pi, quarter_time=1.0,
             arm_angle=math.pi / 6, leg_angle=math.pi / 4)
    @example(name="insitu_r2", gait_frequency=2 * math.pi, quarter_time=1.0,
             arm_angle=math.pi / 6, leg_angle=math.pi / 4)
    @example(name="insitu_d2", gait_frequency=2 * math.pi, quarter_time=1.0,
             arm_angle=math.pi / 6, leg_angle=math.pi / 4)
    def test_matches_trust_region_oracle(self, name, gait_frequency, quarter_time,
                                         arm_angle, leg_angle):
        model = scene_families(gait_frequency, quarter_time, arm_angle,
                               leg_angle)[name]
        fast = verify_mncp(model)
        with mock.patch.object(mncp, "_multistart_fit", trf_multistart_fit):
            ref = verify_mncp(model)
        # where MNCP points do not pin the curve for the oracle either, no
        # fit is expected to
        assume(ref.fit.grid_rms_rel < 1e-4)
        assert fast.sufficient_at_mncp
        assert fast.fit.grid_rms_rel < 1e-4
        # as deep a minimum at the key points as the fit's tie rule can tell
        ys = model.value(np.asarray([t for t, _ in model.keypoints_detailed()]))
        tie = 1e-9 * (1.0 + float(np.sqrt(np.mean(ys ** 2))))
        assert fast.fit.residual_rms <= ref.fit.residual_rms + tie
        # below 1e-7 both fits sit at the key-point residual's floor, where
        # the last accepted step and the pick among tied aliases set the digits
        assert fast.fit.grid_rms_rel <= max(2.0 * ref.fit.grid_rms_rel, 1e-7)
        freq, ref_freq = fast.fit.nonlinear[0], ref.fit.nonlinear[0]
        truth = model.nonlinear_truth[0]
        # where the key points pin the frequency only loosely (the oracle
        # itself is off by more), it must be at most twice as far off
        assert (abs(freq - ref_freq) <= 1e-8 * ref_freq
                or abs(freq - truth) <= 2.0 * abs(ref_freq - truth))

    def test_alias_pick_takes_lowest_rms_at_the_smallest_frequency(self):
        theta = np.array([[2.0, 6.2], [2.0 * (1 + 5e-10), 0.01],
                          [2.0 * (1 + 2e-9), -3.1], [4.0, 0.0], [1.0, 0.0]])
        rms = np.array([3e-10, 1e-10, 0.5e-10, 0.0, 5e-9])
        # 1.0 is not tied (5e-9 > tie), the harmonic 4.0 loses to 2.0, and of
        # 2.0's phases the lower rms wins; 2 (1 + 2e-9) is another frequency
        assert mncp._pick_alias(theta, rms, 1e-9) == (2.0 * (1 + 5e-10), 0.01)
        # equal rms: the first start
        assert mncp._pick_alias(theta[:2], np.zeros(2), 1e-9) == (2.0, 6.2)

    @pytest.mark.parametrize("name, scene, max_rms_rel", [
        # two phases fit the five picks to rounding (1.4e-15 and 4.3e-15);
        # the lower one is the truth's
        ("insitu_r2", dict(initial_position=(3.0, 0.0), in_situ_quarter_time=0.3),
         1e-10),
        # four aliases of one frequency, all at grid_rms_rel 2.5e-6
        ("insitu_d2", dict(gait_frequency=9.192, in_situ_quarter_time=1.382), 3e-6)])
    def test_tied_aliases_land_on_the_truth_phase(self, name, scene, max_rms_rel):
        model = curve_models(default_scene(**scene))[name]
        report = verify_mncp(model)
        assert report.sufficient_at_mncp
        assert report.fit.grid_rms_rel <= max_rms_rel
        psi, truth = report.fit.nonlinear[1], model.nonlinear_truth[1]
        assert abs(math.remainder(psi - truth, math.pi)) < 1e-4

    def test_halton_starts(self):
        assert np.allclose(mncp._halton(4, 2), [[1 / 2, 1 / 3], [1 / 4, 2 / 3],
                                                   [3 / 4, 1 / 9], [1 / 8, 4 / 9]],
                           rtol=0.0, atol=1e-15)
        for dim in range(1, 5):
            for n in (1, 7, 32, 100):
                assert np.array_equal(mncp._halton(n, dim), qmc.Halton(
                    dim, scramble=False).random(n + 1)[1:]), (n, dim)
        with pytest.raises(ValueError, match="at most 4"):
            mncp._halton(8, 5)


class TestFamilies:
    def test_mncp_walking(self):
        models = curve_models(default_scene())
        table = {kind: [models[f"walk_{family}_{kind}"].mncp for family in NODE_FAMILIES]
                 for kind in ("r2", "d2")}
        assert table["r2"] == [3, 3, 6, 6, 6, 6]
        assert sum(table["r2"]) == 30
        assert table["d2"] == [1, 1, 5, 5, 5, 5]
        assert sum(table["d2"]) == 22

    def test_mncp_in_situ(self):
        models = curve_models(default_scene())
        table = {kind: [models[f"insitu_{kind}"].mncp] * len(NODE_FAMILIES)
                 for kind in ("r2", "d2")}
        assert table["r2"] == [5] * 6
        assert table["d2"] == [5] * 6
        assert sum(table["d2"]) == 30

    def test_families_are_node_curves(self):
        # every family is one catalog node's curve in free space
        rows = {"walk_head_r2": ("S8", NodeId.HEAD, "r2"),
                "walk_torso_r2": ("S8", NodeId.TORSO, "r2"),
                "walk_head_d2": ("S8", NodeId.HEAD, "d2"),
                "walk_torso_d2": ("S8", NodeId.TORSO, "d2"),
                "walk_hand_r2": ("S8", NodeId.HAND_L, "r2"),
                "walk_foot_r2": ("S8", NodeId.FOOT_R, "r2"),
                "walk_hand_d2": ("S8", NodeId.HAND_L, "d2"),
                "walk_foot_d2": ("S8", NodeId.FOOT_R, "d2"),
                "insitu_r2": ("S5", NodeId.HEAD, "r2"),
                "insitu_d2": ("S5", NodeId.HEAD, "d2")}
        p = default_scene(initial_position=(3.0, 0.0), in_situ_quarter_time=0.7)
        models = curve_models(p)
        assert set(models) == set(rows)
        free = dataclasses.replace(p, wall_path=0.0)
        grid = np.linspace(0.0, p.window, 1001)
        for name, (label, node, kind) in rows.items():
            curve = node_curve(node, free, activity(label), kind)
            assert np.array_equal(models[name].value(grid), curve(grid)), name

    def test_gram_full_rank(self):
        for name, model in curve_models(default_scene()).items():
            a = model.design_matrix(np.linspace(0.0, model.window, 512))
            assert np.linalg.matrix_rank(a.T @ a) == model.linear_count, name


class TestVerifyCommand:
    def test_table(self, capsys):
        """``mncp-verify`` prints one row per family in ``curve_models``
        order: its MNCP, the verdict, and the criterion with its tolerance.
        The criterion's digits depend on numpy's SIMD level, so only their
        format is checked."""
        assert main(["mncp-verify"]) == 0
        rows = [re.fullmatch(r"(\S+) +mncp=(\d+) sufficient=(\w+) "
                             r"deficient_below=(\S+) (\w+)=\d\.\d{3}e[+-]\d\d "
                             r"\(tol (\S+)\)", line).groups()
                for line in capsys.readouterr().out.splitlines()]
        linear = [("walk_head_r2", "3"), ("walk_torso_r2", "3"), ("walk_head_d2", "1"),
                  ("walk_torso_d2", "1"), ("walk_hand_r2", "6"), ("walk_foot_r2", "6")]
        nonlinear = ["walk_hand_d2", "walk_foot_d2", "insitu_r2", "insitu_d2"]
        assert rows == (
            [(name, count, "True", "true", "grid_rms", "1e-06") for name, count in linear]
            + [(name, "5", "True", "n/a", "grid_rms_rel", "1e-04") for name in nonlinear])
        assert [name for name, *_ in rows] == list(FAMILIES)
