"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-size clean
pipeline results for S2..S12 are computed once (session fixture) and shared
by the corner-fidelity, robustness and PSNR criteria.
"""

import itertools
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from mdcl.activities import activity
from mdcl.cli import main
from mdcl.config import PipelineConfig, serialize_config
from mdcl.echo import C_LIGHT, EchoFrame, RadarConfig, synth_frame
from mdcl.maps import AxisSpec, ProfileMap
from mdcl.metrics import emd_distance, psnr
from mdcl.mncp import curve_models, verify_mncp
from mdcl.motion import node_curve
from mdcl.preprocess import beat_spectrum, mti_filter, preprocess_frame
from mdcl.scene import NodeId
from mdcl.squaring import render_squared, squared_source_rows
from mdcl.pipeline import sweep_noise, sweep_summary

from conftest import default_scene, head_radar, row_value


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:02d}] {name}: {state} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}): {detail}"


ACTIVE = [f"S{i}" for i in range(2, 13)]


def test_criterion_01_algorithm_conformance():
    start = time.perf_counter()

    def range_map(col):
        col = np.asarray(col, dtype=float)
        return ProfileMap(col[:, None], AxisSpec("range", 0.0, float(col.size),
                                                 col.size), 4.0)

    ok = render_squared(range_map([0.0, 1.0, 0.5]), 9).data[:, 0].tolist() == \
        [0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5]
    col = np.array([1.0, 0.25, 0.5, 0.0])
    ok &= col[squared_source_rows(col.size, "doppler")].tolist() == \
        [1.0, 1.0, 1.0, 0.25, 0.5, 0.0, 0.0, 0.0]
    for l in range(1, 65):
        ok &= squared_source_rows(l, "range").size == l * l
    for q in range(2, 65, 2):
        ok &= squared_source_rows(q, "doppler").size == 2 * (q // 2) ** 2
    elapsed = time.perf_counter() - start
    report(1, "vertical-axis squaring conformance", ok and elapsed < 1.0,
           f"(exact stretch + row-count laws, {elapsed:.2f}s)")


def test_criterion_02_emd_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 4))
        a, b = rng.random((n, dim)), rng.random((n, dim))
        cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        brute = min(sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))) / n
        worst = max(worst, abs(emd_distance(a, b) - brute))
    axioms = True
    for _ in range(1000):
        a, b = rng.random((30, 2)), rng.random((30, 2))
        d = emd_distance(a, b)
        axioms &= d >= 0
        axioms &= abs(d - emd_distance(b, a)) < 1e-12
        axioms &= d <= np.sqrt(2.0) + 1e-12
        axioms &= emd_distance(a, a[::-1]) < 1e-12
    elapsed = time.perf_counter() - start
    report(2, "assignment EMD equals exhaustive minimum",
           worst < 1e-9 and axioms and elapsed < 30.0,
           f"(max |diff| {worst:.2e}, axioms on 1000 clouds, {elapsed:.1f}s)")


def test_criterion_03_mncp_sufficiency():
    start = time.perf_counter()
    failures = []
    for name, model in curve_models(default_scene()).items():
        rep = verify_mncp(model)
        tol = 1e-6 if not model.nonlinear_count else 1e-4
        metric = rep.fit.grid_rms if not model.nonlinear_count else rep.fit.grid_rms_rel
        if not (rep.sufficient_at_mncp and metric < tol):
            failures.append(f"{name} metric={metric:.2e}")
        if rep.deficient_below is not None and not rep.deficient_below:
            failures.append(f"{name} not rank-deficient below MNCP")
    elapsed = time.perf_counter() - start
    report(3, "curve families reconstruct from their MNCP points",
           not failures and elapsed < 60.0,
           f"(10 families, {elapsed:.1f}s)" + (f" {failures}" if failures else ""))


def test_criterion_04_corner_fidelity(clean_results):
    worst = ("", 0.0)
    per_activity_runtime_ok = True
    for label in ACTIVE:
        res = clean_results[label]
        for which in ("emd_r", "emd_d"):
            if res.metrics[which] > worst[1]:
                worst = (f"{label}/{which}", res.metrics[which])
        per_activity_runtime_ok &= sum(res.timings.values()) < 60.0
    ok = worst[1] < 0.35 and per_activity_runtime_ok
    report(4, "clean-pipeline corner clouds match analytic truth", ok,
           f"(worst EMD {worst[1]:.3f} at {worst[0]}, bound 0.35)")


def test_criterion_05_noise_robustness(clean_full_config, clean_results):
    cfg = clean_full_config
    rows = sweep_noise(cfg, clean_results, drops=[4.0, 8.0, 12.0], n_seeds=10)
    summary = sweep_summary(rows)
    drops = sorted(summary)
    mean12 = summary[12.0]["mean"]
    monotone = all(
        summary[drops[i + 1]]["mean"] >= summary[drops[i]]["mean"]
        - (summary[drops[i]]["sem"] + summary[drops[i + 1]]["sem"])
        for i in range(len(drops) - 1))
    detail = " ".join(f"{d:g}dB:{summary[d]['mean']:.3f}" for d in drops)
    report(5, "image-noise robustness", mean12 < 0.5 and monotone,
           f"({detail}; 12 dB bound 0.5; monotone within 1 SE)")


def test_criterion_06_signal_physics():
    # MTI suppression of the static wall
    cfg = RadarConfig()
    frame = synth_frame(default_scene(), activity("S1"), cfg, None)
    rc = np.fft.fft(frame.data, axis=1).T
    p_in = np.mean(np.abs(rc) ** 2)
    p_out = np.mean(np.abs(mti_filter(rc)) ** 2)
    suppression = 10 * np.log10(p_in / max(p_out, 1e-300))

    # DTM ridge of a constant-velocity scatterer at 2 fc v / c
    p = default_scene(initial_position=(3.0, 0.0), initial_velocity=(-1.0, 0.0),
                      radar_height=1.65, wall_path=0.0, window=2.0,
                      gait_frequency=2 * np.pi)
    radar = head_radar(window_s=2.0, slow_samples=512, fast_samples=512)
    _, dtm = preprocess_frame(synth_frame(p, activity("S8"), radar, None),
                              PipelineConfig().preprocessing.emd_params())
    freq = float(row_value(dtm.axis, int(np.argmax(dtm.data[:, 256]))))
    bin_hz = (dtm.axis.hi - dtm.axis.lo) / dtm.axis.n
    doppler_ok = abs(abs(freq) - 2 * radar.carrier_hz * 1.0 / C_LIGHT) <= bin_hz

    # range resolution c / 2B between two resolvable scatterers
    head_only = head_radar()
    frame_a = synth_frame(default_scene(initial_position=(3.0, 0.0),
                                        initial_velocity=(0.0, 0.0),
                                        radar_height=1.65, wall_path=0.0),
                          activity("S8"), head_only, None)
    frame_b = synth_frame(default_scene(initial_position=(3.5, 0.0),
                                        initial_velocity=(0.0, 0.0),
                                        radar_height=1.65, wall_path=0.0),
                          activity("S8"), head_only, None)
    rc_ab, _ = beat_spectrum(EchoFrame(frame_a.data + frame_b.data, head_only))
    profile = np.abs(rc_ab[:, 0])
    peaks = sorted(np.argsort(profile)[-2:])
    sep = (peaks[1] - peaks[0]) * head_only.range_bin
    resolution_ok = (abs(sep - 0.5) <= head_only.range_bin
                     and head_only.range_bin == pytest.approx(0.075, abs=1e-4))

    ok = suppression >= 40.0 and doppler_ok and resolution_ok
    report(6, "signal-model physics", ok,
           f"(MTI {suppression:.0f} dB; ridge {abs(freq):.1f} Hz vs 10 Hz; "
           f"two-point separation {sep:.3f} m)")


def test_criterion_07_doppler_constancy():
    # the unsimplified model adds the head's vertical undulation rate
    # (alpha phi cos(phi t))^2, alpha = 0.05 m, to the constant |v|^2
    p = default_scene()
    t = np.linspace(0.0, p.window, 4096)
    s8 = activity("S8")
    approx = node_curve(NodeId.HEAD, p, s8, "d2")(t)
    exact = approx + (0.05 * p.gait_frequency * np.cos(p.gait_frequency * t)) ** 2
    rel_rms = float(np.sqrt(np.mean(((exact - approx) / approx) ** 2)))
    report(7, "head/torso squared-velocity constancy", rel_rms < 0.05,
           f"(exact-mode deviation {100 * rel_rms:.2f}% RMS, bound 5%)")


def test_criterion_08_psnr_floor(clean_results):
    exact_ok = psnr(np.full((10, 10), 0.1), np.zeros((10, 10))) == pytest.approx(20.0, abs=1e-9)
    worst = min(clean_results[label].metrics["psnr_r2tm_db"] for label in ACTIVE)
    d2_floor = min(clean_results[label].metrics["psnr_d2tm_db"] for label in ACTIVE)
    report(8, "simulated map PSNR against truth rasters",
           bool(exact_ok and worst > 15.0),
           f"(R2TM floor {worst:.1f} dB > 15 dB; D2TM floor {d2_floor:.1f} dB reported)")


def test_criterion_09_classifiers_out_of_scope():
    report(9, "classifier accuracy tables out of scope", True,
           "(no criterion claims them; back-end networks and measured data "
           "are not part of this toolkit)")


def test_criterion_10_determinism_and_runtime(tmp_path):
    cfg = PipelineConfig()
    cfg.run.seed = 42
    cfg.validate()
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text(serialize_config(cfg), encoding="utf-8")

    out_a = tmp_path / "run_a"
    start = time.perf_counter()
    code_a = main(["run", "--config", str(cfg_path), "--out", str(out_a),
                   "--seed", "42"])
    elapsed = time.perf_counter() - start
    manifest_a = (out_a / "manifest.txt").read_bytes()
    sample_names = ["S8/echo.mdcm", "S8/pc_rd.csv", "S3/r2tm.mdcm",
                    "S11/metrics.csv"]
    samples_a = {name: (out_a / name).read_bytes() for name in sample_names}
    shutil.rmtree(out_a)

    out_b = tmp_path / "run_b"
    code_b = main(["run", "--config", str(cfg_path), "--out", str(out_b),
                   "--seed", "42"])
    manifest_b = (out_b / "manifest.txt").read_bytes()
    samples_b = {name: (out_b / name).read_bytes() for name in sample_names}
    identical = manifest_a == manifest_b and all(
        samples_a[n] == samples_b[n] for n in sample_names)
    ok = code_a == 0 and code_b == 0 and identical and elapsed < 1200.0
    shutil.rmtree(out_b)
    report(10, "seeded runs are bit-identical", ok,
           f"(12 activities in {elapsed:.0f}s < 1200s; manifests and sampled "
           f"artifacts byte-equal)")
