"""Preprocessing tests: range compression, MTI, EMD denoising, STFT maps."""

import numpy as np
import pytest

from mdcl.activities import activity
from mdcl.echo import C_LIGHT, EchoFrame, NoiseConfig, RadarConfig, synth_frame
from mdcl.maps import normalize
from mdcl.preprocess import (beat_spectrum, crop_range_rows, emd_denoise,
                             emd_imfs, make_dtm, mti_filter, preprocess_frame)
from mdcl.scene import NodeId, SceneParams

S8 = activity("S8")
S1 = activity("S1")


def static_scene(x1=3.0):
    return SceneParams(initial_position=(x1, 0.0), initial_velocity=(0.0, 0.0),
                       radar_height=1.65, through_wall=False)


def range_profile(frame):
    """Magnitude of the cropped beat spectrum and its range axis."""
    rc, axis = crop_range_rows(beat_spectrum(frame), frame.config)
    return np.abs(rc), axis


class TestRangeCompress:
    def test_zero_frame(self):
        cfg = RadarConfig()
        frame = EchoFrame(np.zeros((1024, 1024), dtype=complex), cfg)
        mag, axis = range_profile(frame)
        assert np.all(mag == 0)
        assert mag.shape[0] == axis.n == 67     # 5 m / 0.075 m per bin

    def test_single_static_scatterer(self):
        cfg = RadarConfig(reflectivity={NodeId.HEAD: 1.0}, wall_reflectivity=0.0)
        frame = synth_frame(static_scene(), S8, cfg, None)
        mag, _ = range_profile(frame)
        rows = np.argmax(mag, axis=0)
        assert np.all(rows == 40)    # 3 m / 0.075 m

    def test_two_scatterers_resolved(self):
        # head at 3.0 m and torso at 3.5 m: c/2B = 0.075 m resolution
        cfg = RadarConfig(reflectivity={NodeId.HEAD: 1.0, NodeId.TORSO: 1.0},
                          wall_reflectivity=0.0)
        p = SceneParams(initial_position=(3.0, 0.0), initial_velocity=(0.0, 0.0),
                        radar_height=1.65, torso_upper=1.5, torso_lower=0.95,
                        through_wall=False)
        # place the torso off in range by lowering it: torso z_eff custom via
        # position is awkward; use two frames and add them instead
        frame_a = synth_frame(p, S8, RadarConfig(reflectivity={NodeId.HEAD: 1.0},
                                                 wall_reflectivity=0.0), None)
        p_b = SceneParams(initial_position=(3.5, 0.0), initial_velocity=(0.0, 0.0),
                          radar_height=1.65, through_wall=False)
        frame_b = synth_frame(p_b, S8, RadarConfig(reflectivity={NodeId.HEAD: 1.0},
                                                   wall_reflectivity=0.0), None)
        combined = EchoFrame(frame_a.data + frame_b.data, cfg)
        profile = range_profile(combined)[0][:, 0]
        peak_a, peak_b = 40, round(3.5 / 0.075)
        assert peak_b - peak_a == 7
        assert profile[peak_a] > 2 * profile[(peak_a + peak_b) // 2]
        assert profile[peak_b] > 2 * profile[(peak_a + peak_b) // 2]
        local = np.argsort(profile)[-2:]
        assert set(local) == {peak_a, peak_b}


class TestMti:
    def test_constant_input_zeroed(self):
        x = np.tile((1.5 + 0.5j) * np.ones(16), (8, 1))
        out = mti_filter(x)
        assert np.all(out == 0)

    def test_first_column_zero_padded(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        out = mti_filter(x)
        assert np.all(out[:, 0] == 0)
        assert np.allclose(out[:, 1:], x[:, 1:] - x[:, :-1])

    def test_wall_suppressed_at_least_40db(self):
        cfg = RadarConfig()
        frame = synth_frame(SceneParams(), S1, cfg, None)   # wall only
        rc, _ = crop_range_rows(beat_spectrum(frame), cfg)
        p_in = np.mean(np.abs(rc) ** 2)
        p_out = np.mean(np.abs(mti_filter(rc)) ** 2)
        suppression = 10 * np.log10(p_in / max(p_out, 1e-300))
        assert suppression >= 40.0

    def test_doppler_tone_response(self):
        # |1 - exp(-j 2 pi f Ts)| gain on a pure slow-time exponential
        m, n = 256, 8
        ts = 1.0 / 256.0
        f = 17.0
        tone = np.exp(2j * np.pi * f * np.arange(m) * ts)
        x = np.tile(tone, (n, 1))
        out = mti_filter(x)
        gain = np.abs(out[:, 1:]) / np.abs(x[:, 1:])
        expected = abs(1 - np.exp(-2j * np.pi * f * ts))
        assert np.allclose(gain, expected, rtol=1e-9)

    def test_too_few_pris(self):
        with pytest.raises(ValueError):
            mti_filter(np.zeros((4, 1), dtype=complex))


class TestEmdDenoise:
    def test_constant_unchanged(self):
        x = np.full(64, 3.25)
        assert np.array_equal(emd_denoise(x), x)

    def test_ramp_plus_noise_mse_improves(self):
        # Monte Carlo over 100 seeds: denoised MSE strictly below noisy MSE
        n = 256
        clean = np.linspace(0.0, 4.0, n)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.3 * rng.standard_normal(n)
            den = emd_denoise(noisy)
            if np.mean((den - clean) ** 2) < np.mean((noisy - clean) ** 2):
                wins += 1
        assert wins == 100

    def test_pure_noise_power_drops(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(512)
        den = emd_denoise(x)
        assert np.mean(den ** 2) < np.mean(x ** 2)

    def test_complex_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        den = emd_denoise(x)
        assert den.shape == x.shape and np.iscomplexobj(den)

    def test_non_finite_rejected(self):
        x = np.ones(32)
        x[3] = np.nan
        with pytest.raises(ValueError):
            emd_denoise(x)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            emd_denoise(np.ones(4))

    def test_imf_count_bounded(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        assert len(emd_imfs(x)) <= 8


class TestDtm:
    def test_zero_signal(self):
        dtm = make_dtm(np.zeros((4, 256), dtype=complex), 1.0)
        assert np.all(dtm.data == 0)

    def test_pure_tone_ridge(self):
        # exp(j 2 pi 32 t) at fs 256: single ridge at the +32 Hz row
        m = 1024
        fs = 256.0
        t = np.arange(m) / fs
        series = np.exp(2j * np.pi * 32.0 * t)
        dtm = make_dtm(series[None, :].repeat(2, axis=0) / 2.0, m / fs)
        interior = dtm.data[:, 150:-150]
        rows = np.argmax(interior, axis=0)
        freq = dtm.axis.row_to_value(rows)
        assert np.all(np.abs(freq - 32.0) <= 1.0)

    def test_linear_chirp_slope(self):
        # 0 -> 64 Hz over 4 s: per-column ridge frequency slope within 5%
        m = 1024
        fs = 256.0
        t = np.arange(m) / fs
        series = np.exp(2j * np.pi * (64.0 / (2 * 4.0)) * t * t)
        dtm = make_dtm(series[None, :].repeat(2, axis=0) / 2.0, m / fs)
        cols = np.arange(150, m - 150)
        rows = np.argmax(dtm.data[:, cols], axis=0)
        freqs = np.asarray(dtm.axis.row_to_value(rows), dtype=float)
        slope = np.polyfit(t[cols], freqs, 1)[0]
        assert slope == pytest.approx(16.0, rel=0.05)

    def test_column_count_matches_slow_samples(self):
        dtm = make_dtm(np.ones((4, 512), dtype=complex), 2.0)
        assert dtm.cols == 512
        assert dtm.rows == 256      # power-of-two transform size


class TestNormalize:
    def test_affine(self):
        x = np.array([[2.0, 6.0], [4.0, 3.0]])
        out = normalize(x)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[0, 1] == 1.0 and out[0, 0] == 0.0
        assert out[1, 0] == pytest.approx(0.5)

    def test_constant_to_zeros(self):
        assert np.all(normalize(np.full((3, 3), 7.0)) == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.random((16, 16))
        once = normalize(x)
        assert np.allclose(normalize(once), once, atol=1e-15)

    def test_preserves_argmax(self):
        rng = np.random.default_rng(4)
        x = rng.random((32, 32))
        assert np.argmax(normalize(x)) == np.argmax(x)


class TestPipelineDeterminism:
    def test_same_frame_same_maps(self, cfg_small):
        p = cfg_small.scene_params()
        radar = cfg_small.radar_config()
        frame = synth_frame(p, S8, radar, NoiseConfig(target_snr=-16.0, seed=9))
        outs = [preprocess_frame(frame) for _ in range(2)]
        assert np.array_equal(outs[0][0].data, outs[1][0].data)
        assert np.array_equal(outs[0][1].data, outs[1][1].data)

    def test_dtm_ridge_at_doppler_of_real_velocity(self):
        # approaching at 1 m/s: ridge magnitude 2 fc v / c within one bin
        p = SceneParams(initial_position=(3.0, 0.0), initial_velocity=(-1.0, 0.0),
                        radar_height=1.65, through_wall=False, window=2.0,
                        gait_frequency=2 * np.pi)
        radar = RadarConfig(reflectivity={NodeId.HEAD: 1.0}, wall_reflectivity=0.0,
                            pri=2.0 / 512, slow_samples=512, fast_samples=512)
        frame = synth_frame(p, S8, radar, None)
        _, dtm = preprocess_frame(frame)
        col = dtm.data[:, 256]
        freq = float(dtm.axis.row_to_value(int(np.argmax(col))))
        expected = 2 * radar.carrier * 1.0 / C_LIGHT
        bin_hz = (dtm.axis.hi - dtm.axis.lo) / dtm.axis.n
        assert abs(abs(freq) - expected) <= bin_hz
