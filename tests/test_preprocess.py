"""Preprocessing tests: range compression, MTI, EMD denoising, STFT maps."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from mdcl.activities import activity
from mdcl.artifacts import ARTIFACTS
from mdcl.config import PipelineConfig
from mdcl.echo import C_LIGHT, EchoFrame, NoiseConfig, RadarConfig, synth_frame
from mdcl.maps import normalize
from mdcl.preprocess import (_FFT_ROWS, STFT_HOP, STFT_SIZE, _denoise_block, _first_modes,
                             beat_spectrum, denoise_rows, doppler_axis, emd_denoise,
                             make_dtm, mti_filter, preprocess_frame, range_axis,
                             stft_magnitude)

from conftest import default_scene, head_radar, row_value

S8 = activity("S8")
S1 = activity("S1")
EMD = PipelineConfig().preprocessing.emd_params()
SD_STOP, MAX_SIFTS = EMD


def denoise_sequence(x):
    """One real sequence with its first mode removed (unclipped)."""
    return _denoise_block(x[None, :], *EMD)[0]


def static_scene(x1=3.0):
    return default_scene(initial_position=(x1, 0.0), initial_velocity=(0.0, 0.0),
                         radar_height=1.65, wall_path=0.0)


def range_profile(frame):
    """Magnitude of the cropped beat spectrum and its range axis."""
    rc, axis = beat_spectrum(frame)
    return np.abs(rc), axis


def full_mti(frame):
    """MTI over every beat bin of the uncropped spectrum, in complex128."""
    return mti_filter(np.fft.fft(frame.data.astype(complex), axis=1).T)


def leading_series(frame):
    """The DTM's input: MTI of N times each PRI's leading fast-time sample."""
    return mti_filter(frame.data.shape[1] * frame.data[:, :1].T.astype(complex))[0]


def oracle_dtm(frame, emd_params):
    """The DTM from the coherent sum of every MTI-filtered beat bin."""
    return make_dtm(full_mti(frame).sum(axis=0), frame.config, emd_params)


class TestRangeCompress:
    def test_zero_frame(self):
        cfg = RadarConfig()
        frame = EchoFrame(np.zeros((1024, 1024), dtype=complex), cfg)
        mag, axis = range_profile(frame)
        assert np.all(mag == 0)
        assert mag.shape[0] == axis.n == 67     # 5 m / 0.075 m per bin

    def test_single_static_scatterer(self):
        cfg = head_radar()
        frame = synth_frame(static_scene(), S8, cfg, None)
        mag, _ = range_profile(frame)
        rows = np.argmax(mag, axis=0)
        assert np.all(rows == 40)    # 3 m / 0.075 m

    def test_two_scatterers_resolved(self):
        # head at 3.0 m and torso at 3.5 m: c/2B = 0.075 m resolution
        cfg = head_radar(reflectivity_torso=1.0)
        p = default_scene(initial_position=(3.0, 0.0), initial_velocity=(0.0, 0.0),
                          radar_height=1.65, torso_upper=1.5, torso_lower=0.95,
                          wall_path=0.0)
        # place the torso off in range by lowering it: torso z_eff custom via
        # position is awkward; use two frames and add them instead
        frame_a = synth_frame(p, S8, head_radar(), None)
        p_b = default_scene(initial_position=(3.5, 0.0), initial_velocity=(0.0, 0.0),
                            radar_height=1.65, wall_path=0.0)
        frame_b = synth_frame(p_b, S8, head_radar(), None)
        combined = EchoFrame(frame_a.data + frame_b.data, cfg)
        profile = range_profile(combined)[0][:, 0]
        peak_a, peak_b = 40, round(3.5 / 0.075)
        assert peak_b - peak_a == 7
        assert profile[peak_a] > 2 * profile[(peak_a + peak_b) // 2]
        assert profile[peak_b] > 2 * profile[(peak_a + peak_b) // 2]
        local = np.argsort(profile)[-2:]
        assert set(local) == {peak_a, peak_b}


    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("m", [1, _FFT_ROWS - 1, _FFT_ROWS, 2 * _FFT_ROWS + 3])
    def test_blocks_match_whole_frame_fft(self, m, dtype):
        # the blocked, cropped transform is the widened whole frame's, bit
        # for bit, for PRI counts that are not a multiple of the block too
        cfg = RadarConfig(slow_samples=m, fast_samples=256)
        rng = np.random.default_rng(m)
        data = (rng.standard_normal((m, 256))
                + 1j * rng.standard_normal((m, 256))).astype(dtype)
        rows, axis = beat_spectrum(EchoFrame(data, cfg))
        whole = np.fft.fft(data.astype(complex), axis=1)[:, :axis.n].T
        assert rows.dtype == whole.dtype == np.complex128
        assert rows.shape == whole.shape == (67, m)
        assert rows.tobytes() == whole.tobytes()


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
        frame = synth_frame(default_scene(), S1, cfg, None)   # wall only
        rc, _ = beat_spectrum(frame)
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


# ---------------------------------------------------------------------------
# per-row CubicSpline EMD: the reference the lockstep sifting must equal
# ---------------------------------------------------------------------------

def oracle_extrema(x):
    d = np.diff(x)
    maxima = np.nonzero((d[:-1] > 0) & (d[1:] < 0))[0] + 1
    minima = np.nonzero((d[:-1] < 0) & (d[1:] > 0))[0] + 1
    return maxima, minima


def oracle_envelope(idx, x):
    """Cubic spline through the extrema, anchored at the endpoints."""
    n = x.size
    t = idx.astype(float)
    v = x[idx]
    if idx[0] != 0:
        t = np.concatenate(([0.0], t))
        v = np.concatenate(([x[0]], v))
    if idx[-1] != n - 1:
        t = np.concatenate((t, [float(n - 1)]))
        v = np.concatenate((v, [x[-1]]))
    return CubicSpline(t, v)(np.arange(n))


def oracle_sift(x, sd_stop, max_sifts):
    """(mode, sifts made); the mode is None when a sift finds too few extrema."""
    h = x
    for k in range(max_sifts):
        maxima, minima = oracle_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None, k
        mean = 0.5 * (oracle_envelope(maxima, h) + oracle_envelope(minima, h))
        h_new = h - mean
        denom = np.sum(h * h)
        sd = np.sum((h - h_new) ** 2) / denom if denom > 0 else 0.0
        h = h_new
        if sd < sd_stop:
            return h, k + 1
    return h, max_sifts


def oracle_imfs(x, max_imfs=8, sd_stop=SD_STOP, max_sifts=MAX_SIFTS):
    """All modes of one row, and why the decomposition stopped."""
    residue = np.asarray(x, dtype=float).copy()
    total = float(np.sum(residue * residue))
    imfs = []
    if total == 0.0:
        return imfs, "zero"
    for _ in range(max_imfs):
        if np.sum(residue * residue) < 1e-10 * total:
            return imfs, "energy"
        imf, sifts = oracle_sift(residue, sd_stop, max_sifts)
        if imf is None:
            return imfs, "extrema mid-mode" if sifts else "extrema"
        imfs.append(imf)
        residue = residue - imf
    return imfs, "max_imfs"


def oracle_near_nyquist(imf, max_spacing=3.0):
    signs = np.sign(imf)
    signs = signs[signs != 0]
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if crossings == 0:
        return False
    return imf.size / crossings <= max_spacing


def oracle_denoise(x, max_imfs=8, sd_stop=SD_STOP, max_sifts=MAX_SIFTS):
    if np.iscomplexobj(x):
        return (oracle_denoise(x.real, max_imfs, sd_stop, max_sifts)
                + 1j * oracle_denoise(x.imag, max_imfs, sd_stop, max_sifts))
    imfs, _ = oracle_imfs(x, max_imfs, sd_stop, max_sifts)
    if len(imfs) < 3 or not oracle_near_nyquist(imfs[0]):
        return x.astype(float, copy=True)
    return x - imfs[0]


ROW_KINDS = ("noise", "quantised", "zero", "constant", "tone", "chirp",
             "sparse", "one_mode")


def emd_row(kind, n, rng):
    t = np.arange(n, dtype=float)
    if kind == "noise":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if kind == "quantised":             # plateaus and exact ties
        return np.round(rng.standard_normal(n) * 1.5)
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-5, 5))
    if kind == "tone":
        return np.sin(2 * np.pi * rng.uniform(0.02, 0.5) * t + rng.uniform(0, 6))
    if kind == "chirp":                 # extrema often run out mid-mode
        return np.sin(2 * np.pi * rng.uniform(0.001, 0.01) * t * t)
    if kind == "sparse":
        x = np.zeros(n)
        x[rng.integers(0, n, 4)] = rng.standard_normal(4)
        return x
    # both envelopes are one parabola up to sign: the first mode is the
    # whole row and the energy stop ends the decomposition
    return (-1.0) ** t * t * (n - 1 - t) * rng.uniform(0.1, 10)


def assert_matches_oracle(block, sd_stop=SD_STOP, max_sifts=MAX_SIFTS):
    """Lockstep modes and denoised rows equal the oracle's, row for row."""
    first, n_modes = _first_modes(block, sd_stop, max_sifts)
    stops = []
    for row, got_first, got_modes in zip(block, first, n_modes):
        imfs, stop = oracle_imfs(row, sd_stop=sd_stop, max_sifts=max_sifts)
        stops.append(stop)
        assert got_modes == min(len(imfs), 3)
        if imfs:
            assert np.array_equal(got_first, imfs[0])
    expected = np.stack([oracle_denoise(row, sd_stop=sd_stop, max_sifts=max_sifts)
                         for row in block])
    assert np.array_equal(denoise_rows(block, sd_stop, max_sifts),
                          np.clip(expected, 0.0, None))
    return stops


class TestLockstepEmd:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(8, 1024),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
           max_sifts=st.integers(1, 10),
           sd_stop=st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]))
    def test_matches_cubic_spline_oracle(self, seed, n, kinds, max_sifts,
                                         sd_stop):
        rng = np.random.default_rng(seed)
        block = np.stack([emd_row(kind, n, rng) for kind in kinds])
        for stop in assert_matches_oracle(block, sd_stop, max_sifts):
            event(stop)

    def test_rows_finish_in_different_rounds(self):
        """One block holds every way a row stops, so its rows finish in
        different rounds: all-zero rows before the first, constant rows in
        the first, the one-mode row after one sift, noise rows after three
        modes."""
        rng = np.random.default_rng(3)
        kinds = ROW_KINDS + ("chirp", "noise", "quantised")
        block = np.stack([emd_row(kind, 96, rng) for kind in kinds])
        stops = assert_matches_oracle(block)
        assert {"zero", "extrema", "extrema mid-mode", "energy"} <= set(stops)
        assert {0, 1, 3} <= set(_first_modes(block, *EMD)[1].tolist())

    def test_fewer_than_three_modes_left_unchanged(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200)
        imfs, _ = oracle_imfs(x)
        assert len(imfs) >= 3
        first, n_modes = _first_modes(x[None, :], *EMD)
        assert n_modes[0] == 3
        assert np.array_equal(first[0], imfs[0])
        den = denoise_sequence(x)
        assert np.array_equal(den, oracle_denoise(x))
        assert not np.array_equal(den, x)

    def test_default_maps_match_oracle(self):
        """Default config, all 12 activities: RTM rows and DTM series."""
        cfg = PipelineConfig()
        for label in cfg.activity_list():
            frame = synth_frame(cfg.scene_params(), activity(label),
                                cfg.radar, cfg.noise_config(label))
            rows = np.abs(mti_filter(beat_spectrum(frame)[0]))
            expected = np.stack([oracle_denoise(row) for row in rows])
            assert np.array_equal(denoise_rows(rows, *EMD),
                                  np.clip(expected, 0.0, None))
            series = leading_series(frame)
            assert np.array_equal(emd_denoise(series, *EMD), oracle_denoise(series))


class TestEmdDenoise:
    def test_constant_unchanged(self):
        x = np.full(64, 3.25 - 1.5j)
        assert np.array_equal(emd_denoise(x, *EMD), x)

    def test_ramp_plus_noise_mse_improves(self):
        # Monte Carlo over 100 seeds: denoised MSE strictly below noisy MSE
        n = 256
        clean = np.linspace(0.0, 4.0, n)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + 0.3 * rng.standard_normal(n)
            den = denoise_sequence(noisy)
            if np.mean((den - clean) ** 2) < np.mean((noisy - clean) ** 2):
                wins += 1
        assert wins == 100

    def test_pure_noise_power_drops(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(512)
        den = denoise_sequence(x)
        assert np.mean(den ** 2) < np.mean(x ** 2)

    def test_complex_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        den = emd_denoise(x, *EMD)
        assert den.shape == x.shape and np.iscomplexobj(den)

    def test_non_finite_rejected(self):
        x = np.ones(32, dtype=complex)
        x[3] = np.nan
        with pytest.raises(ValueError):
            emd_denoise(x, *EMD)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            emd_denoise(np.ones(4, dtype=complex), *EMD)

    def test_imf_count_bounded(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        imfs, _ = oracle_imfs(x)
        assert 3 <= len(imfs) <= 8
        first, n_modes = _first_modes(x[None, :], *EMD)
        assert n_modes[0] == 3 and np.array_equal(first[0], imfs[0])


def dtm_of(series, window_s):
    """The DTM of ``series``, one sample per PRI over ``window_s``."""
    return make_dtm(series, RadarConfig(slow_samples=series.size, window_s=window_s),
                    EMD)


class TestDtm:
    def test_zero_signal(self):
        dtm = dtm_of(np.zeros(256, dtype=complex), 1.0)
        assert np.all(dtm.data == 0)

    def test_pure_tone_ridge(self):
        # exp(j 2 pi 32 t) at fs 256: single ridge at the +32 Hz row
        m = 1024
        fs = 256.0
        t = np.arange(m) / fs
        series = np.exp(2j * np.pi * 32.0 * t)
        dtm = dtm_of(series, m / fs)
        interior = dtm.data[:, 150:-150]
        rows = np.argmax(interior, axis=0)
        freq = row_value(dtm.axis, rows)
        assert np.all(np.abs(freq - 32.0) <= 1.0)

    def test_linear_chirp_slope(self):
        # 0 -> 64 Hz over 4 s: per-column ridge frequency slope within 5%
        m = 1024
        fs = 256.0
        t = np.arange(m) / fs
        series = np.exp(2j * np.pi * (64.0 / (2 * 4.0)) * t * t)
        dtm = dtm_of(series, m / fs)
        cols = np.arange(150, m - 150)
        rows = np.argmax(dtm.data[:, cols], axis=0)
        freqs = np.asarray(row_value(dtm.axis, rows), dtype=float)
        slope = np.polyfit(t[cols], freqs, 1)[0]
        assert slope == pytest.approx(16.0, rel=0.05)

    def test_column_count_matches_slow_samples(self):
        dtm = dtm_of(np.ones(512, dtype=complex), 2.0)
        assert dtm.cols == 512
        assert dtm.rows == 256      # power-of-two transform size

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 2048), seed=st.integers(0, 2 ** 31 - 1))
    def test_even_height_for_every_length(self, n, seed):
        # squaring splits the Doppler axis into two equal halves
        rng = np.random.default_rng(seed)
        series = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dtm = dtm_of(series, 1.0)
        assert dtm.rows == STFT_SIZE and STFT_SIZE % 2 == 0

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 1023, 1024])
    def test_stft_one_column_per_sample(self, n):
        # ceil(n / STFT_HOP) frames, each repeated STFT_HOP times, cover n
        mag = stft_magnitude(np.exp(0.3j * np.arange(n)))
        assert mag.shape == (STFT_SIZE, n)
        last_frame = (n - 1) // STFT_HOP * STFT_HOP
        assert np.array_equal(mag[:, n - 1], mag[:, last_frame])


def pipeline_frame(cfg, label):
    """An activity's echo as the preprocess stage reads it (complex64)."""
    return ARTIFACTS["echo"].stored(synth_frame(
        cfg.scene_params(), activity(label), cfg.radar,
        cfg.noise_config(label)))


@pytest.fixture(scope="module")
def default_frames():
    cfg = PipelineConfig()
    return [pipeline_frame(cfg, label) for label in ("S1", "S5", "S8", "S12")]


class TestMapInputs:
    """Each map is computed from only what it reads, against the old chain
    (MTI over every beat bin, the DTM from their coherent sum)."""

    def test_crop_before_mti_is_exact(self, default_frames):
        for frame in default_frames:
            rows, axis = beat_spectrum(frame)
            assert np.array_equal(mti_filter(rows), full_mti(frame)[:axis.n])

    def test_leading_sample_is_bin_sum(self, default_frames):
        for frame in default_frames:
            summed = full_mti(frame).sum(axis=0)
            err = np.max(np.abs(leading_series(frame) - summed))
            assert err <= 1e-12 * np.max(np.abs(summed))

    @pytest.mark.parametrize("radar", [
        RadarConfig(),
        RadarConfig(max_range_m=3.0, slow_samples=300, window_s=2.5)])
    def test_axes_from_radar(self, radar):
        shape = (radar.slow_samples, radar.fast_samples)
        rtm, dtm = preprocess_frame(EchoFrame(np.zeros(shape, np.complex64), radar), EMD)
        assert rtm.axis == range_axis(radar)
        assert dtm.axis == doppler_axis(radar)

    def test_noisy_dtm_float32_identical(self, cfg_small):
        cfg_small.noise.enabled = True
        for seed in (42, 1, 2):
            cfg_small.run.seed = seed
            for label in cfg_small.activity_list():
                frame = pipeline_frame(cfg_small, label)
                got = preprocess_frame(frame, EMD)[1].data.astype(np.float32)
                want = oracle_dtm(frame, EMD).data.astype(np.float32)
                assert np.array_equal(got, want), (seed, label)


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

    @pytest.mark.parametrize("constant", [False, True])
    def test_out_buffer_and_in_place_are_bit_identical(self, constant):
        rng = np.random.default_rng(5)
        x = np.full((17, 9), 7.0) if constant else 3.0 * rng.standard_normal((17, 9))
        want = np.zeros_like(x) if constant else (x - x.min()) / (x.max() - x.min())
        assert np.array_equal(normalize(x), want)
        out = np.full_like(x, np.nan)
        assert normalize(x, out=out) is out
        assert np.array_equal(out, want)
        y = x.copy()
        assert normalize(y, out=y) is y
        assert np.array_equal(y, want)


class TestPipelineDeterminism:
    def test_same_frame_same_maps(self, cfg_small):
        p = cfg_small.scene_params()
        radar = cfg_small.radar
        frame = synth_frame(p, S8, radar, NoiseConfig(target_snr=-16.0, seed=9))
        outs = [preprocess_frame(frame, cfg_small.preprocessing.emd_params())
                for _ in range(2)]
        assert np.array_equal(outs[0][0].data, outs[1][0].data)
        assert np.array_equal(outs[0][1].data, outs[1][1].data)

    def test_dtm_ridge_at_doppler_of_real_velocity(self):
        # approaching at 1 m/s: ridge magnitude 2 fc v / c within one bin
        p = default_scene(initial_position=(3.0, 0.0), initial_velocity=(-1.0, 0.0),
                          radar_height=1.65, wall_path=0.0, window=2.0,
                          gait_frequency=2 * np.pi)
        radar = head_radar(window_s=2.0, slow_samples=512, fast_samples=512)
        frame = synth_frame(p, S8, radar, None)
        _, dtm = preprocess_frame(frame, EMD)
        col = dtm.data[:, 256]
        freq = float(row_value(dtm.axis, int(np.argmax(col))))
        expected = 2 * radar.carrier_hz * 1.0 / C_LIGHT
        bin_hz = (dtm.axis.hi - dtm.axis.lo) / dtm.axis.n
        assert abs(abs(freq) - expected) <= bin_hz
