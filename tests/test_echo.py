"""Echo synthesis tests: beat physics, SNR calibration, determinism."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdcl import echo
from mdcl.activities import activity, activity_labels
from mdcl.echo import (NoiseConfig, RadarConfig, RadarConfigError, EchoFrame,
                       node_delays, synth_frame, wall_clutter, C_LIGHT)
from mdcl.config import PipelineConfig
from mdcl.scene import ALL_NODES

from conftest import default_scene, head_radar

S8 = activity("S8")
S1 = activity("S1")


def beat_rows(cfg, amplitude, tau):
    """Every PRI's row of ``echo._beat_rows``, shape (M, N)."""
    return echo._beat_rows(echo._beat_tables(cfg, amplitude, tau), slice(None),
                           cfg.fast_samples)


def oracle_phase(cfg, tau, dtype=float):
    """Beat phase in cycles, (delay, fast-time sample), evaluated in ``dtype``
    from the float64 parameters."""
    mu, fc = dtype(cfg.chirp_rate), dtype(cfg.carrier_hz)
    tau = np.asarray(tau).astype(dtype)
    t_fast = np.arange(cfg.fast_samples, dtype=dtype) / dtype(cfg.fast_rate)
    phase = mu * tau[:, None] * t_fast[None, :]
    phase += (fc * tau - dtype(0.5) * mu * tau * tau)[:, None]
    return phase


def oracle_beat_rows(cfg, amplitude, tau):
    """Reference for ``echo._beat_rows``: one direct ``exp`` per sample."""
    rows = 2j * np.pi * oracle_phase(cfg, tau)
    np.exp(rows, out=rows)
    rows *= amplitude
    return rows


def exact_beat_rows(cfg, amplitude, tau):
    """The rows in long double, as (real, imaginary): the phase is reduced to
    one cycle before the 2 pi rotation, so only long-double rounding is left."""
    phase = oracle_phase(cfg, tau, np.longdouble)
    angle = 8 * np.arctan(np.longdouble(1)) * (phase - np.round(phase))
    amp = np.longdouble(amplitude)
    return amp * np.cos(angle), amp * np.sin(angle)


def row_bound(cfg, amplitude, tau):
    """Per-sample error allowed in a beat row: 8 * 2 pi * ulp(max |phase|)
    (phase in cycles) times the amplitude, plus 8 float64 epsilons of the
    amplitude, which bound the rounding of the sample itself."""
    phase = np.max(np.abs(oracle_phase(cfg, tau)))
    return 8 * abs(amplitude) * (2 * np.pi * np.spacing(phase) + np.finfo(float).eps)


def oracle_noise_matrix(m, n, seed, scale):
    """Reference for ``synth_frame``'s noise: (m, 2n) normals drawn whole
    from one ``SeedSequence(seed)``-seeded SFC64 stream, interleaved into
    (real, imaginary) pairs and scaled."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    pairs = gen.standard_normal((m, 2 * n))
    pairs *= scale
    return pairs.view(complex)


def node_rows(p, act, cfg):
    """(amplitude, per-PRI delays) of every reflecting node outside the
    empty scene."""
    for node in ALL_NODES:
        eta = cfg.reflectivity[node]
        if eta == 0.0 or act.is_empty:
            continue
        yield 0.5 * eta, node_delays(node, p, act, cfg)


def wall_row(cfg):
    """(amplitude, delay) of the wall return."""
    return (0.5 * cfg.wall_reflectivity,
            np.array([2.0 * cfg.wall_range_m / C_LIGHT]))


def oracle_frame(p, act, cfg, noise):
    """Reference for ``synth_frame`` from the oracles: node sum, plus the
    wall row into a new array, plus the scaled noise."""
    signal = np.zeros((cfg.slow_samples, cfg.fast_samples), dtype=complex)
    for amplitude, tau in node_rows(p, act, cfg):
        signal += oracle_beat_rows(cfg, amplitude, tau)
    data = signal + oracle_beat_rows(cfg, *wall_row(cfg))
    p_sig = float(np.mean(np.abs(signal) ** 2))
    data += oracle_noise_matrix(cfg.slow_samples, cfg.fast_samples, noise.seed,
                                noise_scale(p_sig, noise))
    return data


def noise_scale(p_sig, noise):
    """Noise amplitude of each of a sample's two parts for signal power
    ``p_sig`` (unit reference if 0): half the noise power each."""
    reference = p_sig if p_sig > 0 else 1.0
    return np.sqrt(reference * 10.0 ** (-noise.target_snr / 10.0) / 2.0)


def whole_frame(p, act, cfg, noise):
    """Reference for ``synth_frame``'s bits: the frame assembled whole, in
    place.  Node rows from ``echo._beat_rows`` summed in node order, the
    signal power of that sum, the wall row, then the scaled noise matrix."""
    data = np.zeros((cfg.slow_samples, cfg.fast_samples), dtype=complex)
    for amplitude, tau in node_rows(p, act, cfg):
        data += beat_rows(cfg, amplitude, tau)
    p_sig = float(np.mean(np.abs(data) ** 2)) if noise is not None else 0.0
    data += wall_clutter(cfg)[None, :]
    if noise is not None:
        data += oracle_noise_matrix(cfg.slow_samples, cfg.fast_samples, noise.seed,
                                    noise_scale(p_sig, noise))
    return data


def frame_bound(p, act, cfg, oracle):
    """Per-sample error allowed in a frame: the sum of its rows' bounds
    (nodes and wall) plus 8 epsilons of the sample for the sums and the
    noise scale."""
    bound = row_bound(cfg, *wall_row(cfg))
    bound += sum(row_bound(cfg, amplitude, tau) for amplitude, tau in node_rows(p, act, cfg))
    return bound + 8 * np.finfo(float).eps * np.abs(oracle)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def delays_with_repeats(draw):
    """Up to 48 per-PRI delays drawn from a pool of at most 8 values."""
    pool = draw(st.lists(st.floats(0.0, 1e-7), min_size=1, max_size=8, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=48))
    return np.array(pool)[picks]


class TestExactness:
    """The factored beat rows and the in-place frame agree with the direct
    ``exp`` within the stated bound, and both are that close to the long-double
    rows; the noise draw equals its reference bit for bit."""

    @pytest.mark.parametrize("label", ["S1", "S5", "S8", "S12"])
    def test_frame_matches_oracle(self, label):
        p, act, cfg = default_scene(), activity(label), RadarConfig()
        noise = NoiseConfig(target_snr=-16.0, seed=42)
        frame = synth_frame(p, act, cfg, noise)
        oracle = oracle_frame(p, act, cfg, noise)
        assert np.all(np.abs(frame.data - oracle) <= frame_bound(p, act, cfg, oracle))

    @settings(max_examples=60, deadline=None)
    @given(tau=delays_with_repeats())
    @example(tau=np.full(16, 2.0e-8))                   # all equal
    @example(tau=np.linspace(1.0e-8, 3.0e-8, 16))       # all distinct
    @example(tau=np.linspace(3.0e-8, 1.0e-8, 16))       # distinct, descending
    def test_beat_rows_match_oracle(self, tau):
        cfg = RadarConfig(slow_samples=16, fast_samples=32)
        rows = beat_rows(cfg, 0.3, tau)
        assert rows.shape == (tau.size, 32)
        assert np.all(np.abs(rows - oracle_beat_rows(cfg, 0.3, tau))
                      <= row_bound(cfg, 0.3, tau))

    @settings(max_examples=60, deadline=None)
    @given(tau=delays_with_repeats(),
           n=st.sampled_from([2, 37, 1000]) | st.integers(2, 300),
           amplitude=st.floats(1e-3, 10.0))
    @example(tau=np.full(4, 3.3e-9), n=1024, amplitude=5.0)   # the default wall
    def test_beat_rows_within_bound_of_long_double(self, tau, n, amplitude):
        # N = 2, 37, 1000 are not multiples of the block isqrt(N)
        cfg = RadarConfig(slow_samples=16, fast_samples=n)
        re, im = exact_beat_rows(cfg, amplitude, tau)
        bound = row_bound(cfg, amplitude, tau)
        for rows in (beat_rows(cfg, amplitude, tau),
                     oracle_beat_rows(cfg, amplitude, tau)):
            assert rows.shape == (tau.size, n)
            err = np.hypot((rows.real - re).astype(float), (rows.imag - im).astype(float))
            assert np.all(err <= bound)

    @pytest.mark.parametrize("m, n, seed", [(1024, 1024, 42), (16, 37, 0), (3, 2, 7),
                                            (70, 5, 2 ** 64 - 1)])
    def test_noise_matrix_matches_oracle(self, m, n, seed):
        # S1 without a wall: the frame is its noise alone, at the unit reference
        cfg = RadarConfig(slow_samples=m, fast_samples=n, wall_reflectivity=0.0)
        noise = NoiseConfig(target_snr=-16.0, seed=seed)
        frame = bits(synth_frame(default_scene(), S1, cfg, noise).data)
        assert np.array_equal(frame, bits(oracle_noise_matrix(m, n, seed,
                                                              noise_scale(0.0, noise))))

    @pytest.mark.parametrize("label, radar, snr, block_rows", [
        ("S1", {}, -16.0, 64), ("S2", {}, -16.0, 64), ("S5", {}, -16.0, 64),
        ("S8", {}, -16.0, 64), ("S9", {}, -16.0, 64), ("S12", {}, -16.0, 64),
        ("S8", {}, None, 64),
        ("S8", {"wall_reflectivity": 0.0}, -16.0, 64),
        ("S1", {"wall_reflectivity": 0.0}, -12.0, 64),    # no signal: p_sig = 0
        ("S12", {"slow_samples": 257, "fast_samples": 130}, -16.0, 64),
        ("S12", {"slow_samples": 257, "fast_samples": 130}, None, 64),
        ("S2", {"slow_samples": 257, "fast_samples": 130}, -16.0, 1),
        ("S2", {"slow_samples": 257, "fast_samples": 130}, -16.0, 7),
        ("S2", {"slow_samples": 257, "fast_samples": 130}, -16.0, 32)])
    def test_blocks_equal_whole_frame(self, monkeypatch, label, radar, snr, block_rows):
        """Synthesis in PRI blocks gives the whole-frame assembly's bits
        (S2 holds 574 distinct delays in 6,144 active rows); 257 PRIs are
        not a whole number of blocks and 130 samples not a square."""
        monkeypatch.setattr(echo, "BLOCK_ROWS", block_rows)
        p, act, cfg = default_scene(), activity(label), RadarConfig(**radar)
        noise = None if snr is None else NoiseConfig(target_snr=snr, seed=42)
        assert np.array_equal(bits(synth_frame(p, act, cfg, noise).data),
                              bits(whole_frame(p, act, cfg, noise)))

    def test_peak_memory(self):
        """S12 at full size with noise holds at most the complex128 frame,
        one float64 frame and 8 MiB (32 MiB in all; the whole-frame
        assembly peaked at 44 MiB)."""
        p, act, cfg = default_scene(), activity("S12"), RadarConfig()
        noise = NoiseConfig(target_snr=-16.0, seed=42)
        frame_bytes = cfg.slow_samples * cfg.fast_samples * 16
        tracemalloc.start()
        try:
            synth_frame(p, act, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= frame_bytes + frame_bytes // 2 + 8 * 2 ** 20


def static_scene(x1=3.0):
    # h0 = h1 + 0.15 makes the head's vertical offset vanish: range == x1
    return default_scene(initial_position=(x1, 0.0), initial_velocity=(0.0, 0.0),
                         radar_height=1.65, wall_path=0.0)


class TestNodeEcho:
    @staticmethod
    def head_row(p, eta=0.6):
        # first PRI of a noise-free, wall-free frame holding only the head
        return synth_frame(p, S8, head_radar(eta), noise=None).data[0]

    def test_zero_reflectivity_zero_row(self):
        row = self.head_row(static_scene(), eta=0.0)
        assert np.all(row == 0)

    @pytest.mark.parametrize("label", activity_labels())
    def test_only_the_empty_scene_is_silent(self, label):
        # every node reflects at the default reflectivities, so every node of
        # an activity echoes, and none of the empty scene's
        p, act, cfg = default_scene(), activity(label), RadarConfig(slow_samples=8)
        delays = echo.echo_delays(p, act, cfg)
        assert len(delays) == (0 if label == "S1" else len(ALL_NODES))
        assert all(tau.shape == (8,) for _, tau in delays)

    def test_static_beat_bin(self):
        # one-way 3 m: beat mu*tau -> DFT bin round(N mu tau / fs) = 40
        cfg = RadarConfig()
        tau = 2.0 * 3.0 / C_LIGHT
        expected_bin = round(cfg.fast_samples * cfg.chirp_rate * tau / cfg.fast_rate)
        assert expected_bin == 40
        row = self.head_row(static_scene())
        assert int(np.argmax(np.abs(np.fft.fft(row)))) == expected_bin

    def test_wall_shifts_beat_bin(self):
        # extra one-way path 0.12 (sqrt(6) - 1) = 0.174 m
        cfg = RadarConfig()
        p = default_scene(initial_position=(3.0, 0.0), initial_velocity=(0.0, 0.0),
                          radar_height=1.65)
        row = self.head_row(p)
        shifted = (3.0 + 0.12 * (np.sqrt(6.0) - 1.0)) / cfg.range_bin
        assert int(np.argmax(np.abs(np.fft.fft(row)))) == round(shifted)

    def test_unambiguous_range_violation(self):
        p = default_scene(initial_position=(1e6, 0.0), initial_velocity=(0.0, 0.0),
                          wall_path=0.0)
        with pytest.raises(RadarConfigError):
            self.head_row(p)


class TestWallClutter:
    def test_zero_reflectivity(self):
        cfg = RadarConfig(wall_reflectivity=0.0)
        assert np.all(wall_clutter(cfg) == 0)

    def test_static_across_pris_and_cancelled(self):
        cfg = RadarConfig()
        p = default_scene()
        frame = synth_frame(p, S1, cfg, noise=None)   # wall only
        assert np.array_equal(frame.data[0], frame.data[500])
        diff = frame.data[1:] - frame.data[:-1]
        assert np.all(diff == 0)


class TestFrame:
    def test_pure_noise_power(self):
        # empty scene, no wall: noise power within 0.1 dB of the unit target
        cfg = RadarConfig(wall_reflectivity=0.0)
        noise = NoiseConfig(target_snr=-16.0, seed=3)
        frame = synth_frame(default_scene(), S1, cfg, noise)
        measured = np.mean(np.abs(frame.data) ** 2)
        target = 10.0 ** (1.6)
        assert abs(10 * np.log10(measured / target)) < 0.1

    def test_snr_calibration(self):
        cfg = RadarConfig()
        p = default_scene()
        noise = NoiseConfig(target_snr=-12.0, seed=11)
        signal = synth_frame(p, S8, cfg, None).data - wall_clutter(cfg)[None, :]
        noisy = synth_frame(p, S8, cfg, noise).data
        n = noisy - synth_frame(p, S8, cfg, None).data
        snr = 10 * np.log10(np.mean(np.abs(signal) ** 2) / np.mean(np.abs(n) ** 2))
        assert snr == pytest.approx(-12.0, abs=0.1)

    def test_fixed_seed_bit_identical(self):
        cfg = RadarConfig()
        p = default_scene()
        noise = NoiseConfig(target_snr=-16.0, seed=42)
        a = synth_frame(p, S8, cfg, noise)
        b = synth_frame(p, S8, cfg, noise)
        assert np.array_equal(a.data, b.data)

    def test_linearity_in_reflectivity(self):
        p = default_scene()
        base = RadarConfig()
        doubled = RadarConfig(reflectivity_head=2 * base.reflectivity_head,
                              reflectivity_torso=2 * base.reflectivity_torso,
                              reflectivity_hand=2 * base.reflectivity_hand,
                              reflectivity_foot=2 * base.reflectivity_foot)
        a = synth_frame(p, S8, base, None).data - wall_clutter(base)[None, :]
        b = synth_frame(p, S8, doubled, None).data - wall_clutter(doubled)[None, :]
        assert np.allclose(b, 2.0 * a, rtol=1e-12, atol=1e-12)

    def test_doppler_phase_increment(self):
        # constant radial velocity v: inter-PRI phase steps 4 pi fc v Ts / c
        cfg = head_radar()
        p = default_scene(initial_position=(3.0, 0.0), initial_velocity=(-0.5, 0.0),
                          radar_height=1.65, wall_path=0.0)
        frame = synth_frame(p, S8, cfg, None)
        m0, m1 = 100, 101
        t0, t1 = m0 * cfg.pri, m1 * cfg.pri
        # finite difference of the synthesized phase at fast-time sample 0
        dphi = np.angle(frame.data[m1, 0] * np.conj(frame.data[m0, 0]))
        r0, r1 = 3.0 - 0.5 * t0, 3.0 - 0.5 * t1
        v = (r1 - r0) / cfg.pri
        expected = 4 * np.pi * cfg.carrier_hz * v * cfg.pri / C_LIGHT
        assert dphi == pytest.approx(expected, rel=0.02)

    def test_frame_shape_guard(self):
        cfg = RadarConfig()
        with pytest.raises(ValueError):
            EchoFrame(np.zeros((3, 3), dtype=complex), cfg)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("value", [complex(np.inf, 0.0), complex(np.nan, 0.0),
                                       complex(0.0, -np.inf)])
    def test_non_finite_sample_rejected(self, dtype, value):
        # either part of any sample, at the stored (complex64) precision too
        cfg = RadarConfig(slow_samples=4, fast_samples=4)
        data = np.zeros((4, 4), dtype=dtype)
        data[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            EchoFrame(data, cfg)

    def test_s1_frame_is_wall_plus_noise(self):
        cfg = RadarConfig()
        p = default_scene()
        noise = NoiseConfig(target_snr=-16.0, seed=5)
        frame = synth_frame(p, S1, cfg, noise)
        wall = wall_clutter(cfg)
        residual = frame.data - wall[None, :]
        # residual is exactly the (unit-reference) noise realization
        assert np.mean(np.abs(residual) ** 2) == pytest.approx(10 ** 1.6, rel=0.01)


class TestRadarConfig:
    def test_chirp_rate_exact(self):
        cfg = RadarConfig()
        assert cfg.chirp_rate == cfg.bandwidth_hz / cfg.pri

    def test_defaults_match_uniform_parameters(self):
        cfg = PipelineConfig().radar
        assert cfg.carrier_hz == 1.5e9
        assert cfg.bandwidth_hz == 2.0e9
        assert cfg.slow_samples == cfg.fast_samples == 1024
        assert cfg.window_s == 4.0
        assert cfg.range_bin == pytest.approx(C_LIGHT / 4e9)
