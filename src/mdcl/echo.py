"""LFMCW base-band echo synthesis.

Each PRI freezes the target delay (stop-and-hop) and emits the closed-form
base-band beat signal; node echoes, a static wall return and complex white
Gaussian noise sum into the frame, in that order, in one buffer.  A node
that holds still for some PRIs repeats its delay, so each distinct delay's
row is synthesized once and gathered back into PRI order.  A row is the
outer product of a coarse and a fine phase table over blocks of about
sqrt(N) fast-time samples, so it costs about 2 sqrt(N) complex ``exp``
instead of N and is as accurate as one direct ``exp`` per sample
(``_beat_rows`` states the bound).  The noise is seeded per frame and drawn
from one spawned stream per PRI, straight into interleaved (real,
imaginary) pairs.  One stream per frame would be faster, but it draws
different noise and so changes every noisy artifact's digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mdcl.activities import ActivitySpec, MotionState
from mdcl.motion import node_distance
from mdcl.scene import ALL_NODES, NodeId, SceneParams

C_LIGHT = 299_792_458.0


class RadarConfigError(ValueError):
    pass


@dataclass
class RadarConfig:
    """LFMCW radar parameters: the ``[radar]`` config section.

    The field defaults are the uniform system table and
    ``PipelineConfig.validate`` checks them.  The PRI and the per-node
    reflectivity are derived, so they cannot disagree with the keys.
    """

    carrier_hz: float = 1.5e9           # fc
    bandwidth_hz: float = 2.0e9         # B
    slow_samples: int = 1024            # M
    fast_samples: int = 1024            # N
    window_s: float = 4.0               # T = M Ts
    tx_amplitude: float = 1.0
    reflectivity_head: float = 0.6
    reflectivity_torso: float = 1.0
    reflectivity_hand: float = 0.3
    reflectivity_foot: float = 0.3
    wall_reflectivity: float = 10.0
    wall_range_m: float = 0.5           # front face one-way distance
    max_range_m: float = 5.0            # range-axis crop used downstream

    @property
    def pri(self) -> float:
        """Ts, seconds."""
        return self.window_s / self.slow_samples

    @property
    def reflectivity(self) -> dict[NodeId, float]:
        return {NodeId.HEAD: self.reflectivity_head,
                NodeId.TORSO: self.reflectivity_torso,
                NodeId.HAND_L: self.reflectivity_hand,
                NodeId.HAND_R: self.reflectivity_hand,
                NodeId.FOOT_L: self.reflectivity_foot,
                NodeId.FOOT_R: self.reflectivity_foot}

    @property
    def chirp_rate(self) -> float:
        """mu = B / Ts, Hz/s."""
        return self.bandwidth_hz / self.pri

    @property
    def fast_rate(self) -> float:
        return self.fast_samples / self.pri

    @property
    def range_bin(self) -> float:
        """Range per beat-spectrum bin: c / 2B."""
        return C_LIGHT / (2.0 * self.bandwidth_hz)


@dataclass(frozen=True)
class NoiseConfig:
    """Additive complex white Gaussian noise at a target SNR.

    ``target_snr`` is the ratio of summed node-echo power to noise power in
    dB.  When the frame carries no node echo (empty scene) the noise power
    falls back to 10^(-snr/10) of a unit reference.  A frame without noise
    gets no ``NoiseConfig`` at all.
    """

    target_snr: float
    seed: int


@dataclass
class EchoFrame:
    """Complex base-band data matrix, slow time (rows) x fast time (cols)."""

    data: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        m, n = self.data.shape
        if (m, n) != (self.config.slow_samples, self.config.fast_samples):
            raise ValueError("frame shape does not match the radar config")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("frame contains non-finite samples")


def _beat_rows(cfg: RadarConfig, amplitude: float, tau: np.ndarray) -> np.ndarray:
    """Base-band beat signal rows for per-PRI delays ``tau`` (shape (M,)).

    Row d holds amplitude * exp(2 pi i (mu d t_k + fc d - mu d^2 / 2)) over
    the fast-time samples t_k = k / fs.  Each row is a function of its delay
    alone, so it is built once per distinct delay and repeated delays share
    it.  With k = b k1 + k0 and b = isqrt(N), the row is the outer product
    of a coarse table (the phase at t_{b k1}, times the amplitude; ceil(N/b)
    columns) and a fine table (exp(2 pi i mu d t_k0); b columns), the
    twiddle split FFT libraries use: about 2 sqrt(N) ``exp`` and N complex
    products per row instead of N ``exp``.  Every sample lies within
    8 (2 pi ulp(max |phase|) + eps) * amplitude of the exact value (phase in
    cycles, eps the float64 epsilon), as the direct ``exp`` does.
    """
    mu = cfg.chirp_rate
    if np.any(tau >= cfg.pri):
        raise RadarConfigError(
            "delay exceeds the PRI: scatterer outside the unambiguous range")
    distinct, pri_order = np.unique(tau, return_inverse=True)
    repeats = distinct.size < tau.size
    d = distinct if repeats else tau        # unique's order is sorted
    n = cfg.fast_samples
    b = math.isqrt(n)
    k1 = -(-n // b)
    step = 2j * np.pi * mu * d[:, None]     # phase per second of fast time
    coarse = step * (np.arange(0, k1 * b, b) / cfg.fast_rate)
    coarse += (2j * np.pi * (cfg.carrier_hz * d - 0.5 * mu * d * d))[:, None]
    np.exp(coarse, out=coarse)
    coarse *= amplitude
    fine = step * (np.arange(b) / cfg.fast_rate)
    np.exp(fine, out=fine)
    rows = (coarse[:, :, None] * fine[:, None, :]).reshape(d.size, k1 * b)[:, :n]
    if repeats:
        rows = rows[pri_order]
    return rows


def node_delays(node: NodeId, p: SceneParams, act: ActivitySpec,
                cfg: RadarConfig) -> np.ndarray:
    """Stop-and-hop two-way delays, one per PRI."""
    t_slow = np.arange(cfg.slow_samples) * cfg.pri
    return 2.0 * node_distance(node, p, act, t_slow) / C_LIGHT


def wall_clutter(cfg: RadarConfig) -> np.ndarray:
    """Stationary wall return: one fast-time row, identical across PRIs."""
    if cfg.wall_reflectivity == 0.0:
        return np.zeros(cfg.fast_samples, dtype=complex)
    tau = np.array([2.0 * cfg.wall_range_m / C_LIGHT])
    amp = 0.5 * cfg.wall_reflectivity * cfg.tx_amplitude ** 2
    return _beat_rows(cfg, amp, tau)[0]


def _node_sum(p: SceneParams, act: ActivitySpec, cfg: RadarConfig) -> np.ndarray:
    total = np.zeros((cfg.slow_samples, cfg.fast_samples), dtype=complex)
    for node in ALL_NODES:
        eta = cfg.reflectivity.get(node, 0.0)
        if eta == 0.0 or act.node(node).state is MotionState.INACTIVE:
            continue
        tau = node_delays(node, p, act, cfg)
        total += _beat_rows(cfg, 0.5 * eta * cfg.tx_amplitude ** 2, tau)
    return total


def _noise_matrix(m: int, n: int, seed: int) -> np.ndarray:
    """Unit-power complex Gaussian noise, split deterministically per PRI.

    PRI i's stream fills row i with 2n normals, read as n (real, imaginary)
    pairs.
    """
    children = np.random.SeedSequence(seed).spawn(m)
    pairs = np.empty((m, 2 * n))
    for row, child in zip(pairs, children):
        np.random.Generator(np.random.Philox(child)).standard_normal(out=row)
    out = pairs.view(complex)
    out /= np.sqrt(2.0)     # complex division: a real one rounds differently
    return out


def synth_frame(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
                noise: NoiseConfig | None = None) -> EchoFrame:
    """Full frame: node echoes + wall clutter + noise at the target SNR."""
    data = _node_sum(p, act, cfg)
    p_sig = float(np.mean(np.abs(data) ** 2)) if noise is not None else 0.0
    data += wall_clutter(cfg)[None, :]
    if noise is not None:
        reference = p_sig if p_sig > 0 else 1.0
        p_noise = reference * 10.0 ** (-noise.target_snr / 10.0)
        scaled = _noise_matrix(cfg.slow_samples, cfg.fast_samples, noise.seed)
        scaled *= np.sqrt(p_noise)
        data += scaled
    return EchoFrame(data=data, config=cfg)
