"""LFMCW base-band echo synthesis.

Each PRI freezes the target delay (stop-and-hop) and emits the closed-form
base-band beat signal; node echoes, a static wall return and complex white
Gaussian noise sum into the frame, in that order, ``BLOCK_ROWS`` PRIs at a
time.  Each distinct delay's phase tables are built once (a node that holds
still repeats its delay) and a row is the outer product of a coarse and a
fine table over blocks of about sqrt(N) fast-time samples: about 2 sqrt(N)
complex ``exp`` instead of N, as accurate as one direct ``exp`` per sample
(``_beat_tables`` states the bound).  The noise is seeded per frame and
drawn from one Philox stream per PRI, straight into interleaved (real,
imaginary) pairs.  Philox is counter-based (Salmon et al., SC 2011): a
stream is its key alone, so ``philox_keys`` derives all of a frame's keys
in one vectorised pass and one generator is re-keyed per PRI, with the
bits that per-PRI ``SeedSequence`` children give.  One stream per frame
would be faster still, but it draws different noise and so changes every
noisy artifact's digest.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from mdcl.activities import ActivitySpec
from mdcl.motion import node_distance
from mdcl.scene import ALL_NODES, NodeId, SceneParams

C_LIGHT = 299_792_458.0
BLOCK_ROWS = 64     # PRIs per synthesis block: 1 MiB of complex128 at N = 1024


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
    def slow_times(self) -> np.ndarray:
        """The start of each PRI, seconds: slow-time sample j at j * Ts."""
        return np.arange(self.slow_samples) * self.pri

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


# numpy's SeedSequence: pool size in uint32 words, the (initial constant,
# multiplier) of the hash that mixes entropy in and of the one that hashes
# the state out, and the multipliers of mix
_POOL = 4
_HASH_IN = (0x43B0D7E5, 0x931E8875)
_HASH_OUT = (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)
_WORD = 0xFFFFFFFF


def _seed_words(value) -> list[int]:
    """``SeedSequence``'s uint32 words of a non-negative int, low word first
    (0 is one word), or of a tuple of such values, concatenated."""
    if isinstance(value, tuple):
        return [w for v in value for w in _seed_words(v)]
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s hash: each call takes the next hash constant,
    which advances alike for every element."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _WORD
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX[0]) * x - np.uint32(_MIX[1]) * y
    return value ^ (value >> np.uint32(16))


def philox_keys(entropy, spawn_keys) -> np.ndarray:
    """The Philox key of ``SeedSequence(entropy, spawn_key=k)`` for each row
    ``k`` of ``spawn_keys`` (an (m, words) array of uint32 words), as (m, 2)
    uint64: ``generate_state(2, np.uint64)``, which seeds ``Philox``.

    numpy's mixing, vectorised over the rows: the run entropy is padded to
    the pool with zeros when a spawn key follows it, the first pool-size
    words are hashed into the pool and cross-mixed, every further word is
    mixed into each pool word, and the pool is hashed out.  uint32
    arithmetic wraps as numpy's C code does.
    """
    spawn = np.asarray(spawn_keys, dtype=np.uint32)
    run = _seed_words(entropy)
    if spawn.shape[1] and len(run) < _POOL:
        run += [0] * (_POOL - len(run))
    words = [np.full(len(spawn), w, dtype=np.uint32) for w in run] + list(spawn.T)
    words += [np.zeros(len(spawn), dtype=np.uint32)] * (_POOL - len(words))
    hash_in = _hasher(*_HASH_IN)
    pool = [hash_in(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_in(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hash_in(word))
    hash_out = _hasher(*_HASH_OUT)
    low0, high0, low1, high1 = (hash_out(w).astype(np.uint64) for w in pool)
    return np.stack([low0 | high0 << np.uint64(32), low1 | high1 << np.uint64(32)], axis=1)


def noise_generator(entropy, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """Every noise stream's generator: Philox keyed as ``SeedSequence(entropy,
    spawn_key=spawn_key)`` would key it; key (i,) gives child i of
    ``SeedSequence(entropy).spawn(m)``."""
    key = philox_keys(entropy, [_seed_words(spawn_key)])[0]
    return np.random.Generator(np.random.Philox(key=key))


def check_delays(cfg: RadarConfig, tau) -> None:
    """The unambiguous-range rule: every two-way delay lies inside the PRI."""
    if np.any(np.asarray(tau) >= cfg.pri):
        raise RadarConfigError(
            "delay exceeds the PRI: scatterer outside the unambiguous range "
            f"c * pri / 2 = {C_LIGHT * cfg.pri / 2} m")


def _beat_tables(cfg: RadarConfig, amplitude: float, tau: np.ndarray) -> tuple:
    """Beat-row tables for per-PRI delays ``tau`` (shape (M,)): the coarse and
    fine phase tables and each PRI's row in them (``_beat_rows`` joins them).

    Row d holds amplitude * exp(2 pi i (mu d t_k + fc d - mu d^2 / 2)) over
    the fast-time samples t_k = k / fs.  Each row is a function of its delay
    alone, so its tables are built once per distinct delay and repeated
    delays share them.  With k = b k1 + k0 and b = isqrt(N), the row is the
    outer product of a coarse table (the phase at t_{b k1}, times the
    amplitude; ceil(N/b) columns) and a fine table (exp(2 pi i mu d t_k0);
    b columns), the twiddle split FFT libraries use: about 2 sqrt(N) ``exp``
    and N complex products per row instead of N ``exp``.  Every sample lies
    within 8 (2 pi ulp(max |phase|) + eps) * amplitude of the exact value
    (phase in cycles, eps the float64 epsilon), as the direct ``exp`` does.
    """
    mu = cfg.chirp_rate
    check_delays(cfg, tau)
    d, pri_order = np.unique(tau, return_inverse=True)
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
    return coarse, fine, pri_order


def _beat_rows(tables: tuple, pris: slice, n: int) -> np.ndarray:
    """Beat rows of the PRIs ``pris``, ``n`` samples each, from ``_beat_tables``."""
    coarse, fine, row = tables
    i = row[pris]
    return (coarse[i][:, :, None] * fine[i][:, None, :]).reshape(i.size, -1)[:, :n]


def node_delays(node: NodeId, p: SceneParams, act: ActivitySpec,
                cfg: RadarConfig) -> np.ndarray:
    """Stop-and-hop two-way delays, one per PRI."""
    return 2.0 * node_distance(node, p, act, cfg.slow_times) / C_LIGHT


def echo_delays(p: SceneParams, act: ActivitySpec,
                cfg: RadarConfig) -> list[tuple[float, np.ndarray]]:
    """(amplitude, per-PRI delays) of each node that echoes: one with a
    non-zero reflectivity, outside the empty scene."""
    if act.is_empty:
        return []
    return [(0.5 * eta, node_delays(node, p, act, cfg))
            for node in ALL_NODES if (eta := cfg.reflectivity[node]) != 0.0]


def wall_clutter(cfg: RadarConfig) -> np.ndarray:
    """Stationary wall return: one fast-time row, identical across PRIs."""
    tau = np.array([2.0 * cfg.wall_range_m / C_LIGHT])
    amp = 0.5 * cfg.wall_reflectivity
    return _beat_rows(_beat_tables(cfg, amp, tau), slice(None), cfg.fast_samples)[0]


def synth_frame(p: SceneParams, act: ActivitySpec, cfg: RadarConfig,
                noise: NoiseConfig | None = None) -> EchoFrame:
    """Full frame: node echoes + wall clutter + noise at the target SNR, built
    in blocks of ``BLOCK_ROWS`` PRIs with the bits of a whole-frame assembly.
    PRI i's noise is the stream of ``noise_generator(noise.seed, (i,))``:
    one generator is re-keyed per PRI (counter 0, empty buffer) from keys
    derived in one pass.  At its peak it holds the frame and one float64
    frame of sample powers."""
    m, n = cfg.slow_samples, cfg.fast_samples
    blocks = [slice(i, i + BLOCK_ROWS) for i in range(0, m, BLOCK_ROWS)]
    tables = [_beat_tables(cfg, amp, tau) for amp, tau in echo_delays(p, act, cfg)]
    data = np.zeros((m, n), dtype=complex)
    for pris in blocks:
        for node_tables in tables:
            data[pris] += _beat_rows(node_tables, pris, n)
    del tables
    if noise is not None:
        p_sig = float(np.mean(np.abs(data) ** 2))
        reference = p_sig if p_sig > 0 else 1.0
        scale = np.sqrt(reference * 10.0 ** (-noise.target_snr / 10.0))
        pairs = np.empty((BLOCK_ROWS, 2 * n))
        keys = philox_keys(noise.seed, np.arange(m)[:, None])
        bits = np.random.Philox(key=keys[0])
        fresh = bits.state                  # counter 0, empty buffer
        gen = np.random.Generator(bits)
    wall = wall_clutter(cfg)
    for pris in blocks:
        block = data[pris]
        block += wall
        if noise is not None:
            buffer = pairs[:len(block)]
            for key, row in zip(keys[pris], buffer):
                fresh["state"]["key"] = key
                bits.state = fresh
                gen.standard_normal(out=row)
            scaled = buffer.view(complex)
            scaled /= np.sqrt(2.0)  # complex division: a real one rounds differently
            scaled *= scale
            block += scaled
    return EchoFrame(data=data, config=cfg)
