"""Echo frame -> clutter-suppressed, denoised RTM and DTM.

The chain is: per-PRI beat spectrum (fast-time DFT) cropped to the
configured range swath, two-pulse MTI along slow time in the complex
domain, and empirical-mode denoising for the range-time map.  The
Doppler-time map is an STFT of the MTI of N times each PRI's leading
fast-time sample, which equals the coherent sum of all N range bins.

Empirical-mode denoising (Huang et al. 1998) removes a sequence's first
intrinsic mode when the sequence has at least three modes and that mode
oscillates near Nyquist.  Every row of a map (or both parts of a complex
sequence) is sifted in lockstep: each round finds the extrema of all
active rows with one ``diff``, builds all their cubic envelopes from one
block-tridiagonal banded solve, and evaluates them at every sample.  A
row stops at its third mode, since nothing past it is read.
"""

from __future__ import annotations

import math

import numpy as np

from mdcl.echo import EchoFrame, RadarConfig
from mdcl.maps import AxisSpec, ProfileMap, normalize


# ---------------------------------------------------------------------------
# range compression
# ---------------------------------------------------------------------------

_FFT_ROWS = 64      # PRIs per block of the beat FFT: 1 MiB widened at 1024 samples


def range_axis(radar: RadarConfig) -> AxisSpec:
    """The RTM's axis: the beat-spectrum bins inside ``max_range_m``, bin k
    at one-way range k * c / 2B."""
    n_keep = min(int(np.floor(radar.max_range_m / radar.range_bin)) + 1,
                 radar.fast_samples)
    return AxisSpec("range", 0.0, n_keep * radar.range_bin, n_keep)


def beat_spectrum(frame: EchoFrame) -> tuple[np.ndarray, AxisSpec]:
    """Complex range-compressed rows (range bins x slow time) on
    ``range_axis``, and that axis.

    The fast-time FFT runs in complex128 over blocks of ``_FFT_ROWS``
    PRIs, each widened from the frame's own precision, and keeps only the
    in-range bins of each block; each row's transform is its own, so the
    result is the whole-frame transform's, cropped, to the bit.
    """
    axis = range_axis(frame.config)
    rows = np.empty((frame.data.shape[0], axis.n), dtype=complex)
    for r0 in range(0, rows.shape[0], _FFT_ROWS):
        block = frame.data[r0:r0 + _FFT_ROWS].astype(complex)
        rows[r0:r0 + _FFT_ROWS] = np.fft.fft(block, axis=1)[:, :axis.n]
    return rows.T, axis


def mti_filter(rc_complex: np.ndarray) -> np.ndarray:
    """Two-pulse canceller along slow time; the first column is zeroed.

    Rows are the kept range bins (or the DTM's one leading-sample row),
    columns PRIs; any slow-time-constant component is removed exactly.
    """
    if rc_complex.ndim != 2 or rc_complex.shape[1] < 2:
        raise ValueError("need at least two PRIs for the two-pulse canceller")
    out = np.zeros_like(rc_complex)
    out[:, 1:] = rc_complex[:, 1:] - rc_complex[:, :-1]
    return out


# ---------------------------------------------------------------------------
# empirical-mode denoising
# ---------------------------------------------------------------------------

DENOISE_MODES = 3       # a row is denoised only when it has this many modes
EMD_MIN_LENGTH = 8      # shortest sequence the sifting accepts


def check_emd_params(sd_stop: float, max_sifts: int) -> None:
    """Reject EMD settings under which no row could ever be denoised."""
    if max_sifts < 1:
        raise ValueError(f"emd_max_sifts must be >= 1, got {max_sifts}")
    if not (math.isfinite(sd_stop) and sd_stop >= 0):
        raise ValueError(f"emd_sd_stop must be finite and >= 0, got {sd_stop}")


def _envelope_means(h: np.ndarray, maxima: np.ndarray,
                    minima: np.ndarray) -> np.ndarray:
    """Mean of the cubic maxima and minima envelopes of every row of ``h``.

    Each envelope is the not-a-knot cubic spline through a row's extrema,
    anchored at the row's endpoints so it interpolates (never
    extrapolates), which stays bounded even when the first extremum sits
    far from an edge.  ``maxima`` / ``minima`` mark the interior extrema
    (shape ``(rows, n - 2)``; at least two of each per row).

    All ``2 * rows`` splines are one block-diagonal tridiagonal system:
    each block holds the rows ``scipy.interpolate.CubicSpline`` builds for
    one spline, and the couplings between consecutive blocks are zero, so
    the single banded solve treats every block as on its own.  The
    Hermite coefficients and the evaluation at every sample follow
    ``CubicSpline`` and ``PPoly`` term by term, so the envelopes are the
    ones a per-row ``CubicSpline`` gives, bit for bit.
    """
    # imported here: only the commands that preprocess pay scipy.linalg's 0.3 s
    from scipy.linalg import solve_banded

    m, n = h.shape
    knots = np.ones((2 * m, n), dtype=bool)
    knots[:m, 1:-1] = maxima
    knots[m:, 1:-1] = minima
    rows, cols = np.nonzero(knots)
    x = cols.astype(float)
    y = h[rows % m, cols]
    counts = np.count_nonzero(knots, axis=1)
    ends = np.cumsum(counts) - 1
    starts = ends - counts + 1

    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.empty((3, x.size))
    b = np.empty(x.size)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[2, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    s, e = starts, ends                     # not-a-knot end conditions
    d = x[s + 2] - x[s]
    ab[1, s] = dx[s + 1]
    ab[0, s + 1] = d
    b[s] = ((dx[s] + 2 * d) * dx[s + 1] * slope[s] + dx[s] ** 2 * slope[s + 1]) / d
    d = x[e] - x[e - 2]
    ab[1, e] = dx[e - 2]
    ab[2, e - 1] = d
    b[e] = (dx[e - 1] ** 2 * slope[e - 2]
            + (2 * d + dx[e - 1]) * dx[e - 2] * slope[e - 1]) / d
    ab[0, s] = 0.0                          # no coupling between blocks
    ab[2, e] = 0.0
    deriv = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)

    t = (deriv[:-1] + deriv[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - deriv[:-1]) / dx - t
    # each sample's interval starts at the last knot at or before it; the
    # last sample belongs to the last interval
    interval = np.cumsum(knots, axis=1) - 1
    interval[:, -1] -= 1
    interval += starts[:, None]
    u = np.arange(n) - x[interval]
    env = deriv[interval] * u
    env += y[interval]
    u2 = u * u
    env += c1[interval] * u2
    u2 *= u
    env += c0[interval] * u2
    return 0.5 * (env[:m] + env[m:])


def _first_modes(x: np.ndarray, sd_stop: float,
                 max_sifts: int) -> tuple[np.ndarray, np.ndarray]:
    """First intrinsic mode of each row and the row's mode count.

    Cubic-envelope sifting, all rows in lockstep: each round makes one
    sift of every row still active.  A mode ends when its sift changes
    it by less than ``sd_stop`` (relative energy) or after ``max_sifts``
    sifts.  A row stops when its residue carries a negligible fraction of
    the input energy, when a sift finds fewer than two maxima or minima
    (that mode does not count), or once it has ``DENOISE_MODES`` modes:
    nothing past the third mode is read.
    """
    check_emd_params(sd_stop, max_sifts)
    residue = np.array(x, dtype=float)
    n_rows = residue.shape[0]
    total = np.sum(residue * residue, axis=1)
    first = np.zeros_like(residue)
    n_modes = np.zeros(n_rows, dtype=int)
    sifts = np.zeros(n_rows, dtype=int)
    active = total != 0.0
    h = residue.copy()
    while np.any(active):
        idx = np.flatnonzero(active)
        hi = h[idx]
        d = np.diff(hi, axis=1)
        maxima = (d[:, :-1] > 0) & (d[:, 1:] < 0)
        minima = (d[:, :-1] < 0) & (d[:, 1:] > 0)
        ok = ((np.count_nonzero(maxima, axis=1) >= 2)
              & (np.count_nonzero(minima, axis=1) >= 2))
        active[idx[~ok]] = False
        idx, hi = idx[ok], hi[ok]
        if idx.size == 0:
            break
        h_new = hi - _envelope_means(hi, maxima[ok], minima[ok])
        denom = np.sum(hi * hi, axis=1)
        change = np.sum((hi - h_new) ** 2, axis=1)
        sd = np.divide(change, denom, out=np.zeros_like(denom), where=denom > 0)
        h[idx] = h_new
        sifts[idx] += 1
        done = (sd < sd_stop) | (sifts[idx] == max_sifts)
        idx, imf = idx[done], h_new[done]
        is_first = n_modes[idx] == 0
        first[idx[is_first]] = imf[is_first]
        n_modes[idx] += 1
        res = residue[idx] - imf
        residue[idx] = res
        stop = ((n_modes[idx] >= DENOISE_MODES)
                | (np.sum(res * res, axis=1) < 1e-10 * total[idx]))
        active[idx[stop]] = False
        idx = idx[~stop]
        h[idx] = residue[idx]
        sifts[idx] = 0
    return first, n_modes


def _near_nyquist(imfs: np.ndarray) -> np.ndarray:
    """Per row: True when the mode oscillates like broadband noise.

    Broadband noise sifts into a first mode whose zero crossings sit about
    two to three samples apart; a resolvable signal component crosses far
    less often.  Gating the first-mode removal on this keeps
    single-component inputs intact.  Zeros do not break a crossing.
    """
    rows, cols = np.nonzero(imfs)
    positive = imfs[rows, cols] > 0
    flips = (rows[1:] == rows[:-1]) & (positive[1:] != positive[:-1])
    crossings = np.bincount(rows[1:][flips], minlength=imfs.shape[0])
    with np.errstate(divide="ignore"):
        spacing = imfs.shape[1] / crossings
    return (crossings > 0) & (spacing <= 3.0)


def _denoise_block(x: np.ndarray, sd_stop: float, max_sifts: int) -> np.ndarray:
    """Each row of a real 2-D block with its first mode removed.

    Rows that decompose into fewer than 3 modes, or whose first mode does
    not oscillate near Nyquist, are returned unchanged.
    """
    if x.shape[1] < EMD_MIN_LENGTH:
        raise ValueError(f"EMD expects rows of length >= {EMD_MIN_LENGTH}")
    if not np.all(np.isfinite(x)):
        raise ValueError("EMD input must be finite")
    first, n_modes = _first_modes(x, sd_stop, max_sifts)
    out = x.astype(float, copy=True)
    drop = (n_modes >= DENOISE_MODES) & _near_nyquist(first)
    out[drop] -= first[drop]
    return out


def emd_denoise(signal: np.ndarray, sd_stop: float, max_sifts: int) -> np.ndarray:
    """Drop the first intrinsic mode (the noise-dominated one) of a complex
    sequence.

    The real and imaginary parts are sifted as one block, and each is
    returned unchanged when it decomposes into fewer than 3 modes or its
    first mode does not oscillate near Nyquist.
    """
    parts = _denoise_block(np.stack((signal.real, signal.imag)), sd_stop, max_sifts)
    return parts[0] + 1j * parts[1]


def denoise_rows(a: np.ndarray, sd_stop: float, max_sifts: int) -> np.ndarray:
    """Row-wise EMD denoising of a real map, clipped at zero."""
    return np.clip(_denoise_block(a, sd_stop, max_sifts), 0.0, None)


# ---------------------------------------------------------------------------
# Doppler-time map
# ---------------------------------------------------------------------------

STFT_WINDOW = 128
STFT_HOP = 4
STFT_SIZE = 256


def stft_magnitude(x: np.ndarray) -> np.ndarray:
    """Zero-Doppler-centered STFT magnitude with columns at every sample.

    ``STFT_WINDOW``-sample Hann frames are centered on ``STFT_HOP``-spaced
    samples (edges zero-padded) and transformed at ``STFT_SIZE`` points;
    each frame's column is replicated ``STFT_HOP`` times so the output
    matches the slow-time sample count.
    """
    n = x.size
    half = STFT_WINDOW // 2
    padded = np.concatenate([np.zeros(half, dtype=x.dtype), x,
                             np.zeros(half, dtype=x.dtype)])
    taper = np.hanning(STFT_WINDOW)
    centers = np.arange(0, n, STFT_HOP)
    frames = np.stack([padded[c:c + STFT_WINDOW] * taper for c in centers])
    spec = np.fft.fftshift(np.fft.fft(frames, n=STFT_SIZE, axis=1), axes=1)
    mag = np.abs(spec).T                       # (size, n_frames)
    # ceil(n / STFT_HOP) frames repeated STFT_HOP times cover all n samples
    return np.repeat(mag, STFT_HOP, axis=1)[:, :n]


def doppler_axis(radar: RadarConfig) -> AxisSpec:
    """The DTM's axis: ``STFT_SIZE`` rows spanning [-fs/2, fs/2), fs the
    pulse rate."""
    fs = radar.slow_samples / radar.window_s
    return AxisSpec("doppler", -fs / 2.0, fs / 2.0, STFT_SIZE)


def make_dtm(series: np.ndarray, radar: RadarConfig,
             emd_params: tuple[float, int]) -> ProfileMap:
    """Doppler-time map of the MTI of N times each PRI's leading fast-time
    sample, which equals the coherent sum of all N range bins.

    Its phase carries the node Doppler 2 fc v / c exactly.  The series, one
    sample per PRI, is EMD-denoised and short-time Fourier transformed onto
    ``doppler_axis``.
    """
    mag = stft_magnitude(emd_denoise(series, *emd_params))
    return ProfileMap(mag, doppler_axis(radar), radar.window_s)


def make_rtm(mti_complex: np.ndarray, range_axis: AxisSpec, window_s: float,
             emd_params: tuple[float, int]) -> ProfileMap:
    """Denoised, normalized RTM from the MTI-filtered kept range rows."""
    mag = denoise_rows(np.abs(mti_complex), *emd_params)
    return ProfileMap(normalize(mag), range_axis, window_s)


def preprocess_frame(frame: EchoFrame,
                     emd_params: tuple[float, int]) -> tuple[ProfileMap, ProfileMap]:
    """Full preprocessing chain of one frame: (RTM, DTM).

    Clutter is cancelled in the complex domain on each map's own input:
    the kept range rows for the RTM (the row-wise MTI commutes with the
    crop) and the leading-sample series for the DTM.
    """
    rows, axis = beat_spectrum(frame)
    n, radar = frame.data.shape[1], frame.config
    rtm = make_rtm(mti_filter(rows), axis, radar.window_s, emd_params)
    dtm = make_dtm(mti_filter(n * frame.data[:, :1].T.astype(complex))[0],
                   radar, emd_params)
    return rtm, dtm
