"""Echo frame -> clutter-suppressed, denoised RTM and DTM.

The chain is: per-PRI beat spectrum (fast-time DFT), two-pulse MTI along
slow time in the complex domain, empirical-mode denoising, and an STFT of
the coherently summed range cells for the Doppler-time map.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from mdcl.echo import EchoFrame
from mdcl.maps import AxisSpec, ProfileMap, normalize


# ---------------------------------------------------------------------------
# range compression
# ---------------------------------------------------------------------------

def beat_spectrum(frame: EchoFrame) -> np.ndarray:
    """Complex range-compressed matrix (range bins x slow time).

    Beat-spectrum bin k maps to one-way range k * c / 2B; every bin is
    kept (``crop_range_rows`` keeps those inside the maximum range).
    """
    return np.fft.fft(frame.data, axis=1).T


def crop_range_rows(matrix: np.ndarray, cfg) -> tuple[np.ndarray, AxisSpec]:
    """Keep the range rows inside the configured maximum range."""
    n_keep = min(int(np.floor(cfg.max_range / cfg.range_bin)) + 1,
                 matrix.shape[0])
    axis = AxisSpec("range", 0.0, n_keep * cfg.range_bin, n_keep)
    return matrix[:n_keep], axis


def mti_filter(rc_complex: np.ndarray) -> np.ndarray:
    """Two-pulse canceller along slow time; the first column is zeroed.

    Operates on the complex range-compressed matrix (rows = range bins,
    columns = PRIs), removing any slow-time-constant component exactly.
    """
    if rc_complex.ndim != 2 or rc_complex.shape[1] < 2:
        raise ValueError("need at least two PRIs for the two-pulse canceller")
    out = np.zeros_like(rc_complex)
    out[:, 1:] = rc_complex[:, 1:] - rc_complex[:, :-1]
    return out


# ---------------------------------------------------------------------------
# empirical-mode denoising
# ---------------------------------------------------------------------------

SD_STOP = 0.3
MAX_SIFTS = 10
MAX_IMFS = 8


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.diff(x)
    maxima = np.nonzero((d[:-1] > 0) & (d[1:] < 0))[0] + 1
    minima = np.nonzero((d[:-1] < 0) & (d[1:] > 0))[0] + 1
    return maxima, minima


def _envelope(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic envelope through extrema, anchored at the signal endpoints.

    Anchoring keeps the spline interpolating (never extrapolating), which
    stays bounded even when the first extremum sits far from an edge.
    """
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


def _sift_imf(x: np.ndarray, sd_stop: float, max_sifts: int) -> np.ndarray | None:
    h = x
    for _ in range(max_sifts):
        maxima, minima = _extrema(h)
        if maxima.size < 2 or minima.size < 2:
            return None
        mean = 0.5 * (_envelope(maxima, h) + _envelope(minima, h))
        h_new = h - mean
        denom = np.sum(h * h)
        sd = np.sum((h - h_new) ** 2) / denom if denom > 0 else 0.0
        h = h_new
        if sd < sd_stop:
            break
    return h


def emd_imfs(x: np.ndarray, max_imfs: int = MAX_IMFS, sd_stop: float = SD_STOP,
             max_sifts: int = MAX_SIFTS) -> list[np.ndarray]:
    """Intrinsic mode functions by cubic-envelope sifting.

    Extraction stops when the residue is monotone or carries a negligible
    fraction of the input energy (so single-component signals yield a
    single mode instead of numerical-noise modes).
    """
    residue = np.asarray(x, dtype=float).copy()
    total = float(np.sum(residue * residue))
    imfs: list[np.ndarray] = []
    if total == 0.0:
        return imfs
    for _ in range(max_imfs):
        if np.sum(residue * residue) < 1e-10 * total:
            break
        imf = _sift_imf(residue, sd_stop, max_sifts)
        if imf is None:
            break
        imfs.append(imf)
        residue = residue - imf
    return imfs


def emd_denoise(signal: np.ndarray, max_imfs: int = MAX_IMFS,
                sd_stop: float = SD_STOP, max_sifts: int = MAX_SIFTS) -> np.ndarray:
    """Drop the first intrinsic mode (the noise-dominated one).

    Applies to real or complex 1-D sequences; complex input is denoised
    component-wise.  Sequences that decompose into fewer than 3 modes, or
    whose first mode does not oscillate near Nyquist, are returned
    unchanged.
    """
    x = np.asarray(signal)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("emd_denoise expects a 1-D sequence of length >= 8")
    if not np.all(np.isfinite(x.view(float) if np.iscomplexobj(x) else x)):
        raise ValueError("emd_denoise input must be finite")
    if np.iscomplexobj(x):
        return (emd_denoise(x.real, max_imfs, sd_stop, max_sifts)
                + 1j * emd_denoise(x.imag, max_imfs, sd_stop, max_sifts))
    imfs = emd_imfs(x, max_imfs, sd_stop, max_sifts)
    if len(imfs) < 3 or not _near_nyquist(imfs[0]):
        return x.astype(float, copy=True)
    return x - imfs[0]


def _near_nyquist(imf: np.ndarray, max_spacing: float = 3.0) -> bool:
    """True when a mode oscillates like broadband noise.

    Broadband noise sifts into a first mode whose zero crossings sit about
    two to three samples apart; a resolvable signal component crosses far
    less often.  Gating the first-mode removal on this keeps
    single-component inputs intact.
    """
    signs = np.sign(imf)
    signs = signs[signs != 0]
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if crossings == 0:
        return False
    return imf.size / crossings <= max_spacing


def denoise_rows(a: np.ndarray, max_imfs: int = MAX_IMFS,
                 sd_stop: float = SD_STOP, max_sifts: int = MAX_SIFTS) -> np.ndarray:
    """Row-wise EMD denoising of a real map, clipped at zero."""
    out = np.empty_like(a, dtype=float)
    for i in range(a.shape[0]):
        out[i] = emd_denoise(a[i], max_imfs, sd_stop, max_sifts)
    return np.clip(out, 0.0, None)


# ---------------------------------------------------------------------------
# Doppler-time map
# ---------------------------------------------------------------------------

STFT_WINDOW = 128
STFT_HOP = 4
STFT_SIZE = 256


def stft_magnitude(x: np.ndarray, fs: float, window: int = STFT_WINDOW,
                   hop: int = STFT_HOP, size: int = STFT_SIZE) -> np.ndarray:
    """Zero-Doppler-centered STFT magnitude with columns at every sample.

    Frames are centered on hop-spaced samples (edges zero-padded) and each
    frame's column is replicated ``hop`` times so the output matches the
    slow-time sample count.
    """
    n = x.size
    half = window // 2
    padded = np.concatenate([np.zeros(half, dtype=x.dtype), x,
                             np.zeros(half, dtype=x.dtype)])
    taper = np.hanning(window)
    centers = np.arange(0, n, hop)
    frames = np.stack([padded[c:c + window] * taper for c in centers])
    spec = np.fft.fftshift(np.fft.fft(frames, n=size, axis=1), axes=1)
    mag = np.abs(spec).T                       # (size, n_frames)
    cols = np.repeat(mag, hop, axis=1)[:, :n]
    if cols.shape[1] < n:
        cols = np.pad(cols, ((0, 0), (0, n - cols.shape[1])), mode="edge")
    return cols


def make_dtm(mti_complex: np.ndarray, window_s: float, *,
             emd_params: tuple[int, float, int] = (MAX_IMFS, SD_STOP, MAX_SIFTS),
             ) -> ProfileMap:
    """Doppler-time map from the MTI-filtered range-compressed matrix.

    All range cells are summed coherently per slow-time instant,
    EMD-denoised, and short-time Fourier transformed.  Rows span
    the symmetric Doppler axis [-fs/2, fs/2).  Pass the uncropped matrix:
    the full-bin coherent sum collapses to the per-PRI leading fast-time
    sample, whose phase carries the node Doppler 2 fc v / c exactly; a
    cropped sum would pick up a range-migration bias.
    """
    series = emd_denoise(mti_complex.sum(axis=0), *emd_params)
    m = series.size
    fs = m / window_s
    mag = stft_magnitude(series, fs)
    axis = AxisSpec("doppler", -fs / 2.0, fs / 2.0, mag.shape[0])
    return ProfileMap(mag, axis, window_s)


def make_rtm(mti_complex: np.ndarray, range_axis: AxisSpec, window_s: float,
             emd_params: tuple[int, float, int] = (MAX_IMFS, SD_STOP, MAX_SIFTS),
             ) -> ProfileMap:
    """Denoised, normalized RTM from the MTI-filtered complex matrix."""
    mag = denoise_rows(np.abs(mti_complex), *emd_params)
    return ProfileMap(normalize(mag), range_axis, window_s)


def preprocess_frame(frame: EchoFrame, *,
                     emd_params: tuple[int, float, int] = (MAX_IMFS, SD_STOP,
                                                           MAX_SIFTS),
                     ) -> tuple[ProfileMap, ProfileMap]:
    """Full preprocessing chain of one frame: (RTM, DTM).

    Clutter is cancelled in the complex domain on the uncropped beat
    spectrum; the RTM keeps only the configured range swath while the DTM
    sums every range cell.
    """
    mti = mti_filter(beat_spectrum(frame))
    cropped, range_axis = crop_range_rows(mti, frame.config)
    rtm = make_rtm(cropped, range_axis, frame.config.window, emd_params)
    dtm = make_dtm(mti, frame.config.window, emd_params=emd_params)
    return rtm, dtm
