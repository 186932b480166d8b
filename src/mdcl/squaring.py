"""Vertical-axis squaring of RTM and DTM into R2TM and D2TM.

Source row j (0-based) fills squared rows j^2 .. (j+1)^2-1, i.e. 2j+1
nearest-neighbor copies, which stretches the value axis onto squared
coordinates.  The Doppler map, always of even height, is split at zero
into two equal halves that are stretched outward, the negative half
mirrored back, preserving the sign symmetry of the axis.
``squared_source_rows`` is that rule; ``render_squared`` gathers the
squared map straight onto the detection grid without materialising the
stretch.
"""

from __future__ import annotations

import numpy as np

from mdcl.maps import AxisSpec, ProfileMap, normalize


def _stretch(n: int) -> np.ndarray:
    """Rows 0..n-1, row j repeated over squared rows j^2 .. (j+1)^2-1."""
    j = np.arange(n)
    return np.repeat(j, 2 * j + 1)


def squared_source_rows(q: int, kind: str) -> np.ndarray:
    """Source row of every squared row of a ``q``-row map of axis ``kind``.

    A range map has q^2 squared rows.  A Doppler map has an even height
    (the STFT's, kept even by ``decimate_rows``) and q^2 / 2 squared rows,
    q / 2 per half.  The index is non-decreasing and steps by at most one
    row.
    """
    if kind == "range":
        if q < 1:
            raise ValueError("empty range-time map")
        return _stretch(q)
    if kind != "doppler":
        raise ValueError(f"cannot square a {kind!r} axis")
    if q < 2 or q % 2:
        raise ValueError(f"need an even number of Doppler rows, got {q}")
    half = q // 2                         # first row of the positive half
    return np.concatenate([(half - 1 - _stretch(half))[::-1], half + _stretch(half)])


def render_squared(pm: ProfileMap, n_rows: int) -> ProfileMap:
    """Squared, min-max normalised map rendered onto ``n_rows`` rows.

    Each render row is the max over its block of squared rows (rows repeat
    when upsampling).  The squared index is monotone, so a block is one
    contiguous run of source rows; normalisation is monotone and commutes
    with the max, so the source rows are normalised once.
    """
    src = squared_source_rows(pm.rows, pm.axis.kind)
    rows = normalize(pm.data)
    edges = (np.arange(n_rows + 1) * src.size) // n_rows
    first = src[edges[:-1]]
    last = src[np.maximum(edges[1:], edges[:-1] + 1) - 1]
    out = rows[first]
    for step in range(1, int((last - first).max()) + 1):
        np.maximum(out, rows[np.minimum(first + step, last)], out=out)
    hi = pm.axis.hi ** 2
    lo = 0.0 if pm.axis.kind == "range" else -hi
    return ProfileMap(out, AxisSpec(pm.axis.kind + "_sq", lo, hi, n_rows),
                      pm.window)


def decimate_rows(pm: ProfileMap, max_rows: int) -> ProfileMap:
    """Block-max decimation of the value axis down to at most ``max_rows``.

    Keeps ridges at full amplitude.  An even-height Doppler map is
    decimated by a factor that divides its height into an even number of
    rows, so the zero crossing stays on a row boundary and the result can
    be squared; with ``max_rows`` >= 2, ``height / 2`` is always such a
    factor.
    """
    rows = pm.rows
    if rows <= max_rows:
        return pm
    factor = int(np.ceil(rows / max_rows))
    if pm.axis.kind == "doppler":
        # keep the zero crossing on a block boundary
        while factor < rows and (rows % factor or (rows // factor) % 2):
            factor += 1
    pad = (-rows) % factor
    data = pm.data
    if pad:
        data = np.concatenate([data, np.zeros((pad, pm.cols))], axis=0)
    blocked = data.reshape(data.shape[0] // factor, factor, pm.cols).max(axis=1)
    axis = AxisSpec(pm.axis.kind, pm.axis.lo, pm.axis.hi, blocked.shape[0])
    return ProfileMap(blocked, axis, pm.window)
