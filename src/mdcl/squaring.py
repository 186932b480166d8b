"""Vertical-axis squaring of RTM and DTM into R2TM and D2TM.

Source row j (1-based) is replicated into output rows (j-1)^2+1 .. j^2,
i.e. 2j-1 nearest-neighbor copies, which stretches the value axis onto
squared coordinates.  The Doppler map is split at zero into two halves
that are stretched outward, the negative half flipped back, and the two
concatenated, preserving the sign symmetry of the axis.
"""

from __future__ import annotations

import numpy as np

from mdcl.maps import AxisSpec, ProfileMap, normalize


def stretch_rows_squared(a: np.ndarray) -> np.ndarray:
    """Replicate row j (0-based) of ``a`` into output rows j^2 .. (j+1)^2-1."""
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("need a 2-D array with at least one row")
    src = np.floor(np.sqrt(np.arange(a.shape[0] ** 2))).astype(int)
    return a[src]


def square_range_axis(rtm: ProfileMap, *, do_normalize: bool = True) -> ProfileMap:
    """R2TM: piecewise-constant stretch of the range axis onto range^2."""
    if rtm.data.size == 0:
        raise ValueError("empty range-time map")
    out = stretch_rows_squared(rtm.data)
    if do_normalize:
        out = normalize(out)
    axis = AxisSpec("range_sq", 0.0, rtm.axis.hi ** 2, out.shape[0])
    return ProfileMap(out, axis, rtm.window)


def square_doppler_axis(dtm: ProfileMap, *, do_normalize: bool = True) -> ProfileMap:
    """D2TM: per-half squared stretch of the zero-centered Doppler axis.

    For q source rows the output has 2*ceil(q/2)^2 rows.  With odd q the
    center row joins the positive half and the outermost negative ring
    stays zero (the pseudocode allocates zero-filled halves).
    """
    q = dtm.data.shape[0]
    if q < 2:
        raise ValueError("need at least two Doppler rows")
    half = (q + 1) // 2
    center = q - half                     # first row of the positive half
    neg_outward = dtm.data[center - 1::-1]      # rows center-1 .. 0
    pos_outward = dtm.data[center:]             # rows center .. q-1
    neg_sq = np.zeros((half * half, dtm.data.shape[1]), dtype=float)
    pos_sq = stretch_rows_squared(pos_outward)
    neg_part = stretch_rows_squared(neg_outward) if neg_outward.size else None
    if neg_part is not None:
        neg_sq[:neg_part.shape[0]] = neg_part
    out = np.concatenate([neg_sq[::-1], pos_sq], axis=0)
    if do_normalize:
        out = normalize(out)
    hi = dtm.axis.hi ** 2
    axis = AxisSpec("doppler_sq", -hi, hi, out.shape[0])
    return ProfileMap(out, axis, dtm.window)


def decimate_rows(pm: ProfileMap, max_rows: int) -> ProfileMap:
    """Block-max decimation of the value axis down to at most ``max_rows``.

    Keeps ridges at full amplitude.  Doppler maps are decimated by an even
    factor so the zero crossing stays on a row boundary.
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


def resample_rows(pm: ProfileMap, n_rows: int) -> ProfileMap:
    """Render the value axis onto a fixed row grid (block max / repeat).

    Corner coordinates are reported on this grid in normalized units, so
    the resampling is transparent to downstream consumers.
    """
    src = pm.rows
    if src == n_rows:
        return pm
    edges = (np.arange(n_rows + 1) * src) // n_rows
    out = np.empty((n_rows, pm.cols), dtype=float)
    for i in range(n_rows):
        lo, hi = edges[i], max(edges[i + 1], edges[i] + 1)
        block = pm.data[lo:min(hi, src)]
        out[i] = block.max(axis=0) if block.size else pm.data[min(lo, src - 1)]
    axis = AxisSpec(pm.axis.kind, pm.axis.lo, pm.axis.hi, n_rows)
    return ProfileMap(out, axis, pm.window)
