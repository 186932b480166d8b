"""Profile-map containers with physical axis metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AxisSpec:
    """Physical meaning of a map's row axis.

    kind: one of range, doppler, range_sq, doppler_sq.
    lo/hi: physical extents of the axis.  Range axes start at lo = 0;
    Doppler axes are symmetric about zero; squared Doppler axes carry the
    signed square sign*f^2.
    """

    kind: str
    lo: float
    hi: float
    n: int

    def value_to_row(self, value: float | np.ndarray) -> np.ndarray:
        """Nearest row index of a physical value, clipped into the axis."""
        frac = (np.asarray(value, dtype=float) - self.lo) / (self.hi - self.lo)
        rows = np.floor(frac * self.n).astype(int)
        return np.clip(rows, 0, self.n - 1)


@dataclass(frozen=True)
class ProfileMap:
    """Real non-negative matrix: value axis (rows) x slow time (columns)."""

    data: np.ndarray
    axis: AxisSpec
    window: float            # slow-time extent, seconds

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError("profile map must be 2-D")
        if self.data.shape[0] != self.axis.n:
            raise ValueError("row count does not match the axis spec")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def normalize(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max normalization onto [0, 1]; constant inputs map to zeros.

    The result goes to ``out`` when given (a float64 array of ``a``'s
    shape, ``a`` itself included), else to a new array.
    """
    a = np.asarray(a, dtype=float)
    lo = a.min()
    hi = a.max()
    if hi == lo:
        if out is None:
            return np.zeros_like(a)
        out.fill(0.0)
        return out
    out = np.subtract(a, lo, out=out)
    out /= hi - lo
    return out
