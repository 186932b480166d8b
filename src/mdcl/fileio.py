"""Self-describing binary matrix files, PGM heatmaps and CSV tables.

Matrix format "MDCM": magic, version byte, flags byte (bit 0 set for
complex-interleaved payloads), little-endian u32 rows/cols, then row-major
32-bit IEEE-754 little-endian floats.  Bit-exact across platforms.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MDCM"
VERSION = 1
FLAG_COMPLEX = 0x01
_HEADER = struct.Struct("<4sBBII")


class MatrixFormatError(ValueError):
    pass


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    a = np.asarray(a)
    if a.ndim != 2:
        raise MatrixFormatError("only 2-D matrices are supported")
    complex_payload = np.iscomplexobj(a)
    flags = FLAG_COMPLEX if complex_payload else 0
    rows, cols = a.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, flags, rows, cols))
        # the cast array's own buffer: one payload-sized copy at most
        f.write(np.ascontiguousarray(a, dtype="<c8" if complex_payload else "<f4"))


def read_matrix(path: str | Path) -> np.ndarray:
    """The matrix at the precision its file holds: complex64 or float32.

    The payload is read with one ``readinto`` straight into the result,
    so reading holds the result alone, not the file's bytes beside it.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise MatrixFormatError(f"{path}: truncated header")
        magic, version, flags, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise MatrixFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise MatrixFormatError(f"{path}: unsupported version {version}")
        out = np.empty((rows, cols), dtype="<c8" if flags & FLAG_COMPLEX else "<f4")
        if (os.fstat(f.fileno()).st_size - _HEADER.size != out.nbytes
                or f.readinto(out) != out.nbytes):
            raise MatrixFormatError(f"{path}: payload size mismatch")
    return out


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------

def write_pgm(path: str | Path, img: np.ndarray,
              corners: list[tuple[int, int]] | None = None) -> None:
    """Binary 8-bit PGM of a [0, 1] map; rows are written as given.

    Optional corners are burned in as 3x3 white crosses, clipped at the
    borders.
    """
    level = np.array(img, dtype=float)     # a copy: quantized in place below
    if level.ndim != 2:
        raise ValueError("heatmap must be 2-D")
    np.clip(level, 0.0, 1.0, out=level)
    level *= 255.0
    gray = np.round(level, out=level).astype(np.uint8)
    if corners:
        nr, nc = gray.shape
        for r, c in corners:
            for dr, dc in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < nr and 0 <= cc < nc:
                    gray[rr, cc] = 255
    with open(path, "wb") as f:
        f.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Comma-separated table; every float, numpy's too, as a Python float's repr."""
    def fmt(v) -> str:
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
