"""Blob-sensitive corner detection and point-cloud fusion.

The detector convolves the map with a bank of second-order anisotropic
Gaussian directional-derivative filters and combines the squared
orientation responses through their geometric mean, which peaks on blobs
and vanishes on straight ridges.  The bank runs in float32 on the float64
spectrum of the mean-removed map, two orientations per complex inverse
transform: the map is real, so the inverse of its spectrum times the
transform of ``k_a + 1j * k_b`` carries orientation a in its real part and
b in its imaginary part.  The squares, logs and their sum run over row
blocks that stay in cache, to the bits of a whole-map computation, and
the sum goes into the already-read head of the first inverse transform's
own buffer, so an extraction holds only its transforms.  The response
differs from a float64 bank's by at most 1e-4 of the peak response, and
its corners differ only among maxima whose float64 responses tie within
that tolerance (noise-free maps repeat features exactly).  Non-maximum
suppression finds the strongest disk maxima of the response (pixels no
neighbour within the NMS radius exceeds) lazily: 3x3 local maxima are
ordered by response and tested against the full disk only until a fixed
pool is full, so a noisy map costs a few array passes, not a full-map
disk filter, and only the strongest few hundred of its tens of thousands
of local maxima are sorted.  A greedy pass over the pool keeps the 30
strongest at least the radius apart; degenerate maps are padded to keep
the fixed cardinality the fused 60x3 cloud requires.
A corner holds only its pixel: ``CornerSet.uv`` is the one rule that puts
a pixel on the unit square.  Fusion pairs each corner with the partner
map's column of the same index, so both maps share their column count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from mdcl.maps import ProfileMap


CORNERS = 30    # corners per map: the ground truth and the 60x3 fused cloud


@dataclass
class DetectorConfig:
    """The ``[detector]`` config section; ``PipelineConfig.validate``
    checks it."""

    orientations: int = 8
    sigma_px: float = 3.0           # derivative-direction scale
    anisotropy: float = 1.5         # cross-direction elongation factor
    nms_radius_px: int = 7          # Euclidean
    render_rows: int = 1024         # rows of the squared maps it runs on


@dataclass(frozen=True)
class Corner:
    """A detected pixel; ``CornerSet.uv`` places it on the unit square."""

    row: int
    col: int
    response: float
    padded: bool = False


@dataclass(frozen=True)
class CornerSet:
    corners: tuple[Corner, ...]
    map_id: str
    shape: tuple[int, int]

    def __post_init__(self):
        if any(not (0 <= c.row < self.shape[0] and 0 <= c.col < self.shape[1])
               for c in self.corners):
            raise ValueError("corner outside the map")

    def __len__(self) -> int:
        return len(self.corners)

    def uv(self) -> np.ndarray:
        """The corners on the unit square: u = col / (cols - 1) along slow
        time, v = row / (rows - 1) along the value axis."""
        rc = np.array([(c.row, c.col) for c in self.corners]).reshape(-1, 2)
        return np.column_stack([rc[:, 1] / (self.shape[1] - 1),
                                rc[:, 0] / (self.shape[0] - 1)])


@dataclass(frozen=True)
class PointCloudRD:
    """(2 * CORNERS)x3 fused cloud: columns (slow-time u, range_sq v,
    doppler_sq w)."""

    points: np.ndarray
    source: tuple[str, ...]                 # "R" or "D" per row
    flagged: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        if self.points.shape != (2 * CORNERS, 3):
            raise ValueError(f"PC-RD must be {2 * CORNERS}x3")
        if np.any(self.points < 0) or np.any(self.points > 1):
            raise ValueError("PC-RD coordinates must be normalized to [0, 1]")


def placeholder_lattice() -> np.ndarray:
    """The 30 (u, v) points of the 5x6 placeholder lattice, u in
    [0.1, 0.9] varying fastest, v in [0.2, 0.8]: an empty scene's ground
    truth, and the padded corners of a map without maxima."""
    uu, vv = np.meshgrid(np.linspace(0.1, 0.9, 6), np.linspace(0.2, 0.8, 5))
    return np.column_stack([uu.ravel(), vv.ravel()])


def _radius(cfg: DetectorConfig) -> int:
    """Kernel half-width: three of the wider of the two Gaussian scales."""
    return int(np.ceil(3.0 * max(cfg.sigma_px, cfg.sigma_px * cfg.anisotropy)))


def _kernels(cfg: DetectorConfig) -> list[np.ndarray]:
    sig_u = cfg.sigma_px
    sig_v = cfg.sigma_px * cfg.anisotropy
    radius = _radius(cfg)
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    kernels = []
    for k in range(cfg.orientations):
        ang = np.pi * k / cfg.orientations
        u = xx * np.cos(ang) + yy * np.sin(ang)
        v = -xx * np.sin(ang) + yy * np.cos(ang)
        g = np.exp(-0.5 * (u ** 2 / sig_u ** 2 + v ** 2 / sig_v ** 2))
        kern = (u ** 2 - sig_u ** 2) / sig_u ** 4 * g
        kern -= kern.mean()                 # exactly zero response on constants
        kern /= np.abs(kern).sum()
        kernels.append(kern)
    return kernels


_KERNEL_FFT_CACHE: dict[tuple, tuple] = {}
_KERNEL_FFT_LOCK = threading.Lock()


def _kernel_ffts(cfg: DetectorConfig, padded_shape: tuple[int, int]):
    """The bank's transforms at ``padded_shape``, two orientations each.

    Pair j holds the full-plane transform of ``k[2j] + 1j * k[2j+1]`` by
    linearity; a zero kernel partners the last orientation when their
    count is odd.  Each pair is transformed down the kernel's own columns
    first, then along every row of the result: only the support's columns
    are nonzero, so the first pass skips the zero padding, and in this
    order the result equals ``fft2`` of the zero-padded pair to the bit
    (rows first does not).  Taken in float64 and kept as complex64 (the
    bank runs in float32), one pair at a time so that no two float64
    spectra are held at once.  Built once per key under a lock, so
    concurrent first extractions do not each build it.
    """
    # imported here: only the commands that extract pay scipy.fft's 0.2 s
    from scipy import fft as sfft

    key = (cfg.orientations, cfg.sigma_px, cfg.anisotropy, padded_shape)
    with _KERNEL_FFT_LOCK:
        cached = _KERNEL_FFT_CACHE.get(key)
        if cached is None:
            kernels = _kernels(cfg)
            k = kernels[0].shape[0]
            full = (padded_shape[0] + k - 1, padded_shape[1] + k - 1)
            fast = (sfft.next_fast_len(full[0]), sfft.next_fast_len(full[1]))
            if len(kernels) % 2:
                kernels.append(np.zeros_like(kernels[0]))
            pairs = [sfft.fft(sfft.fft(a + 1j * b, fast[0], axis=0), fast[1],
                              axis=1).astype(np.complex64)
                     for a, b in zip(kernels[::2], kernels[1::2])]
            cached = (k, fast, pairs)
            _KERNEL_FFT_CACHE[key] = cached
    return cached


def filter_support(cfg: DetectorConfig) -> int:
    """Side of the square filter support; smaller maps cannot be filtered."""
    return 2 * _radius(cfg) + 1


def _full_spectrum(half: np.ndarray, cols: int) -> np.ndarray:
    """The complex64 full-plane transform of a real field from its
    ``rfft2`` half plane ``half`` (``cols`` columns in full), completed
    by Hermitian symmetry: X[r, c] = conj(X[-r, -c]) modulo the shape."""
    h = half.shape[1]
    spec = np.empty((half.shape[0], cols), dtype=np.complex64)
    spec[:, :h] = half
    mirror = half[:, cols - h:0:-1]         # columns cols - c for c >= h
    np.conjugate(mirror[:1], out=spec[:1, h:])
    np.conjugate(mirror[:0:-1], out=spec[1:, h:])
    return spec


def _padded_frame(img: np.ndarray, pad: int, shape: tuple[int, int]) -> np.ndarray:
    """The mean-removed map, symmetric-padded by ``pad`` on every side, in
    the leading corner of a zero float64 frame of ``shape``: what
    ``np.pad(..., mode="symmetric")`` zero-filled to the transform size
    holds, written once.  A float32 map is widened first: the mean of the
    float64 map sums in another order than ``mean(dtype=float64)``."""
    nr, nc = img.shape
    img = np.asarray(img, dtype=np.float64)
    frame = np.zeros(shape)
    np.subtract(img, img.mean(), out=frame[pad:pad + nr, pad:pad + nc])
    f = frame[:nr + 2 * pad, :nc + 2 * pad]
    f[:pad, pad:-pad] = f[2 * pad - 1:pad - 1:-1, pad:-pad]
    f[-pad:, pad:-pad] = f[-pad - 1:-2 * pad - 1:-1, pad:-pad]
    f[:, :pad] = f[:, 2 * pad - 1:pad - 1:-1]
    f[:, -pad:] = f[:, -pad - 1:-2 * pad - 1:-1]
    return frame


_TAIL_ROWS = 32     # rows per block of the response tail: 256 KiB at 1024 columns


def corner_response(img: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    """Geometric mean of squared directional second-derivative responses.

    Implemented as one FFT of the symmetric-padded map against a cached
    bank of kernel transforms (equivalent to per-kernel same-mode
    convolution with reflected borders, so edges grow no artificial
    gradients).  The map's mean is removed and the map transformed in
    float64: every kernel sums to zero, so the mean changes nothing in
    exact arithmetic, and without it a constant map would not respond
    exactly zero.  The half-plane spectrum is completed by Hermitian
    symmetry and rounded to complex64.  Each cached pair of orientations
    then costs one complex inverse transform: the map is real, so the
    real part of the product's inverse is the first orientation's
    response and the imaginary part the second's.  The inverse
    transforms, squares and geometric mean run in float32, and so does
    the response returned; it differs from a float64 bank's by at most
    1e-4 of the peak response.  The tail after the transforms runs over
    blocks of ``_TAIL_ROWS`` rows (see ``_geometric_mean``) and sums into
    the head of the first transform, so the response is a view into that
    9.3 MB buffer (at 1024 x 1024): a caller that keeps a response keeps
    its buffer.
    """
    from scipy import fft as sfft           # see _kernel_ffts

    side = filter_support(cfg)
    if min(img.shape) < side:
        raise ValueError(
            f"map {img.shape} smaller than the {side}x{side} filter support")
    pad = _radius(cfg)
    nr, nc = img.shape
    _, fast, pair_ffts = _kernel_ffts(cfg, (nr + 2 * pad, nc + 2 * pad))
    img_fft = _full_spectrum(sfft.rfft2(_padded_frame(img, pad, fast)), fast[1])
    r0, c0 = 2 * pad, 2 * pad
    transforms = []
    for j, kf in enumerate(pair_ffts):
        # the last product may overwrite the map's spectrum; each inverse
        # transform runs in place on its product
        last = j == len(pair_ffts) - 1
        product = np.multiply(img_fft, kf, out=img_fft if last else None)
        transforms.append(sfft.ifft2(product, overwrite_x=True))
    del img_fft, product
    head = transforms[0].reshape(-1).view(np.float32)[:nr * nc].reshape(nr, nc)
    return _geometric_mean([t[r0:r0 + nr, c0:c0 + nc] for t in transforms],
                           cfg.orientations, head)


def _geometric_mean(convs: list[np.ndarray], count: int,
                    out: np.ndarray) -> np.ndarray:
    """``exp(mean_k log(x_k**2 + eps)) - eps``, clipped at zero, over the
    ``count`` orientation fields ``x_k`` the complex64 ``convs`` carry
    (orientation 2j in conv j's real part, 2j+1 in its imaginary part).

    ``eps`` is 1e-12 of the largest square, floored at float32's smallest
    normal so that a zero map takes no log(0).  The squares, logs and the
    sum run over row blocks small enough to stay in cache: one pass finds
    the largest square, a second squares each block again into one
    contiguous scratch buffer, takes its log and adds the terms in
    orientation order.  Every step is elementwise and in the order of a
    whole-map computation, so the result is the same to the bit.

    The sum goes into ``out``: the first ``nr * nc`` floats of conv 0's
    own transform buffer, of width ``W >= nc``.  A block at row s zeroes
    its rows of ``out`` only once field 0's rows are squared into the
    scratch buffer, and writes below float ``nc * (s + _TAIL_ROWS)``;
    field 0's row j starts at float ``2 * j * W`` or later, past that for
    every unread row j >= s + _TAIL_ROWS, so no write reaches one.
    """
    # float32 fields whose columns interleave ``width`` orientations each;
    # an odd count's last pair contributes its real part only
    fields = [(c.view(np.float32), 2) for c in convs[:count // 2]]
    if count % 2:
        fields.append((convs[-1].real, 1))
    nr, nc = convs[0].shape
    scratch = np.empty(_TAIL_ROWS * 2 * nc, dtype=np.float32)

    def block(field: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        x = field[start:start + _TAIL_ROWS]
        return x, scratch[:x.size].reshape(x.shape)

    # rounding is monotone, so the largest square is the largest |x| squared
    peak = np.float32(0.0)
    for start in range(0, nr, _TAIL_ROWS):
        for field, _ in fields:
            x, buf = block(field, start)
            peak = max(peak, np.abs(x, out=buf).max())
    eps = max(np.float32(1e-12) * (peak * peak), np.finfo(np.float32).tiny)
    for start in range(0, nr, _TAIL_ROWS):
        acc = out[start:start + _TAIL_ROWS]
        for i, (field, width) in enumerate(fields):
            x, sq = block(field, start)
            np.multiply(x, x, out=sq)
            if i == 0:                      # field 0's rows are read: zero their head
                acc.fill(0.0)
            sq += eps
            np.log(sq, out=sq)
            for parity in range(width):
                acc += sq[:, parity::width]
    out /= np.float32(count)
    np.exp(out, out=out)
    out -= eps
    return np.clip(out, 0.0, None, out=out)


_PREFIX = 8     # candidates sorted per pool entry before the full order is needed


def _disk_offsets(radius: int) -> np.ndarray:
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    inside = (yy * yy + xx * xx) <= radius * radius
    return np.stack([yy[inside], xx[inside]], axis=1)


def _nms_pool(resp: np.ndarray, radius: int,
              pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``pool_size`` strongest disk maxima, strongest first.

    A disk maximum is a pixel not exceeded anywhere within ``radius``
    (Euclidean, zeros beyond the border) and above a relative floor that
    discards float-epsilon dust in empty map regions; ties order by row,
    then column.  A disk maximum is also a maximum over the part of its
    3x3 neighbourhood inside the disk, so those local maxima are a
    superset.  They are ordered by response, and the exact disk test runs
    on them lazily, in growing blocks, until the pool is full.  Blocks keep
    the worst case, where most local maxima fail the disk test, near one
    vectorised pass over the candidates.  Only a prefix of the order is
    sorted, every candidate at or above the ``_PREFIX * pool_size``-th
    largest response: a noisy map has tens of thousands of local maxima
    and the pool needs a few hundred.  The full order is sorted only if
    the disk test exhausts the prefix.
    """
    floor = 1e-9 * resp.max(initial=0.0)
    offsets = _disk_offsets(radius)
    nr, nc = resp.shape
    pad = max(radius, 1)
    padded = np.zeros((nr + 2 * pad, nc + 2 * pad), dtype=resp.dtype)
    padded[pad:-pad, pad:-pad] = resp
    cands = np.flatnonzero(resp >= _near_max(padded, pad, radius))
    vals = resp.ravel()[cands]
    live = vals > floor
    cands, vals = cands[live], vals[live]
    # candidates come in row-major order, so a stable sort keeps ties by
    # (row, col); the prefix is the first entries of the full stable order
    rest = vals.size - _PREFIX * pool_size
    if rest > 0:
        top = np.flatnonzero(vals >= np.partition(vals, rest)[rest])
        order = top[np.argsort(-vals[top], kind="stable")]
    else:
        order = np.argsort(-vals, kind="stable")

    flat = padded.ravel()
    width = padded.shape[1]
    steps = offsets[:, 0] * width + offsets[:, 1]
    kept = [cands[:0]]
    found, start, block = 0, 0, pool_size
    while found < pool_size and start < vals.size:
        if start == order.size:             # the prefix is used up
            order = np.argsort(-vals, kind="stable")
        pick = order[start:min(start + block, order.size)]
        rows, cols = np.divmod(cands[pick], nc)
        centre = (rows + pad) * width + (cols + pad)
        peak = flat[centre[:, None] + steps[None, :]].max(axis=1)
        kept.append(cands[pick[vals[pick] >= peak]])
        found += kept[-1].size
        start, block = start + pick.size, min(2 * block, 4096)
    return np.divmod(np.concatenate(kept)[:pool_size], nc)


def _near_max(padded: np.ndarray, pad: int, radius: int) -> np.ndarray:
    """Per pixel, the maximum over its 3x3 neighbourhood inside the disk,
    the pixel itself included, from the map zero-padded by ``pad``: the
    pixel alone at radius 0, the 4-neighbour cross at radius 1, otherwise
    the full box as a separable row-then-column maximum."""
    ring = padded[pad - 1:padded.shape[0] - pad + 1, pad - 1:padded.shape[1] - pad + 1]
    if radius == 0:
        return ring[1:-1, 1:-1]
    across = np.maximum(ring[:, :-2], ring[:, 2:])
    np.maximum(across, ring[:, 1:-1], out=across)
    if radius == 1:
        return np.maximum(across[1:-1], np.maximum(ring[:-2, 1:-1], ring[2:, 1:-1]))
    box = np.maximum(across[:-2], across[2:])
    return np.maximum(box, across[1:-1], out=box)


_PAD_OFFSETS = ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1))


def extract_corners(pm: ProfileMap, map_id: str, cfg: DetectorConfig) -> CornerSet:
    """The ``CORNERS`` strongest NMS corners, strongest first; padded with
    jittered duplicates of the strongest maxima when the map has fewer."""
    return _select_corners(corner_response(pm.data, cfg), map_id, cfg)


def _select_corners(resp: np.ndarray, map_id: str, cfg: DetectorConfig) -> CornerSet:
    """Greedy pass over the NMS pool: the ``CORNERS`` strongest maxima at
    least the NMS radius apart, then padding up to ``CORNERS``."""
    rows, cols = _nms_pool(resp, cfg.nms_radius_px, 4 * CORNERS)

    accepted: list[tuple[int, int, float]] = []
    r2 = cfg.nms_radius_px ** 2
    for r, c in zip(rows.tolist(), cols.tolist()):
        if any((r - ar) ** 2 + (c - ac) ** 2 < r2 for ar, ac, _ in accepted):
            continue
        accepted.append((r, c, float(resp[r, c])))
        if len(accepted) >= CORNERS:
            break

    corners = [Corner(r, c, v) for r, c, v in accepted]
    corners += _pad_corners(accepted, CORNERS - len(corners), resp.shape)
    return CornerSet(tuple(corners), map_id, resp.shape)


def _pad_corners(anchors: list[tuple[int, int, float]], need: int,
                 shape: tuple[int, int]) -> list[Corner]:
    """``need`` <= ``CORNERS`` deterministic jittered duplicates; the
    placeholder lattice, which has ``CORNERS`` points, when the map yielded
    no maxima at all (flat input)."""
    nr, nc = shape
    if not anchors:
        return [Corner(int(round(v * (nr - 1))), int(round(u * (nc - 1))), 0.0,
                       padded=True) for u, v in placeholder_lattice()[:need]]
    out: list[Corner] = []
    i = 0
    while len(out) < need:
        r0, c0, v = anchors[i % len(anchors)]
        dr, dc = _PAD_OFFSETS[(i // len(anchors)) % len(_PAD_OFFSETS)]
        step = 1 + i // (len(anchors) * len(_PAD_OFFSETS))
        row = int(np.clip(r0 + dr * step, 0, nr - 1))
        col = int(np.clip(c0 + dc * step, 0, nc - 1))
        out.append(Corner(row, col, v, padded=True))
        i += 1
    return out


def _peak_rows(pm: ProfileMap, cols: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Normalized argmax row of each of the columns ``cols``, and whether
    the column is all zero: such a column answers with the axis center.
    Ties resolve to the lower row index."""
    block = pm.data[:, cols]
    dead = ~block.any(axis=0)
    return np.where(dead, 0.5, block.argmax(axis=0) / (pm.rows - 1)), dead


def fuse_pc_rd(pc_r: CornerSet, pc_d: CornerSet,
               r2tm: ProfileMap, d2tm: ProfileMap) -> PointCloudRD:
    """Fuse PC-R and PC-D into the 60x3 cloud.

    Each PC-R corner gains the Doppler of the strongest D2TM cell in its
    slow-time column; each PC-D corner gains the range of the strongest
    R2TM cell in its column.  The two maps and both corner sets must
    share their column count, so a corner's column is the partner's.
    """
    if len(pc_r) != CORNERS or len(pc_d) != CORNERS:
        raise ValueError(f"fusion expects two {CORNERS}-corner sets")
    widths = {pc_r.shape[1], pc_d.shape[1], r2tm.cols, d2tm.cols}
    if len(widths) != 1:
        raise ValueError(f"fusion expects one column count, got {sorted(widths)}")
    uv_r, uv_d = pc_r.uv(), pc_d.uv()
    w, flag_r = _peak_rows(d2tm, [c.col for c in pc_r.corners])
    v, flag_d = _peak_rows(r2tm, [c.col for c in pc_d.corners])
    # a PC-D corner's own v is the Doppler coordinate
    pts = np.vstack([np.column_stack([uv_r, w]),
                     np.column_stack([uv_d[:, 0], v, uv_d[:, 1]])])
    return PointCloudRD(pts, ("R",) * CORNERS + ("D",) * CORNERS,
                        tuple(np.concatenate([flag_r, flag_d]).tolist()))
