"""Corner detection and fusion tests on synthetic blob images."""

import functools
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy.ndimage import maximum_filter

from mdcl import corners, groundtruth
from mdcl.config import drop_seed_keys
from mdcl.corners import (Corner, CornerSet, DetectorConfig, corner_response,
                          extract_corners, fuse_pc_rd)
from mdcl.echo import RadarConfig
from mdcl.maps import AxisSpec, ProfileMap
from mdcl.motion import KeyPoint
from mdcl.pipeline import degrade_map, noise_field
from mdcl.scene import NodeId

CFG = DetectorConfig()
RESPONSE_TOL = 1e-4     # float32 bank against the float64 oracle, of the peak


def blob_image(centers, shape=(200, 200), sigma=4.0, amps=None):
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
    img = np.zeros(shape)
    amps = [1.0] * len(centers) if amps is None else amps
    for (r, c), a in zip(centers, amps):
        img += a * np.exp(-((yy - r) ** 2 + (xx - c) ** 2) / (2 * sigma ** 2))
    return img


def as_map(img, kind="range_sq"):
    lo = -1.0 if kind == "doppler_sq" else 0.0
    return ProfileMap(img, AxisSpec(kind, lo, 1.0, img.shape[0]), 4.0)


@functools.lru_cache(maxsize=2)
def oracle_kernel_ffts(values, fast):
    """The float64 bank of ``DetectorConfig(*values)``."""
    return [sfft.rfft2(kern, fast) for kern in corners._kernels(DetectorConfig(*values))]


def oracle_response(img, cfg):
    """The detector's response bank computed in float64 throughout."""
    img = np.asarray(img, dtype=float)
    pad = corners._kernels(cfg)[0].shape[0] // 2
    padded = np.pad(img, pad, mode="symmetric")
    fast = tuple(sfft.next_fast_len(n + 2 * pad) for n in padded.shape)
    img_fft = sfft.rfft2(padded, fast)
    window = (slice(2 * pad, 2 * pad + img.shape[0]),
              slice(2 * pad, 2 * pad + img.shape[1]))
    squares = [sfft.irfft2(img_fft * kf, fast)[window] ** 2
               for kf in oracle_kernel_ffts(astuple(cfg), fast)]
    eps = 1e-12 * max(sq.max(initial=0.0) for sq in squares) + 1e-300
    log_mean = sum(np.log(sq + eps) for sq in squares) / len(squares)
    return np.clip(np.exp(log_mean) - eps, 0.0, None)


def whole_map_response(img, cfg):
    """``corner_response`` computed whole-map: ``np.pad`` and a zero-padded
    ``rfft2``, one inverse transform per orientation pair into a reused
    product buffer, and every square, log and sum over the whole map as
    its own array.  The detector computes the same values in cache-sized
    row blocks and must equal this to the bit.  A float32 map is widened
    first, as the detector widens it."""
    pad = corners._radius(cfg)
    img = np.asarray(img, dtype=np.float64)
    padded = np.pad(img - img.mean(), pad, mode="symmetric")
    _, fast, pair_ffts = corners._kernel_ffts(cfg, padded.shape)
    img_fft = corners._full_spectrum(sfft.rfft2(padded, fast), fast[1])
    r0, r1 = 2 * pad, 2 * pad + img.shape[0]
    c0, c1 = 2 * pad, 2 * pad + img.shape[1]
    sq_all = []
    product = np.empty_like(img_fft)
    for kf in pair_ffts:
        np.multiply(img_fft, kf, out=product)
        conv = sfft.ifft2(product, overwrite_x=True)[r0:r1, c0:c1]
        sq_all += (conv.real * conv.real, conv.imag * conv.imag)
    del sq_all[cfg.orientations:]       # the zero partner of an odd count
    sq_max = max(sq.max(initial=np.float32(0.0)) for sq in sq_all)
    eps = max(np.float32(1e-12) * sq_max, np.finfo(np.float32).tiny)
    for sq in sq_all:
        sq += eps
        np.log(sq, out=sq)
    log_sum = sq_all[0]
    for term in sq_all[1:]:
        log_sum += term
    log_sum /= np.float32(len(sq_all))
    np.exp(log_sum, out=log_sum)
    log_sum -= eps
    return np.clip(log_sum, 0.0, None, out=log_sum)


def oracle_geometric_mean(convs, count):
    """``corners._geometric_mean`` summing into a fresh zero array instead
    of the head of conv 0's own transform buffer: the same blocks, steps
    and term order, with no buffer read after it is written."""
    fields = [(c.view(np.float32), 2) for c in convs[:count // 2]]
    if count % 2:
        fields.append((convs[-1].real, 1))
    nr, nc = convs[0].shape
    scratch = np.empty(corners._TAIL_ROWS * 2 * nc, dtype=np.float32)

    def block(field, start):
        x = field[start:start + corners._TAIL_ROWS]
        return x, scratch[:x.size].reshape(x.shape)

    peak = np.float32(0.0)
    for start in range(0, nr, corners._TAIL_ROWS):
        for field, _ in fields:
            x, buf = block(field, start)
            peak = max(peak, np.abs(x, out=buf).max())
    eps = max(np.float32(1e-12) * (peak * peak), np.finfo(np.float32).tiny)
    out = np.zeros((nr, nc), dtype=np.float32)
    for start in range(0, nr, corners._TAIL_ROWS):
        acc = out[start:start + corners._TAIL_ROWS]
        for field, width in fields:
            x, sq = block(field, start)
            np.multiply(x, x, out=sq)
            sq += eps
            np.log(sq, out=sq)
            for parity in range(width):
                acc += sq[:, parity::width]
    out /= np.float32(count)
    np.exp(out, out=out)
    out -= eps
    return np.clip(out, 0.0, None, out=out)


def response_map(kind, shape, rng):
    if kind == "zero":
        return np.zeros(shape)
    blobs = blob_image([tuple(rng.integers(0, shape)) for _ in range(4)], shape)
    if kind == "blobs":
        return blobs
    if kind == "float32":
        return (rng.random(shape) + blobs).astype(np.float32)
    noise = rng.standard_normal(shape)
    return degrade_map(as_map(blobs / blobs.max()), float(rng.choice([4.0, 12.0])),
                       noise).data


class TestResponse:
    def test_blob_center_is_global_max(self):
        img = blob_image([(100, 120)])
        resp = corner_response(img, CFG)
        r, c = np.unravel_index(np.argmax(resp), resp.shape)
        assert abs(r - 100) <= 1 and abs(c - 120) <= 1

    @pytest.mark.parametrize("sigma_px,anisotropy", [
        (0.4, 2.5), (0.8, 2.5), (1.6, 2.5), (3.2, 2.5), (6.4, 2.5),
        (3.0, 2.5), (3.3, 2.5), (3.0, 1.5)])
    def test_blob_center_exact_at_any_scale(self, sigma_px, anisotropy):
        # the crop must match the kernels' own width, or the response
        # shifts by the difference
        cfg = replace(CFG, sigma_px=sigma_px, anisotropy=anisotropy)
        resp = corner_response(blob_image([(100, 90)]), cfg)
        assert np.unravel_index(np.argmax(resp), resp.shape) == (100, 90)

    def test_constant_image_zero_response(self):
        resp = corner_response(np.full((64, 64), 0.7), CFG)
        assert np.allclose(resp, 0.0, atol=1e-18)

    def test_amplitude_ordering(self):
        img = blob_image([(60, 60), (140, 140)], amps=[1.0, 0.5])
        resp = corner_response(img, CFG)
        assert resp[60, 60] > resp[140, 140] > 0

    def test_ridge_suppressed_vs_blob(self):
        yy, xx = np.mgrid[0:200, 0:200]
        ridge = np.exp(-((yy - 100) ** 2) / (2 * 4.0 ** 2))   # horizontal ridge
        blob = blob_image([(100, 100)])
        r_ridge = corner_response(ridge, CFG)[100, 100]
        r_blob = corner_response(blob, CFG)[100, 100]
        assert r_blob > 10 * r_ridge

    def test_small_map_rejected(self):
        with pytest.raises(ValueError):
            corner_response(np.zeros((8, 8)), CFG)

    def test_zero_map_zero_response_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = corner_response(np.zeros((64, 64)), CFG)
        assert resp.dtype == np.float32
        assert not resp.any()

    def test_matches_float64_oracle(self, clean_full_config, clean_results):
        """Clean S2-S12 maps and S8's noisy sweep maps.  The response is
        within RESPONSE_TOL of the oracle's peak, and each corner is the
        oracle's pick of the same rank or one whose oracle response ties
        that pick within the tolerance: noise-free maps repeat features
        exactly, and rounding then orders the ties."""
        cfg = clean_full_config
        det = cfg.detector
        maps = {f"{label}/{which}": getattr(res, which)
                for label, res in clean_results.items() for which in ("r2tm", "d2tm")}
        drops = [4.0, 8.0, 12.0]
        for drop, key in zip(drops, drop_seed_keys([0.0] + drops)[1:]):
            for which in ("r2tm", "d2tm"):
                pm = getattr(clean_results["S8"], which)
                noise = noise_field(cfg, pm.data.shape, key, 0)
                maps[f"S8/{which}/{drop:g}dB"] = degrade_map(pm, drop, noise)
        for name, pm in maps.items():
            r32 = corner_response(pm.data, det)
            r64 = oracle_response(pm.data, det)
            tol = RESPONSE_TOL * r64.max()
            assert r32.dtype == np.float32, name
            assert np.abs(r32 - r64).max() <= tol, name
            got = [(c.row, c.col) for c in
                   corners._select_corners(r32, name, det).corners]
            want = [(c.row, c.col) for c in
                    corners._select_corners(r64, name, det).corners]
            assert all(abs(r64[g] - r64[w]) <= tol for g, w in zip(got, want)), name


    @pytest.mark.parametrize("orientations", [1, 5, 8])
    @pytest.mark.parametrize("shape", [(128, 200), (200, 128)])
    def test_paired_bank_matches_float64_oracle(self, orientations, shape):
        """Odd orientation counts pair the last kernel with a zero one; at
        128 x 200 the transform is 189 x 256, odd along one axis only, and
        the transposed map makes the other axis odd."""
        cfg = replace(CFG, orientations=orientations)
        rng = np.random.default_rng(orientations)
        img = rng.random(shape) + blob_image([(40, 60), (90, 120)], shape)
        r32 = corner_response(img, cfg)
        r64 = oracle_response(img, cfg)
        assert r32.dtype == np.float32
        assert np.abs(r32 - r64).max() <= RESPONSE_TOL * r64.max()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           kind=st.sampled_from(["zero", "blobs", "float32", "degraded"]),
           extra=st.tuples(st.integers(0, 75), st.integers(0, 75)),
           orientations=st.sampled_from([1, 5, 7, 8]))
    def test_blocked_tail_equals_whole_map_response(self, seed, kind, extra,
                                                    orientations):
        """Bit for bit on odd and even shapes from the filter support up,
        row counts that are not a multiple of the block, odd and even
        orientation counts, and degraded maps."""
        cfg = replace(CFG, orientations=orientations)
        side = corners.filter_support(cfg)
        shape = (side + extra[0], side + extra[1])
        img = response_map(kind, shape, np.random.default_rng(seed))
        got = corner_response(img, cfg)
        want = whole_map_response(img, cfg)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_blocked_tail_equals_whole_map_response_at_full_size(
            self, clean_full_config, clean_results):
        """Clean S5, S8 and S12 maps and S8's noisy sweep maps."""
        cfg = clean_full_config
        maps = [getattr(clean_results[label], which)
                for label in ("S5", "S8", "S12") for which in ("r2tm", "d2tm")]
        drops = [4.0, 8.0, 12.0]
        for drop, key in zip(drops, drop_seed_keys([0.0] + drops)[1:]):
            for pm in maps[2:4]:
                noise = noise_field(cfg, pm.data.shape, key, 0)
                maps.append(degrade_map(pm, drop, noise))
        for i, pm in enumerate(maps):
            assert np.array_equal(corner_response(pm.data, cfg.detector),
                                  whole_map_response(pm.data, cfg.detector)), i

    @pytest.mark.parametrize("orientations", [1, 2, 5, 7, 8])
    @pytest.mark.parametrize("sigma_px", [3.0, 0.3])
    @pytest.mark.parametrize("shape", [(70, 45), (300, 260)])
    @pytest.mark.parametrize("kind", ["blobs", "zero", "constant"])
    def test_in_buffer_tail_equals_oracle_tail(self, monkeypatch, orientations,
                                               sigma_px, shape, kind):
        """The response summed into the head of the first transform has the
        bits of the out-of-place tail on the same bank.  ``sigma_px`` 0.3
        is radius 2, where field 0's unread rows lie closest to the head;
        neither row count is a whole number of blocks."""
        cfg = replace(CFG, orientations=orientations, sigma_px=sigma_px)
        img = {"blobs": blob_image([(20, 15), (50, 30)], shape),
               "zero": np.zeros(shape), "constant": np.full(shape, 0.7)}[kind]
        tail, wants = corners._geometric_mean, []

        def checked_tail(convs, count, out):
            wants.append(oracle_geometric_mean([c.copy() for c in convs], count))
            return tail(convs, count, out)

        monkeypatch.setattr(corners, "_geometric_mean", checked_tail)
        got = corner_response(img, cfg)
        assert got.dtype == np.float32 and got.shape == shape
        assert np.array_equal(got.view(np.uint32), wants[0].view(np.uint32))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 2), (6, 7), (189, 256), (216, 189)])
    def test_full_spectrum_is_fft2(self, shape):
        """The Hermitian completion equals the full transform to complex64
        rounding, on odd and even lengths along either axis."""
        field = np.random.default_rng(0).standard_normal(shape)
        full = corners._full_spectrum(sfft.rfft2(field), shape[1])
        want = sfft.fft2(field)
        assert full.dtype == np.complex64
        assert np.abs(full - want).max() <= np.finfo(np.float32).eps * np.abs(want).max()


class TestExtract:
    def test_thirty_separated_blobs_recovered(self):
        rows = [30 + 28 * i for i in range(5)]
        cols = [30 + 24 * j for j in range(6)]
        centers = [(r, c) for r in rows for c in cols]
        cs = extract_corners(as_map(blob_image(centers, shape=(200, 200))), "m", CFG)
        assert len(cs) == 30
        assert not any(c.padded for c in cs.corners)
        found = {(c.row, c.col) for c in cs.corners}
        for r, c in centers:
            assert any(abs(fr - r) <= 1 and abs(fc - c) <= 1 for fr, fc in found)

    def test_forty_blobs_top_thirty_by_amplitude(self):
        rows = [25 + 30 * i for i in range(5)]
        cols = [25 + 21 * j for j in range(8)]
        centers = [(r, c) for r in rows for c in cols]
        amps = np.linspace(1.0, 0.22, 40)
        img = blob_image(centers, shape=(200, 200), amps=list(amps))
        cs = extract_corners(as_map(img), "m", CFG)
        found = {(c.row, c.col) for c in cs.corners}
        strongest = centers[:30]
        hits = sum(any(abs(fr - r) <= 1 and abs(fc - c) <= 1
                       for fr, fc in found) for r, c in strongest)
        assert hits >= 28     # allow boundary ties between amplitudes 30/31

    def test_flat_image_all_padded(self):
        cs = extract_corners(as_map(np.zeros((128, 128))), "m", CFG)
        assert len(cs) == 30
        assert all(c.padded for c in cs.corners)

    def test_single_blob_padded_to_thirty(self):
        cs = extract_corners(as_map(blob_image([(64, 64)], shape=(128, 128))), "m", CFG)
        assert len(cs) == 30
        assert sum(not c.padded for c in cs.corners) >= 1
        assert sum(c.padded for c in cs.corners) >= 20
        assert all(0 <= c.row < 128 and 0 <= c.col < 128 for c in cs.corners)

    def test_nms_separation(self):
        rng = np.random.default_rng(0)
        img = rng.random((200, 200))
        cs = extract_corners(as_map(img), "m", CFG)
        pts = [(c.row, c.col) for c in cs.corners if not c.padded]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d2 = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                assert d2 >= CFG.nms_radius_px ** 2

    def test_translation_equivariance(self):
        centers = [(60, 50), (120, 90), (80, 140)]
        img_a = blob_image(centers, shape=(220, 220))
        dr, dc = 9, 13
        img_b = blob_image([(r + dr, c + dc) for r, c in centers], shape=(220, 220))
        # the three strongest corners: the greedy pass accepts in order
        cs_a = extract_corners(as_map(img_a), "a", CFG)
        cs_b = extract_corners(as_map(img_b), "b", CFG)
        a = sorted((c.row, c.col) for c in cs_a.corners[:3])
        b = sorted((c.row, c.col) for c in cs_b.corners[:3])
        for (ra, ca), (rb, cb) in zip(a, b):
            assert rb - ra == dr and cb - ca == dc

    def test_monotone_map_invariance(self):
        centers = [(50, 50), (100, 140), (150, 70)]
        img = 0.2 + 0.6 * blob_image(centers, shape=(200, 200), amps=[1.0, 0.8, 0.6])
        warped = img ** 1.5 + 0.3 * img
        cs_a = extract_corners(as_map(img), "a", CFG)
        cs_b = extract_corners(as_map(warped), "b", CFG)
        a = sorted((c.row, c.col) for c in cs_a.corners[:3])
        b = sorted((c.row, c.col) for c in cs_b.corners[:3])
        assert a == b

    def test_full_size_peak_memory(self, clean_full_config, clean_results):
        """One full-size extraction holds its four complex64 inverse
        transforms (1080 x 1080 each) and at most 1 MiB more, the cached
        bank aside: a separate 4 MiB response array would not fit, so the
        response must be summed in the first transform's head."""
        det = clean_full_config.detector
        pm = clean_results["S8"].r2tm
        assert pm.data.shape == (1024, 1024)
        extract_corners(pm, "m", det)         # builds the cached bank
        tracemalloc.start()
        try:
            extract_corners(pm, "m", det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1080 * 1080 * 8 + 2 ** 20

    def test_determinism(self):
        rng = np.random.default_rng(3)
        img = rng.random((150, 150))
        cs_a = extract_corners(as_map(img), "m", CFG)
        cs_b = extract_corners(as_map(img), "m", CFG)
        assert [(c.row, c.col, c.response) for c in cs_a.corners] == \
               [(c.row, c.col, c.response) for c in cs_b.corners]


def oracle_pool(resp, radius, pool_size):
    """Disk-footprint maximum filter over the whole map (reference NMS)."""
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    footprint = (yy * yy + xx * xx) <= radius * radius
    peak = maximum_filter(resp, footprint=footprint, mode="constant", cval=0.0)
    floor = 1e-9 * resp.max(initial=0.0)
    rows, cols = np.nonzero((resp == peak) & (resp > floor))
    order = np.lexsort((cols, rows, -resp[rows, cols]))[:pool_size]
    return rows[order], cols[order]


def oracle_extract(resp, map_id, cfg, k):
    """Greedy top-k over the reference pool, padded like extract_corners."""
    rows, cols = oracle_pool(resp, cfg.nms_radius_px, max(4 * k, 64))
    accepted = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        if all((r - ar) ** 2 + (c - ac) ** 2 >= cfg.nms_radius_px ** 2
               for ar, ac, _ in accepted):
            accepted.append((r, c, float(resp[r, c])))
        if len(accepted) >= k:
            break
    nr, nc = resp.shape
    found = [Corner(r, c, v) for r, c, v in accepted]
    found += corners._pad_corners(accepted, k - len(found), (nr, nc))
    return CornerSet(tuple(found), map_id, (nr, nc))


def ripple_on_ramp(shape):
    """Period-3 ripple on a gentle ramp: most 3x3 maxima lose to a
    neighbour further up the ramp inside the NMS disk."""
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
    img = 0.02 * (yy + xx) + np.cos(yy * 2 * np.pi / 3) * np.cos(xx * 2 * np.pi / 3)
    return img - img.min()


def nms_map(kind, shape, rng):
    if kind == "random":
        return rng.random(shape)
    if kind == "quantised":         # plateaus and exact ties
        return np.round(rng.random(shape) * 3) / 3
    if kind == "border":            # the strongest values on the border
        img = 0.5 * rng.random(shape)
        img[0, :] += rng.random(shape[1])
        img[:, -1] += rng.random(shape[0])
        return img
    if kind == "zero":
        return np.zeros(shape)
    if kind == "tied":              # equal peaks planted across the map
        img = 0.9 * rng.random(shape)
        spots = rng.integers(0, shape, size=(int(rng.integers(2, 12)), 2))
        img[spots[:, 0], spots[:, 1]] = rng.choice([0.95, 1.0], size=len(spots))
        return img
    return ripple_on_ramp(shape)


def shadowed_peaks(shape, rng):
    """Strong peaks (one per 20 rows of the upper half), each ringed by 28
    weaker 3x3 maxima inside its NMS disk (radius 7), and weak isolated
    peaks elsewhere on faint noise: most of the strongest local maxima
    fail the disk test, so a pool larger than the strong peaks' count
    fills only from maxima far down the order."""
    img = 0.01 * rng.random(shape)
    for r0 in range(10, shape[0] // 2, 20):
        img[r0, 10] = 10.0 + rng.random()
        for dr in range(-6, 7, 2):
            for dc in range(-6, 7, 2):
                if 0 < dr * dr + dc * dc <= 36:
                    img[r0 + dr, 10 + dc] = 5.0 + rng.random()
    for r0 in range(shape[0] // 2 + 8, shape[0] - 8, 16):
        for c0 in range(40, shape[1] - 8, 16):
            img[r0, c0] = 1.0 + rng.random()
    return img


def candidate_count_above(resp, value):
    """The 3x3 local maxima above the NMS floor that exceed ``value``."""
    near = maximum_filter(resp, size=3, mode="constant", cval=0.0)
    floor = 1e-9 * resp.max(initial=0.0)
    return int(np.count_nonzero((resp >= near) & (resp > floor) & (resp > value)))


class TestLazyNms:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           kind=st.sampled_from(["random", "quantised", "border", "zero", "ramp",
                                 "tied"]),
           shape=st.tuples(st.integers(3, 48), st.integers(3, 48)),
           radius=st.integers(0, 9), pool_size=st.integers(1, 256))
    def test_matches_disk_filter_oracle(self, seed, kind, shape, radius, pool_size):
        resp = nms_map(kind, shape, np.random.default_rng(seed))
        cfg = replace(CFG, nms_radius_px=radius)
        pool = corners._nms_pool(resp, radius, pool_size)
        expected = oracle_pool(resp, radius, pool_size)
        assert np.array_equal(pool[0], expected[0])
        assert np.array_equal(pool[1], expected[1])
        cs = corners._select_corners(resp, "m", cfg)
        expected = oracle_extract(resp, "m", cfg, corners.CORNERS)
        assert cs == expected
        nr, nc = resp.shape
        assert cs.uv().tolist() == [[c.col / (nc - 1), c.row / (nr - 1)]
                                    for c in expected.corners]
        if kind == "zero":
            assert all(c.padded for c in cs.corners)
        assert len(cs) == corners.CORNERS

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           kind=st.sampled_from(["random", "quantised", "border", "ramp", "tied"]),
           shape=st.tuples(st.integers(128, 192), st.integers(128, 192)),
           radius=st.integers(2, 9), pool_size=st.integers(1, 16))
    def test_sorted_prefix_matches_disk_filter_oracle(self, seed, kind, shape,
                                                      radius, pool_size):
        """Maps with more local maxima than the sorted prefix holds, so the
        pool comes from the prefix (the ramp's from the full order)."""
        resp = nms_map(kind, shape, np.random.default_rng(seed))
        assert candidate_count_above(resp, -1.0) > corners._PREFIX * pool_size
        pool = corners._nms_pool(resp, radius, pool_size)
        expected = oracle_pool(resp, radius, pool_size)
        assert np.array_equal(pool[0], expected[0])
        assert np.array_equal(pool[1], expected[1])
        cfg = replace(CFG, nms_radius_px=radius)
        assert corners._select_corners(resp, "m", cfg) == \
            oracle_extract(resp, "m", cfg, corners.CORNERS)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape, pool_size", [((128, 128), 5), ((160, 140), 6),
                                                  ((200, 128), 9)])
    def test_used_up_prefix_continues_on_full_order(self, seed, shape, pool_size):
        """The disk test rejects most of the sorted prefix, so the pool is
        completed from the full stable order."""
        resp = shadowed_peaks(shape, np.random.default_rng(seed))
        pool = corners._nms_pool(resp, 7, pool_size)
        expected = oracle_pool(resp, 7, pool_size)
        assert np.array_equal(pool[0], expected[0])
        assert np.array_equal(pool[1], expected[1])
        assert len(pool[0]) == pool_size
        last = resp[pool[0][-1], pool[1][-1]]
        assert candidate_count_above(resp, last) >= corners._PREFIX * pool_size

    @pytest.mark.parametrize("kind", ["noisy", "ramp"])
    def test_full_detector_matches_oracle(self, kind):
        rng = np.random.default_rng(11)
        img = (rng.random((160, 160)) + blob_image([(40, 50), (110, 120)], (160, 160))
               if kind == "noisy" else ripple_on_ramp((160, 160)))
        resp = corner_response(img, CFG)
        assert extract_corners(as_map(img), "m", CFG) == oracle_extract(resp, "m", CFG, 30)


def four_temporary_near_max(padded, pad, radius):
    """``corners._near_max`` as written before its maxima went in place."""
    ring = padded[pad - 1:padded.shape[0] - pad + 1, pad - 1:padded.shape[1] - pad + 1]
    if radius == 0:
        return ring[1:-1, 1:-1]
    across = np.maximum(np.maximum(ring[:, :-2], ring[:, 2:]), ring[:, 1:-1])
    if radius == 1:
        return np.maximum(across[1:-1], np.maximum(ring[:-2, 1:-1], ring[2:, 1:-1]))
    return np.maximum(np.maximum(across[:-2], across[2:]), across[1:-1])


class TestNearMax:
    @pytest.mark.parametrize("radius", [0, 1, 2, 7])
    @pytest.mark.parametrize("kind", ["random", "tied", "constant"])
    def test_equals_four_temporary_formula(self, radius, kind):
        rng = np.random.default_rng(radius)
        resp = {"random": rng.random((37, 53)),
                "tied": rng.integers(0, 3, (37, 53)) / 2.0,
                "constant": np.full((37, 53), 0.25)}[kind].astype(np.float32)
        pad = max(radius, 1)
        padded = np.pad(resp, pad)
        got = corners._near_max(padded, pad, radius)
        want = four_temporary_near_max(padded, pad, radius)
        assert got.shape == resp.shape
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestFusion:
    def _sets(self, n_rows=128, n_cols=128):
        img = blob_image([(40 + (17 * k) % 60, (4 * k + 7) % n_cols)
                          for k in range(40)], shape=(n_rows, n_cols), sigma=2.5)
        r2 = as_map(img)
        d2 = as_map(img.T.copy(), kind="doppler_sq")
        pc_r = extract_corners(r2, "r", CFG)
        pc_d = extract_corners(d2, "d", CFG)
        return pc_r, pc_d, r2, d2

    def test_cardinality_and_range(self):
        pc_r, pc_d, r2, d2 = self._sets()
        cloud = fuse_pc_rd(pc_r, pc_d, r2, d2)
        assert cloud.points.shape == (60, 3)
        assert np.all(cloud.points >= 0) and np.all(cloud.points <= 1)
        assert cloud.source[:30] == tuple("R" * 30)
        assert cloud.source[30:] == tuple("D" * 30)

    def test_third_coordinate_is_column_argmax(self):
        pc_r, pc_d, r2, d2 = self._sets()
        cloud = fuse_pc_rd(pc_r, pc_d, r2, d2)
        for i, corner in enumerate(pc_r.corners):
            expected = np.argmax(d2.data[:, corner.col]) / (d2.rows - 1)
            assert cloud.points[i, 2] == pytest.approx(expected)

    def test_zero_column_flagged_center(self):
        rng = np.random.default_rng(5)
        img = rng.random((64, 64))
        r2 = as_map(img)
        dead = img.copy()
        dead[:, 10] = 0.0
        d2 = as_map(dead, kind="doppler_sq")
        pc_r = CornerSet((Corner(5, 10, 1.0),) * 30, "r", (64, 64))
        pc_d = extract_corners(d2, "d", CFG)
        cloud = fuse_pc_rd(pc_r, pc_d, r2, d2)
        assert cloud.points[0, 2] == pytest.approx(0.5)
        assert cloud.flagged[0]

    def test_tie_breaks_to_lower_row(self):
        img = np.zeros((64, 64))
        img[20, :] = 1.0
        img[40, :] = 1.0
        d2 = as_map(img, kind="doppler_sq")
        pc_r = CornerSet(tuple(Corner(1, c, 1.0) for c in range(0, 60, 2)),
                         "r", (64, 64))
        pc_d = CornerSet(tuple(Corner(1, c, 1.0) for c in range(0, 60, 2)),
                         "d", (64, 64))
        cloud = fuse_pc_rd(pc_r, pc_d, as_map(img), d2)
        assert np.allclose(cloud.points[:30, 2], 20 / 63)

    def test_wrong_cardinality_rejected(self):
        pc_r, pc_d, r2, d2 = self._sets()
        short = CornerSet(pc_r.corners[:10], "r", pc_r.shape)
        with pytest.raises(ValueError):
            fuse_pc_rd(short, pc_d, r2, d2)

    def test_mismatched_column_counts_rejected(self):
        # a corner's column indexes the partner map, so every width must agree
        pc_r, pc_d, r2, d2 = self._sets()
        narrow = as_map(d2.data[:, :100].copy(), kind="doppler_sq")
        with pytest.raises(ValueError, match="column count"):
            fuse_pc_rd(pc_r, pc_d, r2, narrow)
        wide = CornerSet(pc_d.corners, "d", (128, 200))
        with pytest.raises(ValueError, match="column count"):
            fuse_pc_rd(pc_r, wide, r2, d2)


class TestSlowTimeAxis:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 15: CornerSet.uv puts column j at u = j / (M - 1), "
        "groundtruth._to_cloud puts the sample at t = j * pri at u = j / M"))
    def test_corner_and_truth_share_slow_time_u(self):
        """A corner at column j and a truth point at that column's sample
        time lie at one u."""
        radar = RadarConfig()
        cols = [1, 100, 512, radar.slow_samples - 1]
        detected = CornerSet(tuple(Corner(0, j, 1.0) for j in cols), "S8/r2tm",
                             (64, radar.slow_samples)).uv()[:, 0]
        points = [KeyPoint(NodeId.HEAD, t, 1.0) for t in radar.slow_times[cols]]
        truth, _ = groundtruth._to_cloud(points, radar.window_s,
                                         AxisSpec("range_sq", 0.0, 2.0, 64), 1.0)
        np.testing.assert_allclose(detected, truth[:, 0], rtol=0, atol=1e-12)


class TestKernelCache:
    @pytest.mark.parametrize("orientations", [1, 5, 8])
    def test_one_complex64_spectrum_per_orientation_pair(self, orientations):
        cfg = replace(CFG, orientations=orientations)
        side = 2 * corners._radius(cfg)
        _, fast, pairs = corners._kernel_ffts(cfg, (128 + side, 200 + side))
        assert fast == (189, 256)
        assert len(pairs) == -(-orientations // 2)
        assert all(p.dtype == np.complex64 and p.shape == fast for p in pairs)

    @pytest.mark.parametrize("orientations", [8, 5])
    @pytest.mark.parametrize("shape", [(1024, 1024), (128, 200), (37, 41)])
    def test_pairs_equal_fft2_of_the_padded_pair(self, orientations, shape,
                                                 monkeypatch):
        monkeypatch.setattr(corners, "_KERNEL_FFT_CACHE", {})
        cfg = replace(CFG, orientations=orientations)
        side = 2 * corners._radius(cfg)
        _, fast, pairs = corners._kernel_ffts(cfg, (shape[0] + side, shape[1] + side))
        kernels = corners._kernels(cfg)
        kernels += [np.zeros_like(kernels[0])] * (orientations % 2)
        for j, pair in enumerate(pairs):
            want = sfft.fft2(kernels[2 * j] + 1j * kernels[2 * j + 1], fast)
            assert np.array_equal(pair, want.astype(np.complex64)), j

    def test_concurrent_first_calls_build_once(self, monkeypatch):
        builds, real = [], corners._kernels

        def counted(cfg):
            builds.append(cfg)
            time.sleep(0.05)        # hold the build open for the others
            return real(cfg)

        monkeypatch.setattr(corners, "_kernels", counted)
        monkeypatch.setattr(corners, "_KERNEL_FFT_CACHE", {})
        n = 8
        start = threading.Barrier(n)
        got = [None] * n

        def first_call(i):
            start.wait(timeout=10)
            got[i] = corners._kernel_ffts(CFG, (40, 40))

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert all(g is got[0] for g in got)
