"""Axis-squaring tests: exact stretch conformance, row-count laws, provenance,
and the one-gather render against the stretch-then-resample oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdcl.maps import AxisSpec, ProfileMap, normalize
from mdcl.squaring import decimate_rows, render_squared, squared_source_rows


def range_map(col, n_cols=1):
    col = np.asarray(col, dtype=float)
    data = np.tile(col[:, None], (1, n_cols))
    axis = AxisSpec("range", 0.0, float(len(col)), len(col))
    return ProfileMap(data, axis, 4.0)


def doppler_map(col, n_cols=1):
    col = np.asarray(col, dtype=float)
    data = np.tile(col[:, None], (1, n_cols))
    axis = AxisSpec("doppler", -float(len(col)) / 2, float(len(col)) / 2, len(col))
    return ProfileMap(data, axis, 4.0)


def stretched(col, kind):
    """The squared column before normalisation."""
    col = np.asarray(col, dtype=float)
    return col[squared_source_rows(col.size, kind)].tolist()


# ---------------------------------------------------------------------------
# oracle: the materialised stretch followed by a per-row block-max resample
# ---------------------------------------------------------------------------

def oracle_stretch(a):
    """Replicate row j (0-based) of ``a`` into output rows j^2 .. (j+1)^2-1."""
    src = np.floor(np.sqrt(np.arange(a.shape[0] ** 2))).astype(int)
    return a[src]


def oracle_square(pm):
    """Normalised full-resolution squared map and its axis."""
    if pm.axis.kind == "range":
        out = oracle_stretch(pm.data)
        return normalize(out), AxisSpec("range_sq", 0.0, pm.axis.hi ** 2, out.shape[0])
    half = pm.rows // 2
    out = np.concatenate([oracle_stretch(pm.data[half - 1::-1])[::-1],
                          oracle_stretch(pm.data[half:])], axis=0)
    hi = pm.axis.hi ** 2
    return normalize(out), AxisSpec("doppler_sq", -hi, hi, out.shape[0])


def oracle_render(pm, n_rows):
    data, axis = oracle_square(pm)
    src = data.shape[0]
    if src != n_rows:
        edges = (np.arange(n_rows + 1) * src) // n_rows
        out = np.empty((n_rows, pm.cols), dtype=float)
        for i in range(n_rows):
            lo, hi = edges[i], max(edges[i + 1], edges[i] + 1)
            out[i] = data[lo:min(hi, src)].max(axis=0)
        data = out
    return ProfileMap(data, AxisSpec(axis.kind, axis.lo, axis.hi, n_rows), pm.window)


def assert_matches_oracle(pm, n_rows):
    got, want = render_squared(pm, n_rows), oracle_render(pm, n_rows)
    assert np.array_equal(got.data, want.data)
    assert got.axis == want.axis
    assert got.window == want.window


class TestRangeSquaring:
    def test_three_row_hand_execution(self):
        # [a, b, c] -> [a, b,b,b, c,c,c,c,c]
        out = render_squared(range_map([0.0, 1.0, 0.5]), 9)
        expected = [0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5]
        assert out.data[:, 0].tolist() == expected
        assert stretched([0.0, 1.0, 0.5], "range") == expected

    def test_single_row_identity(self):
        assert squared_source_rows(1, "range").tolist() == [0]

    def test_constant_map_normalizes_to_zero(self):
        out = render_squared(range_map([0.7, 0.7, 0.7]), 9)
        assert np.all(out.data == 0.0)

    def test_row_count_law(self):
        for l in range(1, 65):
            assert squared_source_rows(l, "range").size == l * l

    def test_pixel_provenance(self):
        # squared row c comes from source row floor(sqrt(c))
        for l in (2, 5, 17, 64):
            src = squared_source_rows(l, "range")
            for c in range(l * l):
                assert src[c] == int(np.floor(np.sqrt(c)))

    def test_monotone_source_index(self):
        # the render's contiguous-run gather relies on steps of 0 or 1
        for kind, heights in (("range", range(2, 65)), ("doppler", range(2, 65, 2))):
            for q in heights:
                assert set(np.diff(squared_source_rows(q, kind)).tolist()) <= {0, 1}

    def test_argmax_column_preserved(self):
        # squaring only stretches rows: column-wise argmax maps to the
        # stretched block of the same source row
        rng = np.random.default_rng(0)
        data = rng.random((8, 32))
        src = squared_source_rows(8, "range")
        out = data[src]
        for col in range(32):
            assert src[np.argmax(out[:, col])] == np.argmax(data[:, col])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            squared_source_rows(0, "range")


class TestDopplerSquaring:
    def test_q4_hand_execution(self):
        # [w, x, y, z] -> [w,w,w, x, y, z,z,z]
        assert stretched([1.0, 0.25, 0.5, 0.0], "doppler") == \
            [1.0, 1.0, 1.0, 0.25, 0.5, 0.0, 0.0, 0.0]

    def test_row_count_law(self):
        for q in range(2, 65, 2):
            assert squared_source_rows(q, "doppler").size == 2 * (q // 2) ** 2

    def test_symmetric_input_symmetric_output(self):
        out = stretched([0.1, 0.7, 0.7, 0.1], "doppler")
        assert out == out[::-1]

    def test_center_ridge_stays_centered(self):
        col = np.zeros(8)
        col[3:5] = 1.0      # hot band around zero Doppler
        out = np.array(stretched(col, "doppler"))
        n = out.size
        hot = np.nonzero(out == 1.0)[0]
        assert set(hot) == {n // 2 - 1, n // 2}

    def test_odd_q_rejected(self):
        # halves split at zero Doppler need an even height
        for q in (1, 3, 5, 255):
            with pytest.raises(ValueError, match="even number of Doppler rows"):
                squared_source_rows(q, "doppler")

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            squared_source_rows(0, "doppler")

    def test_unsquarable_axis_rejected(self):
        with pytest.raises(ValueError):
            squared_source_rows(4, "range_sq")


class TestRenderGrid:
    def test_decimate_block_max(self):
        data = np.arange(8, dtype=float)[:, None]
        pm = ProfileMap(data, AxisSpec("range", 0.0, 8.0, 8), 4.0)
        out = decimate_rows(pm, 4)
        assert out.data[:, 0].tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_decimate_noop_when_small(self):
        pm = range_map([1.0, 2.0])
        assert decimate_rows(pm, 4) is pm

    def test_doppler_decimation_keeps_center_boundary(self):
        col = np.zeros(16)
        col[8] = 1.0        # first positive-half row
        pm = doppler_map(col)
        out = decimate_rows(pm, 8)
        assert out.rows == 8
        assert np.argmax(out.data[:, 0]) == 4      # still first positive row

    @settings(max_examples=300, deadline=None)
    @given(half=st.integers(1, 2048), max_rows=st.integers(2, 4200))
    def test_doppler_decimation_keeps_height_even(self, half, max_rows):
        # an even-height Doppler map stays even, so it can be squared
        out = decimate_rows(doppler_map(np.zeros(2 * half)), max_rows)
        assert out.rows % 2 == 0
        assert out.rows == 2 * half if 2 * half <= max_rows else out.rows <= max_rows

    def test_resample_preserves_normalized_positions(self):
        rng = np.random.default_rng(1)
        data = rng.random((10, 4))
        pm = ProfileMap(data, AxisSpec("range", 0.0, 1.0, 10), 4.0)
        squared = normalize(data)[squared_source_rows(10, "range")]
        out = render_squared(pm, 50)
        assert out.rows == 50
        assert out.axis == AxisSpec("range_sq", 0.0, 1.0, 50)
        # block max: every output row dominates its two squared rows
        for i in range(50):
            assert np.array_equal(out.data[i], squared[2 * i:2 * i + 2].max(axis=0))

    def test_resample_upsamples_by_repeat(self):
        # [1, 2] squares to [1, 2, 2, 2], normalised to [0, 1, 1, 1]
        out = render_squared(range_map([1.0, 2.0]), 8)
        assert out.data[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


class TestRenderOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           kind=st.sampled_from(["range", "doppler"]),
           q=st.integers(1, 90), cols=st.integers(1, 4),
           fill=st.sampled_from(["random", "sparse", "constant"]),
           pre=st.one_of(st.none(), st.integers(2, 60)),
           ratio=st.one_of(st.just(1.0), st.floats(0.01, 3.0)))
    def test_matches_stretch_resample_oracle(self, seed, kind, q, cols, fill, pre, ratio):
        # a Doppler map has an even height, at least 2
        assume(kind == "range" or q % 2 == 0)
        rng = np.random.default_rng(seed)
        if fill == "random":
            data = rng.uniform(0.5, 1.5, (q, cols))
        elif fill == "sparse":
            data = np.where(rng.random((q, cols)) < 0.1, rng.random((q, cols)), 0.0)
        else:
            data = np.full((q, cols), rng.uniform(0.0, 2.0))
        make = range_map if kind == "range" else doppler_map
        pm = ProfileMap(data, make(np.zeros(q)).axis, 4.0)
        if pre is not None:
            pm = decimate_rows(pm, pre)
        n_sq = squared_source_rows(pm.rows, kind).size
        assert_matches_oracle(pm, max(1, int(ratio * n_sq)))

    @pytest.mark.parametrize("kind", ["range", "doppler"])
    def test_production_grid_matches_oracle(self, kind):
        # 1024 rows decimated to 128, squared to 16384 / 8192, rendered to 1024
        rng = np.random.default_rng(7)
        data = np.where(rng.random((1024, 16)) < 0.05, rng.random((1024, 16)), 0.0)
        make = range_map if kind == "range" else doppler_map
        pm = decimate_rows(ProfileMap(data, make(np.zeros(1024)).axis, 4.0), 128)
        assert pm.rows == 128
        assert_matches_oracle(pm, 1024)
