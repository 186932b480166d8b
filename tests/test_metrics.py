"""Metric tests: EMD against a brute-force and a scipy oracle, PSNR,
image noise."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mdcl import metrics
from mdcl.metrics import add_image_noise, emd_distance, psnr


def cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def brute_force_emd(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive minimum over all assignments (oracle for small clouds)."""
    n = a.shape[0]
    cost = cost_matrix(a, b)
    best = min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    return best / n


@st.composite
def cloud_pairs(draw):
    """Two equal-size clouds: uniform, on a coarse grid (many equal costs),
    drawn from a few repeated points, or one a permutation of the other."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "grid", "repeated", "permuted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "uniform":
        a, b = rng.random((2, n, dim))
    elif kind == "grid":
        steps = draw(st.integers(1, 4))
        a, b = rng.integers(0, steps + 1, (2, n, dim)) / steps
    elif kind == "repeated":
        pool = rng.random((draw(st.integers(1, 3)), dim))
        a, b = pool[rng.integers(0, len(pool), (2, n))]
    else:
        a = rng.integers(0, 3, (n, dim)).astype(float)
        b = a[rng.permutation(n)]
    return a, b


class TestEmd:
    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(0)
        a = rng.random((30, 2))
        assert emd_distance(a, a.copy()) == 0.0

    def test_two_point_frozen_example(self):
        # identity pairing costs (1+1)/2 = 1.0, beating the swap sqrt(2)
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert emd_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 4))
            a, b = rng.random((n, dim)), rng.random((n, dim))
            assert emd_distance(a, b) == pytest.approx(brute_force_emd(a, b), abs=1e-9)

    def test_not_above_identity_or_permuted_matching(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((30, 3)), rng.random((30, 3))
        d = emd_distance(a, b)
        for perm in [np.arange(30)] + [rng.permutation(30) for _ in range(50)]:
            assert d <= np.linalg.norm(a - b[perm], axis=1).mean() + 1e-12

    def test_scale_behavior(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((12, 2)), rng.random((12, 2))
        base = emd_distance(a, b)
        for s in (0.5, 2.0):
            assert emd_distance(s * a, s * b) == pytest.approx(s * base, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            emd_distance(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            emd_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cloud", [0, 1])
    def test_non_finite_rejected_before_assignment(self, monkeypatch, value, cloud):
        """A NaN or infinite coordinate raises before the solver runs, so it
        can neither hang it nor return a number."""
        def never(cost):
            raise AssertionError("solver ran on a non-finite cost matrix")

        monkeypatch.setattr(metrics, "_assign", never)
        clouds = [np.random.default_rng(6).random((30, 2)) for _ in range(2)]
        clouds[cloud][7, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            emd_distance(*clouds)

    @settings(max_examples=300, deadline=None)
    @given(cloud_pairs())
    def test_matches_scipy_assignment(self, clouds):
        """The port returns scipy's columns, ties included, and the EMD of
        scipy's assignment to the last bit."""
        a, b = clouds
        cost = cost_matrix(a, b)
        rows, cols = linear_sum_assignment(cost)
        assert metrics._assign(cost.tolist()) == cols.tolist()
        assert emd_distance(a, b) == float(cost[rows, cols].sum()) / len(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_axioms_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((10, 3))
        b = rng.random((10, 3))
        d_ab = emd_distance(a, b)
        assert d_ab >= 0
        assert d_ab == pytest.approx(emd_distance(b, a), abs=1e-12)
        assert d_ab <= np.sqrt(3.0)
        assert emd_distance(a, np.flipud(a)) == pytest.approx(0.0, abs=1e-12)


class TestPsnr:
    def test_identical_capped(self):
        img = np.random.default_rng(0).random((8, 8))
        assert psnr(img, img) == 99.0

    def test_frozen_values(self):
        ref = np.zeros((10, 10))
        img = np.full((10, 10), 0.1)        # MSE 0.01 -> 20 dB
        assert psnr(img, ref) == pytest.approx(20.0, abs=1e-9)
        img2 = np.full((10, 10), np.sqrt(0.001))
        assert psnr(img2, ref) == pytest.approx(30.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("img_dtype, ref_dtype", itertools.product(
        [np.float32, np.float64], repeat=2))
    def test_mse_of_the_widened_maps(self, img_dtype, ref_dtype):
        rng = np.random.default_rng(5)
        img = rng.random((1024, 1024)).astype(img_dtype)
        ref = rng.random((1024, 1024)).astype(ref_dtype)
        mse = float(np.mean((np.asarray(img, float) - np.asarray(ref, float)) ** 2))
        assert psnr(img, ref) == min(10.0 * math.log10(1.0 / mse), metrics.PSNR_CAP)

    def test_strictly_decreasing_with_noise(self):
        rng = np.random.default_rng(4)
        ref = rng.random((64, 64))
        values = []
        for power in (0.001, 0.01, 0.1):
            samples = [psnr(ref + np.sqrt(power)
                            * np.random.default_rng(s).standard_normal(ref.shape), ref)
                       for s in range(20)]
            values.append(np.mean(samples))
        assert values[0] > values[1] > values[2]


class TestImageNoise:
    def test_zero_drop_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((32, 32))
        out = add_image_noise(img, 0.0, rng.standard_normal(img.shape))
        assert np.array_equal(out, img)

    def test_power_increases_by_requested_db(self):
        rng = np.random.default_rng(1)
        img = np.random.default_rng(7).random((256, 256))
        out = add_image_noise(img, 12.0, rng.standard_normal(img.shape))
        added = out - img
        ratio = np.mean(added ** 2) / np.mean(img ** 2)
        assert 10 * np.log10(1 + ratio) == pytest.approx(12.0, abs=0.2)
