"""Imaging primitives against naive brute-force oracles."""

import numpy as np
import pytest

from lidar_edge.classical import SOBEL_X, SOBEL_Y
from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.imaging import (MAX_SIGMA, as_edge_map, as_image, convolve2d,
                                gaussian_filter, gaussian_kernel1d)
from lidar_edge.layers import ConvParams, conv_forward
from lidar_edge.rng import SplitMix64


def naive_convolve(img, k, border):
    """Quadruple-loop cross-correlation oracle."""
    kh, kw = k.shape
    ry, rx = kh // 2, kw // 2
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            for i in range(kh):
                for j in range(kw):
                    yy, xx = y + i - ry, x + j - rx
                    if 0 <= yy < h and 0 <= xx < w:
                        out[y, x] += img[yy, xx] * k[i, j]
                    elif border == "replicate":
                        out[y, x] += img[min(max(yy, 0), h - 1),
                                         min(max(xx, 0), w - 1)] * k[i, j]
        # zero border contributes nothing
    return out


def same_padded_conv(img, k):
    """A one-channel same-padded layers.conv_forward: the zero-border
    cross-correlation the CNN runs."""
    return conv_forward(img[np.newaxis], ConvParams(k[np.newaxis, np.newaxis], np.zeros(1)))[0]


# the program's two 2-D cross-correlations, by border
CORRELATE = {"replicate": convolve2d, "zero": same_padded_conv}


class TestConvolve2d:
    def test_identity_kernel(self):
        img = SplitMix64(1).floats(48).reshape(6, 8)
        k = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(convolve2d(img, k), img)

    def test_box_kernel_constant_image(self):
        img = np.full((5, 5), 0.37)
        k = np.full((3, 3), 1.0 / 9.0)
        np.testing.assert_allclose(convolve2d(img, k), img, rtol=1e-15)

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    def test_matches_naive_oracle(self, border):
        rng = SplitMix64(7)
        for trial in range(70):
            h = 3 + rng.randint(6)
            w = 3 + rng.randint(6)
            img = rng.floats(h * w).reshape(h, w)
            k = rng.floats(9).reshape(3, 3) - 0.5
            got = CORRELATE[border](img, k)
            want = naive_convolve(img, k, border)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            convolve2d(np.zeros((4, 4)), np.ones((2, 2)))


def einsum_convolve(img, k, border):
    """The cross-correlation as an einsum over the sliding windows of the
    padded image."""
    kh, kw = k.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)),
                    mode="constant" if border == "zero" else "edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, k, optimize=True)


def assert_matches_einsum(img, k, border):
    """convolve2d is the einsum's sum bit for bit, one product of the kernel
    with its C-contiguous taps. The same-padded conv may multiply a strided
    view of its taps, which sums in another order, so only its value is
    pinned."""
    got, want = CORRELATE[border](img, k), einsum_convolve(img, k, border)
    if border == "replicate":
        assert got.tobytes() == want.tobytes(), (img.shape, k.shape)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestConvolve2dMatchesEinsum:
    """Each cross-correlation against the einsum, on every image whose
    sides are both >= 2."""

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 2.5])
    def test_gaussian_rows_and_columns(self, sigma, border):
        img = SplitMix64(21).floats(64 * 64).reshape(64, 64)
        k = gaussian_kernel1d(sigma)
        for kernel in (k[np.newaxis, :], k[:, np.newaxis]):
            assert_matches_einsum(img, kernel, border)

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    def test_sobel_kernels(self, border):
        img = SplitMix64(22).floats(64 * 64).reshape(64, 64)
        img[20:40, 10:30] = 0.5  # a flat patch, where the taps cancel
        for kernel in (SOBEL_X, SOBEL_Y):
            assert_matches_einsum(img, kernel, border)

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    def test_random_shapes(self, border):
        rng = SplitMix64(23)
        for trial in range(200):
            h, w = 2 + rng.randint(40), 2 + rng.randint(40)
            kh, kw = 1 + 2 * rng.randint(5), 1 + 2 * rng.randint(5)
            img = rng.normals(h * w).reshape(h, w)
            k = rng.normals(kh * kw).reshape(kh, kw)
            assert_matches_einsum(img, k, border)

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    def test_pad_wider_than_image(self, border):
        """A kernel radius beyond the image's sides: the replicate pad
        repeats the edge pixels, corners included, as np.pad's "edge"
        mode does, however far it reaches."""
        rng = SplitMix64(25)
        for h, w in ((3, 3), (2, 5), (5, 2)):
            img = rng.normals(h * w).reshape(h, w)
            for kh, kw in ((1, 13), (13, 1), (13, 13), (7, 11)):
                assert_matches_einsum(img, rng.normals(kh * kw).reshape(kh, kw), border)

    @pytest.mark.parametrize("border", ["zero", "replicate"])
    @pytest.mark.parametrize("shape", [(9, 1), (1, 9), (1, 1)], ids=str)
    def test_one_pixel_wide_matches_naive_oracle(self, shape, border):
        """Here einsum drops the size-1 axis and sums in another order, so
        only the value is pinned, not the last bit."""
        rng = SplitMix64(24)
        img = rng.floats(shape[0] * shape[1]).reshape(shape)
        for kernel in (gaussian_kernel1d(2.0)[np.newaxis, :], gaussian_kernel1d(2.0)[:, np.newaxis],
                       SOBEL_X):
            np.testing.assert_allclose(CORRELATE[border](img, kernel),
                                       naive_convolve(img, kernel, border), rtol=1e-12, atol=1e-14)


class TestGaussianFilter:
    def test_constant_image_unchanged(self):
        img = np.full((7, 9), 0.6)
        np.testing.assert_allclose(gaussian_filter(img, 1.0), img, rtol=1e-12)

    def test_impulse_center_value(self):
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        k = gaussian_kernel1d(1.0)
        center = k[len(k) // 2] ** 2
        assert gaussian_filter(img, 1.0)[4, 4] == pytest.approx(center, rel=1e-12)

    def test_matches_dense_kernel_oracle(self):
        img = SplitMix64(3).floats(100).reshape(10, 10)
        sigma = 1.5
        k1 = gaussian_kernel1d(sigma)
        dense = np.outer(k1, k1)
        want = naive_convolve(img, dense, "replicate")
        np.testing.assert_allclose(gaussian_filter(img, sigma), want, atol=1e-10)

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_filter(np.zeros((3, 3)), 0.0)

    def test_sigma_cap_is_inclusive(self):
        assert gaussian_kernel1d(MAX_SIGMA).size == 2 * 300 + 1
        with pytest.raises(ParameterError, match="sigma must lie in"):
            gaussian_kernel1d(np.nextafter(MAX_SIGMA, np.inf))

    def test_output_within_input_range(self):
        img = SplitMix64(9).floats(64).reshape(8, 8)
        out = gaussian_filter(img, 2.0)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            as_image(np.array([[np.nan, 0.0]]))

    def test_edge_map_must_be_binary(self):
        with pytest.raises(ParameterError):
            as_edge_map(np.array([[0.5]]))
