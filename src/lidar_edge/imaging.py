"""Raster conventions and shared image-processing primitives.

Images are plain 2-D float64 numpy arrays, row-major:

* gray image  -- intensities, nominal range [0, 1]
* edge map    -- binary labels, values exactly 0.0 or 1.0
* prob map    -- probabilities in [0, 1]

`convolve2d` uses the cross-correlation convention (no kernel flip),
shared by the classical operators and the CNN layers. Kernels that care
about orientation are written pre-flipped where they are defined.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

# radius 3 * MAX_SIGMA = 300: replicate padding adds at most 600 rows or
# columns, and the kernel has at most 601 taps; tuning uses sigmas 1-2.5
MAX_SIGMA = 100.0


def as_image(data) -> np.ndarray:
    """Validate and return a 2-D float64 image array."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise DimensionError(f"expected a 2-D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ParameterError("image contains non-finite values")
    return img


def as_edge_map(data) -> np.ndarray:
    """Validate a binary edge map (values exactly 0 or 1)."""
    m = as_image(data)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ParameterError("edge map values must be exactly 0 or 1")
    return m


def as_prob_map(data) -> np.ndarray:
    """Validate a probability map (values in [0, 1])."""
    m = as_image(data)
    if m.min() < 0.0 or m.max() > 1.0:
        raise ParameterError("probability map values must lie in [0, 1]")
    return m


def as_kernel(weights) -> np.ndarray:
    """Validate an odd-sized, center-anchored 2-D kernel."""
    k = np.asarray(weights, dtype=np.float64)
    if k.ndim != 2:
        raise DimensionError(f"kernel must be 2-D, got shape {k.shape}")
    if k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
        raise DimensionError(f"kernel dims must be odd, got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ParameterError("kernel contains non-finite values")
    return k


def convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D cross-correlation of `img` with an odd-sized kernel, the same
    size as img, with the border padded by its edge pixels (replicate).

    The kernel is validated here. img must already be an image as
    `as_image` returns it: a caller that filters one image several times
    (`gaussian_filter`, `classical.sobel`) validates it once."""
    kernel = as_kernel(kernel)
    (h, w), (kh, kw) = img.shape, kernel.shape
    ph, pw = kh // 2, kw // 2
    # the edge pad: rows beyond the top and bottom repeat the first and last
    # row, then columns beyond the sides repeat the first and last column,
    # corners included
    padded = np.empty((h + 2 * ph, w + 2 * pw))
    padded[ph:ph + h, pw:pw + w] = img
    padded[:ph, pw:pw + w] = img[0]
    padded[ph + h:, pw:pw + w] = img[-1]
    padded[:, :pw] = padded[:, pw:pw + 1]
    padded[:, pw + w:] = padded[:, pw + w - 1:pw + w]
    # one C-contiguous row per tap, in the kernel's row-major order, so the
    # window sums are one matrix product
    s0, s1 = padded.strides
    taps = np.lib.stride_tricks.as_strided(padded, (kh, kw, h, w), (s0, s1, s0, s1)).copy()
    return np.matmul(kernel.reshape(1, -1), taps.reshape(kh * kw, h * w)).reshape(h, w)


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian, radius ceil(3*sigma), for a sigma in
    (0, MAX_SIGMA]."""
    if not 0 < sigma <= MAX_SIGMA:
        raise ParameterError(f"sigma must lie in (0, {MAX_SIGMA:g}], got {sigma}")
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_filter(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with replicate border."""
    img = as_image(img)
    k = gaussian_kernel1d(sigma)
    return convolve2d(convolve2d(img, k[np.newaxis, :]), k[:, np.newaxis])
