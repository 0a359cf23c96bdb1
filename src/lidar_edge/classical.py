"""Classical gradient-based edge detectors: Sobel, Roberts, Canny.

All operate on [0,1] gray images and use the shared cross-correlation
convolution. Thresholds are fractions of the maximum gradient magnitude
so defaults transfer across images of different contrast.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .imaging import as_image, convolve2d, gaussian_filter

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()

# Roberts cross, anchored at the top-left of each 2x2 window
ROBERTS_1 = np.array([[1.0, 0.0], [0.0, -1.0]])
ROBERTS_2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class GradientField:
    gx: np.ndarray
    gy: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.gx, self.gy)


def sobel(img: np.ndarray) -> GradientField:
    """Sobel gradients with replicate border; gx responds to left-to-right
    intensity increase, gy to top-to-bottom."""
    img = as_image(img)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise DimensionError(f"sobel needs at least 3x3, got {img.shape}")
    return GradientField(gx=convolve2d(img, SOBEL_X, border="replicate"),
                         gy=convolve2d(img, SOBEL_Y, border="replicate"))


def roberts(img: np.ndarray) -> GradientField:
    """Roberts cross diagonal differences; each output pixel uses the 2x2
    window anchored at itself, with the bottom/right fringe zero-padded."""
    img = as_image(img)
    if img.shape[0] < 2 or img.shape[1] < 2:
        raise DimensionError(f"roberts needs at least 2x2, got {img.shape}")
    padded = np.pad(img, ((0, 1), (0, 1)), mode="constant")
    g1 = padded[:-1, :-1] - padded[1:, 1:]
    g2 = padded[:-1, 1:] - padded[1:, :-1]
    return GradientField(gx=g1, gy=g2)


def threshold_magnitude(field: GradientField, t: float) -> np.ndarray:
    """Binarize at t * max(magnitude); an all-zero field gives an empty map."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"threshold fraction must lie in [0, 1], got {t}")
    mag = field.magnitude
    peak = mag.max()
    # flat images leave only floating-point cancellation residue; treat as empty
    if peak < 1e-12:
        return np.zeros_like(mag)
    return (mag >= t * peak).astype(np.float64)


def magnitude_levels(field: GradientField, grid: np.ndarray) -> np.ndarray:
    """Level map of threshold_magnitude(field, t) over an ascending grid:
    at index k, level > k."""
    mag = field.magnitude
    peak = mag.max()
    if peak < 1e-12:
        return np.zeros(mag.shape, dtype=np.intp)
    return np.searchsorted(grid * peak, mag, side="right")


def _nms(mag: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Thin the magnitude to local maxima along the gradient direction,
    quantized to 0/45/90/135 degrees. A pixel survives when it is >= both
    neighbors along that direction (plateau centers are kept)."""
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="constant")
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    # neighbor offsets per quantized direction, in (dy, dx)
    offsets = {0: (0, 1), 45: (1, 1), 90: (1, 0), 135: (1, -1)}
    bins = np.full((h, w), 0)
    bins[(angle >= 22.5) & (angle < 67.5)] = 45
    bins[(angle >= 67.5) & (angle < 112.5)] = 90
    bins[(angle >= 112.5) & (angle < 157.5)] = 135
    out = np.zeros_like(mag)
    for direction, (dy, dx) in offsets.items():
        sel = bins == direction
        fwd = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        bwd = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep = sel & (mag >= fwd) & (mag >= bwd)
        out[keep] = mag[keep]
    return out


def _hysteresis(nms: np.ndarray, low: float, high: float) -> np.ndarray:
    """Keep strong pixels and weak pixels 8-connected to a strong one.
    Breadth-first flood fill in row-major seed order; deterministic."""
    strong = nms >= high
    weak = nms >= low
    edges = np.zeros(nms.shape, dtype=bool)
    queue = deque(zip(*np.nonzero(strong)))
    edges[strong] = True
    h, w = nms.shape
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    queue.append((ny, nx))
    return edges.astype(np.float64)


def _thinned_gradient(img: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
    """Canny's threshold-free front end: (NMS-thinned magnitude, peak)."""
    field = sobel(gaussian_filter(as_image(img), sigma))
    mag = field.magnitude
    return _nms(mag, field.gx, field.gy), mag.max()


def canny(img: np.ndarray, sigma: float = 1.0, low: float = 0.1,
          high: float = 0.2) -> np.ndarray:
    """Canny pipeline: Gaussian smoothing, Sobel gradients, non-maximum
    suppression, double threshold at fractions of the peak magnitude,
    hysteresis linking."""
    if not (0.0 <= low < high <= 1.0):
        raise ParameterError(f"need 0 <= low < high <= 1, got low={low} high={high}")
    thinned, peak = _thinned_gradient(img, sigma)
    # flat images leave only floating-point cancellation residue; treat as empty
    if peak < 1e-12:
        return np.zeros_like(thinned)
    return _hysteresis(thinned, low * peak, high * peak)


def canny_levels(img: np.ndarray, grid: np.ndarray, sigma: float) -> np.ndarray:
    """Level map of canny(img, sigma, t / 2, t) over an ascending grid
    from 0, where every pixel is marked: at index k, level > k. The
    front end runs once for the whole grid."""
    thinned, peak = _thinned_gradient(img, sigma)
    levels = np.ones(thinned.shape, dtype=np.intp)
    if peak >= 1e-12:
        for t in grid[1:]:
            levels += _hysteresis(thinned, (t / 2.0) * peak, t * peak).astype(np.intp)
    return levels
