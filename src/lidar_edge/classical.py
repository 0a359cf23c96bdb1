"""Classical gradient-based edge detectors: Sobel, Roberts, Canny.

All operate on [0,1] gray images and use the shared cross-correlation
convolution. Thresholds are fractions of the maximum gradient magnitude
so defaults transfer across images of different contrast.

Tuning reads a detector at every threshold of a grid as one integer
level map. For Canny, one union-find hysteresis sweep over the thinned
magnitude (``_hysteresis``) gives the map for all grid thresholds at
once, and ``canny`` is the same sweep for a single threshold pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .imaging import as_image, convolve2d, gaussian_filter

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
# Canny's low threshold as a fraction of its high one, wherever one t sets both
CANNY_LOW_RATIO = 0.5


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
    return GradientField(gx=convolve2d(img, SOBEL_X), gy=convolve2d(img, SOBEL_Y))


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
    padded = np.zeros((h + 2, w + 2))
    padded[1:-1, 1:-1] = mag
    d = np.degrees(np.arctan2(gy, gx))
    # the angle folded into [0, 180] (d + 180.0 is what d % 180.0 gives for
    # a negative d), binned to 0/45/90/135 degrees as 0..3; 180 wraps to 0
    bins = np.searchsorted([22.5, 67.5, 112.5, 157.5], np.where(d < 0.0, d + 180.0, d),
                           side="right") % 4
    keep = np.zeros((h, w), dtype=bool)
    # neighbor offsets per quantized direction, in (dy, dx)
    for k, (dy, dx) in enumerate(((0, 1), (1, 1), (1, 0), (1, -1))):
        fwd = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        bwd = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep |= (bins == k) & (mag >= fwd) & (mag >= bwd)
    return np.where(keep, mag, 0.0)


def _hysteresis(nms: np.ndarray, lows, highs) -> np.ndarray:
    """Hysteresis at every threshold pair at once. lows and highs ascend,
    with lows[k] <= highs[k]; each pixel of the result counts the pairs k
    at which it survives: it is >= lows[k] and 8-connected through pixels
    >= lows[k] to a pixel >= highs[k].

    Survival is monotone in k, so one union-find pass gives every count
    (the component tree of the thinned magnitude): the 8-neighbour links
    between weak pixels join in decreasing order of the weak level they
    share, and a component's members take the level at which it first
    holds a strong pixel."""
    weak = np.searchsorted(lows, nms, side="right")  # pairs at which a pixel is weak
    ys, xs = np.nonzero(weak)
    weak = weak[ys, xs]
    strong = np.searchsorted(highs, nms[ys, xs], side="right")
    # their ids, inside a blank border so that every neighbour lookup is valid
    ids = np.full((nms.shape[0] + 2, nms.shape[1] + 2), -1)
    ids[ys + 1, xs + 1] = np.arange(len(ys))
    # a pixel strong below its weak level turns strong there: a link to itself
    seeds = np.flatnonzero((strong > 0) & (strong < weak))
    ends, levels = [np.stack([seeds, seeds])], [strong[seeds]]
    # each 8-neighbour link once, at the lower weak level of its two ends
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        nb = ids[ys + 1 + dy, xs + 1 + dx]
        linked = np.flatnonzero(nb >= 0)
        ends.append(np.stack([linked, nb[linked]]))
        levels.append(np.minimum(weak[linked], weak[nb[linked]]))
    levels = np.concatenate(levels)
    order = np.argsort(-levels, kind="stable")
    events = zip(levels[order].tolist(), *np.concatenate(ends, axis=1)[:, order].tolist())

    # a pixel strong wherever it is weak survives at all its levels
    count = np.where(strong == weak, weak, 0)
    parent = list(range(len(ys)))
    # members still without a count, per root of a component with no strong pixel
    pending = {p: [p] for p in np.flatnonzero(strong < weak).tolist()}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for level, p, q in events:
        if p == q:  # a seed: its component now holds a strong pixel
            members = pending.pop(find(p), None)
            if members:
                count[members] = level
            continue
        p, q = find(p), find(q)
        if p == q:
            continue
        members_p, members_q = pending.pop(p, None), pending.pop(q, None)
        if members_p is None or members_q is None:
            if members_p or members_q:  # joined to a strong pixel
                count[members_p or members_q] = level
        else:
            if len(members_p) < len(members_q):
                p, q, members_p, members_q = q, p, members_q, members_p
            members_p += members_q
            pending[p] = members_p
        parent[q] = p
    out = np.zeros(nms.shape, dtype=np.intp)
    out[ys, xs] = count
    return out


def _thinned_gradient(img: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
    """Canny's threshold-free front end: (NMS-thinned magnitude, peak)."""
    field = sobel(gaussian_filter(as_image(img), sigma))
    mag = field.magnitude
    return _nms(mag, field.gx, field.gy), mag.max()


def canny(img: np.ndarray, sigma: float = 1.0, low: float = 0.1,
          high: float = 0.2) -> np.ndarray:
    """Canny pipeline: Gaussian smoothing, Sobel gradients, non-maximum
    suppression, double threshold at fractions of the peak magnitude,
    hysteresis linking. low == high is allowed: at (0, 0) every pixel of
    a non-flat image is marked."""
    if not (0.0 <= low <= high <= 1.0):
        raise ParameterError(f"need 0 <= low <= high <= 1, got low={low} high={high}")
    thinned, peak = _thinned_gradient(img, sigma)
    # flat images leave only floating-point cancellation residue; treat as empty
    if peak < 1e-12:
        return np.zeros_like(thinned)
    return (_hysteresis(thinned, [low * peak], [high * peak]) > 0).astype(np.float64)


def canny_levels(img: np.ndarray, grid: np.ndarray, sigma: float) -> np.ndarray:
    """Level map of canny(img, sigma, t * CANNY_LOW_RATIO, t) over an ascending grid
    from 0, where every pixel is marked: at index k, level > k. The
    front end and one hysteresis sweep run once for the whole grid."""
    thinned, peak = _thinned_gradient(img, sigma)
    if peak < 1e-12:
        return np.ones(thinned.shape, dtype=np.intp)
    return 1 + _hysteresis(thinned, (grid[1:] * CANNY_LOW_RATIO) * peak, grid[1:] * peak)
