"""Classical gradient-based edge detectors: Sobel, Roberts, Canny.

All operate on [0,1] gray images and use the shared cross-correlation
convolution. Thresholds are fractions of the maximum gradient magnitude
so defaults transfer across images of different contrast.

A detector read at every threshold of an ascending grid gives one
integer level map: the edge map at grid index k is level > k. For Canny,
one union-find hysteresis sweep over the thinned magnitude
(``_hysteresis``) gives the map for every threshold pair at once; a
single pair is a grid of one.
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


def magnitude_levels(field: GradientField, grid: np.ndarray) -> np.ndarray:
    """Level map of mag >= t * max(mag) over an ascending grid: at index k,
    level > k."""
    mag = field.magnitude
    peak = mag.max()
    # flat images leave only floating-point cancellation residue; treat as empty
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
    # a negative d), binned to 0/45/90/135 degrees; 180 wraps to 0
    d = np.where(d < 0.0, d + 180.0, d)
    over = [d >= edge for edge in (22.5, 67.5, 112.5, 157.5)]
    # bin k of 1..3 runs from edge k - 1 up to edge k; bin 0 holds the rest
    bins = [~(over[0] ^ over[3]), over[0] ^ over[1], over[1] ^ over[2], over[2] ^ over[3]]
    keep = np.zeros((h, w), dtype=bool)
    # neighbor offsets per quantized direction, in (dy, dx)
    for in_bin, (dy, dx) in zip(bins, ((0, 1), (1, 1), (1, 0), (1, -1))):
        fwd = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        bwd = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep |= in_bin & (mag >= fwd) & (mag >= bwd)
    return np.where(keep, mag, 0.0)


def _hysteresis(nms: np.ndarray, lows, highs) -> np.ndarray:
    """Hysteresis at every threshold pair at once. lows and highs ascend,
    with lows[k] <= highs[k]; each pixel of the result counts the pairs k
    at which it survives: it is >= lows[k] and 8-connected through pixels
    >= lows[k] to a pixel >= highs[k].

    Survival is monotone in k, so one union-find pass gives every count
    (the component tree of the thinned magnitude; Tarjan 1975): the
    8-neighbour links between weak pixels join in decreasing order of the
    weak level they share. A component resolves at the highest level at
    which it holds a pixel strong at that level, and its members count
    that level; a component joined to a resolved one counts the level of
    the join, or its own strong level if that is higher."""
    h, w = nms.shape
    values = nms.ravel()
    # a pixel is weak at some pair exactly when it is >= the first low
    pixels = np.flatnonzero(values >= (lows[0] if len(lows) else np.inf))
    weak = np.searchsorted(lows, values[pixels], side="right")  # pairs at which it is weak
    strong = np.searchsorted(highs, values[pixels], side="right")
    # weak levels and ids on the flat map inside a blank border, so that
    # every neighbour lookup is valid
    row = w + 2
    at = pixels + 2 * (pixels // w) + row + 1
    level_map = np.zeros((h + 2) * row, dtype=np.intp)
    level_map[at] = weak
    ids = np.empty((h + 2) * row, dtype=np.intp)
    ids[at] = np.arange(len(pixels))
    # each 8-neighbour link once, at the lower weak level of its two ends:
    # to the right, below, below-left and below-right
    steps = np.array([1, row, row - 1, row + 1])
    right, below = level_map[at + 1], level_map[at + row]
    links = np.minimum(weak, [right, below, level_map[at + row - 1], level_map[at + row + 1]])
    # a diagonal link is implied where a 4-neighbour the two ends share is
    # weak at its level: the two 4-links through it join the same pixels at
    # that level or before it
    links[2, np.maximum(below, level_map[at - 1]) >= links[2]] = 0
    links[3, np.maximum(below, right) >= links[3]] = 0
    links = links.ravel()
    linked = np.flatnonzero(links)
    linked = linked[np.argsort(-links[linked], kind="stable")]
    step, ends = np.divmod(linked, len(pixels))
    events = zip(links[linked].tolist(), ends.tolist(), ids[at[ends] + steps[step]].tolist())

    parent = list(range(len(pixels)))
    # per pixel: the root it was joined to when it stopped being a root
    # (parent is path-compressed, joined is not)
    joined = parent[:]
    top = strong.tolist()  # per root: the highest strong level in its component
    count = [-1] * len(pixels)  # per root: its members' count, once it resolves
    for level, p, q in events:
        # the roots of p and q, halving their paths; inline, as this loop
        # is most of the sweep's time
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        if p == q:
            continue
        tp, tq = top[p], top[q]
        # a resolved component's top is at least the level it resolved at,
        # so when neither top reaches this level, neither side has resolved
        if tp >= level or tq >= level:
            if count[p] < 0:
                count[p] = max(tp, level)
            if count[q] < 0:
                count[q] = max(tq, level)
        parent[q] = joined[q] = p
        if tq > tp:
            top[p] = tq
    count, up = np.array(count, dtype=np.intp), np.array(joined, dtype=np.intp)
    # a component never joined again resolves at its top, 0 if it holds no
    # strong pixel; every other root counts as the first resolved root it
    # was joined to, found by pointer jumping
    last = (count < 0) & (up == np.arange(len(pixels)))
    count[last] = np.array(top, dtype=np.intp)[last]
    open_ = np.flatnonzero(count < 0)
    while len(open_):
        nxt = up[open_]
        count[open_], up[open_] = count[nxt], up[nxt]
        open_ = open_[count[open_] < 0]
    out = np.zeros(nms.size, dtype=np.intp)
    out[pixels] = count
    return out.reshape(nms.shape)


def canny(img: np.ndarray, sigma: float, low, high) -> np.ndarray:
    """Canny pipeline: Gaussian smoothing, Sobel gradients, non-maximum
    suppression, then double thresholds at fractions of the peak magnitude
    and hysteresis linking. low and high are numbers, or ascending arrays
    of one length, with 0 <= low[k] <= high[k] <= 1; each pixel of the
    result counts the pairs (low[k], high[k]) at which it is an edge, so
    the edge map at pair k is result > k. A flat image has no edge at any
    pair; on any other image a (0, 0) pair marks every pixel."""
    lows, highs = np.atleast_1d(low), np.atleast_1d(high)
    if not (lows.ndim == 1 and lows.shape == highs.shape and (lows <= highs).all()
            and (lows[:1] >= 0.0).all() and (highs[-1:] <= 1.0).all()
            and (lows[1:] >= lows[:-1]).all() and (highs[1:] >= highs[:-1]).all()):
        raise ParameterError(f"need ascending pairs with 0 <= low <= high <= 1, "
                             f"got low={low} high={high}")
    field = sobel(gaussian_filter(img, sigma))
    mag = field.magnitude
    peak = mag.max()
    # flat images leave only floating-point cancellation residue; treat as empty
    if peak < 1e-12:
        return np.zeros(mag.shape, dtype=np.intp)
    # a leading (0, 0) pair marks every pixel; left to the sweep, every
    # pixel would join its union-find
    lead = int(highs.size > 0 and highs[0] == 0.0)
    return lead + _hysteresis(_nms(mag, field.gx, field.gy), lows[lead:] * peak,
                              highs[lead:] * peak)
