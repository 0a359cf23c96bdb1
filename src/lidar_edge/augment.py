"""Joint image/label augmentation.

All transforms are pure functions of (inputs, seed). A sampled pipeline
applies, in fixed order: geometric warp, photometric adjustment, noise,
occlusion. Labels go through the geometric warp with nearest-neighbor
sampling (they stay binary) and are zeroed under occluders; photometric
and noise steps touch only the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .imaging import as_edge_map, as_image
from .rng import SplitMix64, splitmix64


@dataclass(frozen=True)
class AffineParams:
    angle: float = 0.0      # degrees, counterclockwise in (x right, y down) coords
    tx: float = 0.0
    ty: float = 0.0
    scale: float = 1.0
    shear_x: float = 0.0
    flip_h: bool = False
    flip_v: bool = False


def _affine_matrix(p: AffineParams, h: int, w: int) -> np.ndarray:
    """Forward map (x, y, 1) -> output coords, composed about the center."""
    if p.scale <= 0:
        raise ParameterError(f"scale must be positive, got {p.scale}")
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    t_neg = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    s = np.array([[p.scale, 0, 0], [0, p.scale, 0], [0, 0, 1]], dtype=np.float64)
    sh = np.array([[1, p.shear_x, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float64)
    a = math.radians(p.angle)
    r = np.array([[math.cos(a), -math.sin(a), 0],
                  [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    f = np.array([[-1.0 if p.flip_h else 1.0, 0, 0],
                  [0, -1.0 if p.flip_v else 1.0, 0], [0, 0, 1]])
    t_pos = np.array([[1, 0, cx + p.tx], [0, 1, cy + p.ty], [0, 0, 1]], dtype=np.float64)
    return t_pos @ f @ r @ sh @ s @ t_neg


def _source_coords(m: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    inv = np.linalg.inv(m)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    xs = inv[0, 0] * xx + inv[0, 1] * yy + inv[0, 2]
    ys = inv[1, 0] * xx + inv[1, 1] * yy + inv[1, 2]
    return ys, xs


def _sample_bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = img.shape
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    wy = ys - y0
    wx = xs - x0
    out = np.zeros_like(ys)
    for dy, dx, wgt in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                        (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yi, xi = y0 + dy, x0 + dx
        ok = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        out[ok] += wgt[ok] * img[yi[ok], xi[ok]]
    return out


def _sample_nearest(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    h, w = img.shape
    yi = np.round(ys).astype(int)
    xi = np.round(xs).astype(int)
    ok = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
    out = np.zeros_like(ys)
    out[ok] = img[yi[ok], xi[ok]]
    return out


def affine_transform(img: np.ndarray, label: np.ndarray,
                     params: AffineParams) -> tuple[np.ndarray, np.ndarray]:
    """One composed warp about the image center; bilinear for the image,
    nearest for the label, zeros outside the source frame."""
    img = as_image(img)
    label = as_edge_map(label)
    h, w = img.shape
    m = _affine_matrix(params, h, w)
    ys, xs = _source_coords(m, h, w)
    return _sample_bilinear(img, ys, xs), _sample_nearest(label, ys, xs)


def add_gaussian_noise(img: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Additive N(0, sigma^2) per pixel, row-major draw order, clamped."""
    img = as_image(img)
    if sigma < 0:
        raise ParameterError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return img.copy()
    noise = SplitMix64(seed).normals(img.size).reshape(img.shape)
    return np.clip(img + sigma * noise, 0.0, 1.0)


def add_salt_pepper(img: np.ndarray, density: float, seed: int) -> np.ndarray:
    """Replace each pixel by 0 or 1 (equal odds) with probability density."""
    img = as_image(img)
    if not (0.0 <= density <= 1.0):
        raise ParameterError(f"density must lie in [0, 1], got {density}")
    if density == 0:
        return img.copy()
    rng = SplitMix64(seed)
    hit = rng.floats(img.size).reshape(img.shape) < density
    value = (rng.floats(img.size).reshape(img.shape) < 0.5).astype(np.float64)
    return np.where(hit, value, img)


def occlude(img: np.ndarray, label: np.ndarray, count: int,
            size_range: tuple[int, int], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero `count` random axis-aligned rectangles in the image, and zero
    the label beneath them (occluded edges are not supervision targets)."""
    img = as_image(img).copy()
    label = as_edge_map(label).copy()
    if count < 0:
        raise ParameterError(f"count must be nonnegative, got {count}")
    lo, hi = int(size_range[0]), int(size_range[1])
    if lo < 1 or hi < lo:
        raise ParameterError(f"invalid occluder size range {size_range}")
    rng = SplitMix64(seed)
    h, w = img.shape
    for _ in range(count):
        # draw order per occluder: height, width, then top-left corner
        oh = lo + rng.randint(hi - lo + 1)
        ow = lo + rng.randint(hi - lo + 1)
        r0 = rng.randint(h)
        c0 = rng.randint(w)
        r1, c1 = min(r0 + oh, h), min(c0 + ow, w)
        img[r0:r1, c0:c1] = 0.0
        label[r0:r1, c0:c1] = 0.0
    return img, label


def adjust_photometric(img: np.ndarray, gain: float, offset: float) -> np.ndarray:
    """Contrast about mid-gray plus brightness: clamp(g*(v-0.5)+0.5+o)."""
    img = as_image(img)
    if gain <= 0:
        raise ParameterError(f"gain must be positive, got {gain}")
    return np.clip(gain * (img - 0.5) + 0.5 + offset, 0.0, 1.0)


@dataclass(frozen=True)
class AugmentSpec:
    """The augment config section; config.py holds its defaults and bounds."""
    rotation_deg: tuple
    translate_px: tuple
    scale: tuple
    shear: tuple
    flip_h_prob: float
    flip_v_prob: float
    gain: tuple
    offset: tuple
    noise_sigma: tuple
    salt_pepper: tuple
    occluder_count: int
    occluder_size: tuple


def sample_and_apply(img: np.ndarray, label: np.ndarray, spec: AugmentSpec,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one augmentation from the spec and apply it.

    Draw order (fixed): angle, tx, ty, scale, shear, flip_h, flip_v,
    gain, offset, noise sigma, salt-pepper density, occluder count; the
    noise, salt-pepper, and occlusion steps each run on their own
    derived sub-seed so their internal streams stay independent.
    """
    rng = SplitMix64(splitmix64(seed, 0))
    params = AffineParams(
        angle=rng.uniform(*spec.rotation_deg),
        tx=rng.uniform(*spec.translate_px),
        ty=rng.uniform(*spec.translate_px),
        scale=rng.uniform(*spec.scale),
        shear_x=rng.uniform(*spec.shear),
        flip_h=rng.next_float() < spec.flip_h_prob,
        flip_v=rng.next_float() < spec.flip_v_prob,
    )
    img, label = affine_transform(img, label, params)
    label = np.round(label)  # nearest sampling keeps {0,1}; round guards float dust
    img = adjust_photometric(img, rng.uniform(*spec.gain), rng.uniform(*spec.offset))
    img = add_gaussian_noise(img, rng.uniform(*spec.noise_sigma), splitmix64(seed, 1))
    img = add_salt_pepper(img, rng.uniform(*spec.salt_pepper), splitmix64(seed, 2))
    if spec.occluder_count > 0:
        n = rng.randint(spec.occluder_count + 1)
        img, label = occlude(img, label, n, spec.occluder_size, splitmix64(seed, 3))
    return img, label
