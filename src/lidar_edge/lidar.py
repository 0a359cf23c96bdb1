"""Synthetic LiDAR range imaging.

Pulse time-of-flight converts to distance as d = c * tof / 2. A scene
is a list of simple primitives placed on the sensor's beam grid; the
renderer produces a range raster, a discontinuity-based ground-truth
edge map (computed before noise), and noisy measurements via additive
Gaussian range noise plus per-pixel dropout. All randomness comes from
SplitMix64 streams so datasets are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .formats import DatasetManifest, ManifestEntry, write_lri, write_pgm
from .imaging import as_image
from .rng import SplitMix64, splitmix64

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def tof_to_distance(tof: float, c: float = SPEED_OF_LIGHT) -> float:
    """Distance in meters for a round-trip time of flight in seconds."""
    if tof < 0:
        raise ParameterError(f"time of flight must be nonnegative, got {tof}")
    return c * tof / 2.0


@dataclass(frozen=True)
class LidarConfig:
    height: int = 64
    width: int = 64
    max_range: float = 100.0
    noise_sigma: float = 0.05
    dropout_prob: float = 0.0

    def __post_init__(self):
        if self.max_range <= 0:
            raise ParameterError("max_range must be positive")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise ParameterError("dropout_prob must lie in [0, 1)")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be nonnegative")
        if self.height < 1 or self.width < 1:
            raise ParameterError("beam grid dims must be >= 1")


@dataclass(frozen=True)
class Disk:
    row: float
    col: float
    radius: float
    range_m: float

    def mask(self, h: int, w: int) -> np.ndarray:
        yy, xx = np.mgrid[0:h, 0:w]
        return (yy - self.row) ** 2 + (xx - self.col) ** 2 <= self.radius ** 2


@dataclass(frozen=True)
class Rect:
    row0: int
    col0: int
    height: int
    width: int
    range_m: float

    def mask(self, h: int, w: int) -> np.ndarray:
        m = np.zeros((h, w), dtype=bool)
        r0, c0 = max(self.row0, 0), max(self.col0, 0)
        r1, c1 = min(self.row0 + self.height, h), min(self.col0 + self.width, w)
        if r1 > r0 and c1 > c0:
            m[r0:r1, c0:c1] = True
        return m


@dataclass(frozen=True)
class HalfPlane:
    """Step discontinuity: covers one side of a row or column boundary."""
    orientation: str  # "vertical" boundary between columns, "horizontal" between rows
    position: int     # first index on the covered ("high") side
    side: str         # "low" covers indices < position, "high" covers >= position
    range_m: float

    def mask(self, h: int, w: int) -> np.ndarray:
        idx = np.arange(w if self.orientation == "vertical" else h)
        line = idx >= self.position if self.side == "high" else idx < self.position
        if self.orientation == "vertical":
            return np.broadcast_to(line[np.newaxis, :], (h, w)).copy()
        return np.broadcast_to(line[:, np.newaxis], (h, w)).copy()


@dataclass
class Scene:
    primitives: list = field(default_factory=list)
    background_range: float = 80.0


def _clean_ranges(scene: Scene, cfg: LidarConfig) -> np.ndarray:
    ranges = np.full((cfg.height, cfg.width), float(scene.background_range))
    for prim in scene.primitives:
        if not (0.0 < prim.range_m <= cfg.max_range):
            raise ParameterError(
                f"primitive range {prim.range_m} outside (0, {cfg.max_range}]")
        m = prim.mask(cfg.height, cfg.width)
        # nearest surface wins where primitives overlap
        ranges[m] = np.minimum(ranges[m], prim.range_m)
    return ranges


def ground_truth_edges(ranges: np.ndarray, delta: float) -> np.ndarray:
    """Edge label: 1 where a 4-neighbor is farther by more than delta.

    Marking only the nearer side keeps boundaries one pixel wide.
    """
    ranges = as_image(ranges)
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    edges = np.zeros_like(ranges)
    edges[:, :-1][ranges[:, 1:] - ranges[:, :-1] > delta] = 1.0
    edges[:, 1:][ranges[:, :-1] - ranges[:, 1:] > delta] = 1.0
    edges[:-1, :][ranges[1:, :] - ranges[:-1, :] > delta] = 1.0
    edges[1:, :][ranges[:-1, :] - ranges[1:, :] > delta] = 1.0
    return edges


def render_scene(scene: Scene, cfg: LidarConfig, seed: int,
                 delta: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Render (noisy range image, clean edge map) for a scene.

    Labels come from the noise-free ranges; Gaussian range noise and
    dropout (pixel replaced by max_range) are then applied in row-major
    order from the SplitMix64 stream for `seed`.
    """
    clean = _clean_ranges(scene, cfg)
    edges = ground_truth_edges(clean, delta)
    rng = SplitMix64(seed)
    noisy = clean
    if cfg.noise_sigma > 0:
        noise = rng.normals(clean.size).reshape(clean.shape)
        noisy = clean + cfg.noise_sigma * noise
    if cfg.dropout_prob > 0:
        drops = rng.floats(clean.size).reshape(clean.shape) < cfg.dropout_prob
        noisy = np.where(drops, cfg.max_range, noisy)
    noisy = np.clip(noisy, 1e-6, cfg.max_range)
    return noisy, edges


def range_to_intensity(ranges: np.ndarray, max_range: float) -> np.ndarray:
    """Map ranges to [0, 1] intensities, near = bright: v = 1 - r/max."""
    ranges = as_image(ranges)
    return np.clip(1.0 - ranges / max_range, 0.0, 1.0)


@dataclass(frozen=True)
class ScenePolicy:
    """Parameter ranges for random scene sampling."""
    min_primitives: int = 2
    max_primitives: int = 5
    kinds: tuple = ("disk", "rect", "halfplane")
    min_range: float = 5.0
    max_range_frac: float = 0.6   # primitive ranges stay below this fraction of sensor max
    min_size: int = 4
    max_size: int = 20
    background_lo: float = 60.0
    background_hi: float = 90.0

    def validate(self, cfg: LidarConfig) -> None:
        if self.min_primitives < 0 or self.max_primitives < self.min_primitives:
            raise ParameterError("primitive count range is invalid")
        if not self.kinds or any(k not in ("disk", "rect", "halfplane") for k in self.kinds):
            raise ParameterError(f"unknown primitive kinds in {self.kinds}")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ParameterError("primitive size range is invalid")
        if not (0 < self.min_range < self.max_range_frac * cfg.max_range):
            raise ParameterError("primitive range interval is empty")
        if not (0 < self.background_lo <= self.background_hi <= cfg.max_range):
            raise ParameterError("background range interval is invalid")


def sample_scene(policy: ScenePolicy, cfg: LidarConfig, seed: int) -> Scene:
    """Draw a scene from the policy using the stream for `seed`."""
    policy.validate(cfg)
    rng = SplitMix64(seed)
    n = policy.min_primitives + rng.randint(policy.max_primitives - policy.min_primitives + 1)
    hi = policy.max_range_frac * cfg.max_range
    prims = []
    for _ in range(n):
        kind = policy.kinds[rng.randint(len(policy.kinds))]
        range_m = rng.uniform(policy.min_range, hi)
        size = policy.min_size + rng.randint(policy.max_size - policy.min_size + 1)
        if kind == "disk":
            prims.append(Disk(row=rng.uniform(0, cfg.height - 1),
                              col=rng.uniform(0, cfg.width - 1),
                              radius=size / 2.0, range_m=range_m))
        elif kind == "rect":
            prims.append(Rect(row0=rng.randint(cfg.height) - size // 2,
                              col0=rng.randint(cfg.width) - size // 2,
                              height=size, width=size, range_m=range_m))
        else:
            orientation = "vertical" if rng.randint(2) == 0 else "horizontal"
            extent = cfg.width if orientation == "vertical" else cfg.height
            prims.append(HalfPlane(orientation=orientation,
                                   position=1 + rng.randint(max(extent - 1, 1)),
                                   side="high" if rng.randint(2) == 0 else "low",
                                   range_m=range_m))
    background = rng.uniform(policy.background_lo, policy.background_hi)
    return Scene(primitives=prims, background_range=background)


def generate_dataset(n: int, cfg: LidarConfig, policy: ScenePolicy,
                     delta: float, seed: int, out_dir) -> DatasetManifest:
    """Render n labeled samples into out_dir and return their manifest,
    every entry "unassigned"; the caller splits it and writes it.

    Sample index i uses sub-seed SplitMix64(seed, i), so the dataset is
    a pure function of (n, cfg, policy, delta, seed) and individual
    images could be regenerated independently.
    """
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest()
    width = len(str(n - 1))
    for i in range(n):
        sub = splitmix64(seed, i)
        scene = sample_scene(policy, cfg, splitmix64(sub, 0))
        ranges, edges = render_scene(scene, cfg, splitmix64(sub, 1), delta)
        sample_id = f"sample_{i:0{max(width, 4)}d}"
        range_rel = f"{sample_id}.lri"
        intensity_rel = f"{sample_id}.pgm"
        label_rel = f"{sample_id}_label.pgm"
        write_lri(out_dir / range_rel, ranges, cfg.max_range)
        write_pgm(out_dir / intensity_rel, range_to_intensity(ranges, cfg.max_range))
        write_pgm(out_dir / label_rel, edges)
        manifest.entries.append(ManifestEntry(
            id=sample_id, range=range_rel, intensity=intensity_rel, label=label_rel))
    return manifest
