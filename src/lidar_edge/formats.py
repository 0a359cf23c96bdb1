"""On-disk raster and manifest formats.

* PGM (binary P5, maxval 255) for intensity images and edge labels;
  intensities are quantized with round(v * 255).
* LRI1 for range rasters: magic b"LRI1", little-endian u32 height,
  u32 width, f32 max_range, then height*width little-endian f32 ranges
  in row-major order.
* Dataset manifests are JSON Lines: one object per sample with keys
  id, range, intensity, label, split.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .imaging import as_image

SPLIT_TAGS = ("train", "val", "test", "unassigned")


def write_atomic(path, data: bytes) -> None:
    """Write data to path whole or not at all: into a temporary file in
    the same directory, renamed over path once complete. A write that
    fails midway leaves the old file as it was and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0,1] image as binary PGM P5 with maxval 255."""
    img = as_image(img)
    h, w = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path, raw: bytes | None = None) -> np.ndarray:
    """Read a binary PGM P5 back into a float64 image in [0, 1]. raw is
    the file's content when the caller has already read it; path then
    only names the file in errors."""
    if raw is None:
        with open(path, "rb") as f:
            raw = f.read()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParameterError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5":
        raise ParameterError(f"{path}: not a binary PGM (P5) file")
    if not all(tok.isdigit() and len(tok) <= 9 and int(tok) > 0 for tok in tokens[1:]):
        raise ParameterError(f"{path}: PGM width, height and maxval must be positive "
                             f"integers of at most 9 digits, got {b' '.join(tokens[1:])!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise ParameterError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < h * w:
        raise ParameterError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    peak = int(pixels.max())
    if peak > maxval:
        raise ParameterError(f"{path}: PGM pixel value {peak} exceeds maxval {maxval}")
    return pixels.reshape(h, w).astype(np.float64) / float(maxval)


def write_lri(path, ranges: np.ndarray, max_range: float) -> None:
    """Write a range raster in the LRI1 format."""
    ranges = as_image(ranges)
    h, w = ranges.shape
    with open(path, "wb") as f:
        f.write(b"LRI1")
        f.write(struct.pack("<IIf", h, w, float(max_range)))
        f.write(ranges.astype("<f4").tobytes())


def read_lri(path, raw: bytes | None = None) -> tuple[np.ndarray, float]:
    """Read an LRI1 file; returns (ranges, max_range). raw is as for read_pgm.
    The file holds exactly height*width ranges, each in [0, max_range]."""
    if raw is None:
        with open(path, "rb") as f:
            raw = f.read()
    if raw[:4] != b"LRI1":
        raise ParameterError(f"{path}: bad LRI1 magic {raw[:4]!r}")
    if len(raw) < 16:
        raise ParameterError(f"{path}: truncated LRI1 header")
    h, w, max_range = struct.unpack_from("<IIf", raw, 4)
    if not 0.0 < max_range < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"{path}: LRI1 max_range must be finite and positive, "
                             f"got {max_range}")
    if len(raw) != 16 + 4 * h * w:
        raise ParameterError(f"{path}: LRI1 payload of {len(raw) - 16} bytes, not 4 x {h} x {w}")
    ranges = np.frombuffer(raw, dtype="<f4", count=h * w, offset=16)
    if not np.all((ranges >= 0.0) & (ranges <= max_range)):  # NaN fails both
        raise ParameterError(f"{path}: LRI1 ranges must be finite and in [0, {max_range:g}]")
    return ranges.reshape(h, w).astype(np.float64), float(max_range)


@dataclass
class ManifestEntry:
    id: str
    range: str
    intensity: str
    label: str
    split: str = "unassigned"


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {tag: 0 for tag in SPLIT_TAGS}
        for e in self.entries:
            out[e.split] += 1
        return {k: v for k, v in out.items() if v}


def write_manifest(path, manifest: DatasetManifest) -> None:
    seen = set()
    for e in manifest.entries:
        if e.split not in SPLIT_TAGS:
            raise ParameterError(f"unknown split tag {e.split!r}")
        for p in (e.range, e.intensity, e.label):
            if p in seen:
                raise ParameterError(f"duplicate path {p}")
            seen.add(p)
    write_atomic(path, "".join(
        json.dumps({"id": e.id, "range": e.range, "intensity": e.intensity,
                    "label": e.label, "split": e.split}) + "\n"
        for e in manifest.entries).encode("ascii"))


def read_manifest(path) -> DatasetManifest:
    entries = []
    seen = set()
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("ascii").strip()
                if not line:
                    continue
                obj = json.loads(line)
                e = ManifestEntry(id=obj["id"], range=obj["range"],
                                  intensity=obj["intensity"], label=obj["label"],
                                  split=obj.get("split", "unassigned"))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ParameterError(f"{path}:{lineno}: bad manifest line "
                                     f"({type(exc).__name__}: {exc})") from exc
            if not all(isinstance(v, str) for v in vars(e).values()):
                raise ParameterError(f"{path}:{lineno}: manifest values must be strings")
            if e.split not in SPLIT_TAGS:
                raise ParameterError(f"{path}:{lineno}: unknown split tag {e.split!r}")
            for p in (e.range, e.intensity, e.label):
                if p in seen:
                    raise ParameterError(f"{path}:{lineno}: duplicate path {p}")
                seen.add(p)
            entries.append(e)
    return DatasetManifest(entries=entries)


def resolve(base: Path, rel: str) -> Path:
    """Manifest paths are stored relative to the manifest's directory."""
    return Path(base) / rel
