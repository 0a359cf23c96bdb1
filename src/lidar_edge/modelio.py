"""LEDM model persistence.

Layout (all integers little-endian u32, floats little-endian f64):

    magic b"LEDM"
    version (= 1)
    model kind (1 = nested detector, 2 = patch classifier)
    arch descriptor:
        nested: S, S stage widths, input height, input width
        patch:  3, conv1 ch, conv2 ch, hidden, 28, 28, f64 dropout rate
    each tensor in models.tensor_shapes order: rank, dims..., f64 values
    CRC32 of every prior byte

load(save(p)) is a bitwise identity on every tensor.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import (CorruptModelError, MagicError, ParameterError,
                     TruncationError, VersionError)
from .formats import write_atomic
from .models import (PATCH_SIZE, NestedArch, NestedNetParams, PatchArch,
                     PatchNetParams, tensor_shapes)

MAGIC = b"LEDM"
VERSION = 1
KIND_NESTED = 1
KIND_PATCH = 2


def _pack_tensor(arr: np.ndarray) -> bytes:
    return (struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
            + np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_model(params, path) -> None:
    if not isinstance(params, (NestedNetParams, PatchNetParams)):
        raise TypeError(f"cannot serialize {type(params).__name__}")
    arch = params.arch
    if isinstance(params, NestedNetParams):
        head = struct.pack(f"<{arch.stages + 5}I", VERSION, KIND_NESTED, arch.stages,
                           *arch.widths, *arch.input_hw)
    else:
        head = struct.pack("<8Id", VERSION, KIND_PATCH, 3, *arch.patch_channels,
                           arch.patch_hidden, PATCH_SIZE, PATCH_SIZE, arch.patch_dropout)
    payload = MAGIC + head + b"".join(_pack_tensor(t) for _, t in params.named_tensors())
    write_atomic(path, payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _arch(path, cls, **fields):
    """The architecture a descriptor declares; one that fails validation
    makes the file corrupt."""
    try:
        return cls(**fields)
    except ParameterError as exc:
        raise CorruptModelError(f"{path}: invalid descriptor: {exc}") from exc


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncationError(f"{self.path}: file ends {self.pos + n - len(self.raw)} bytes early")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def tensor(self, shape: tuple) -> np.ndarray:
        rank = self.u32()
        dims = tuple(self.u32() for _ in range(rank))
        if dims != shape:
            raise CorruptModelError(f"{self.path}: tensor dims {dims}, expected {shape}")
        raw = self.take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_model(path):
    """Read an LEDM file; returns NestedNetParams or PatchNetParams."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise MagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise TruncationError(f"{path}: too short for an LEDM header")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptModelError(f"{path}: CRC32 mismatch")
    r = _Reader(raw[:-4], path)
    r.take(4)  # magic
    version = r.u32()
    if version != VERSION:
        raise VersionError(f"{path}: unsupported LEDM version {version}")
    kind = r.u32()
    if kind == KIND_NESTED:
        stages = r.u32()
        widths = tuple(r.u32() for _ in range(stages))
        arch, cls = _arch(path, NestedArch, widths=widths,
                          input_hw=(r.u32(), r.u32())), NestedNetParams
    elif kind == KIND_PATCH:
        n = r.u32()
        if n != 3:
            raise CorruptModelError(f"{path}: bad patch descriptor length {n}")
        c1, c2, hidden = r.u32(), r.u32(), r.u32()
        if (r.u32(), r.u32()) != (PATCH_SIZE, PATCH_SIZE):
            raise CorruptModelError(f"{path}: invalid descriptor: patch input is fixed "
                                    f"at {PATCH_SIZE}x{PATCH_SIZE}")
        arch, cls = _arch(path, PatchArch, patch_channels=(c1, c2), patch_hidden=hidden,
                          patch_dropout=r.f64()), PatchNetParams
    else:
        raise CorruptModelError(f"{path}: unknown model kind {kind}")
    # the tensors are allocated from the descriptor, so it must fit the payload first
    shapes = [shape for _, shape in tensor_shapes(arch)]
    need = sum(4 * (1 + len(shape)) + 8 * math.prod(shape) for shape in shapes)
    if need > len(r.raw) - r.pos:
        raise TruncationError(f"{path}: architecture needs {need} tensor bytes, "
                              f"file holds {len(r.raw) - r.pos}")
    tensors = [r.tensor(shape) for shape in shapes]
    if r.pos != len(r.raw):
        raise CorruptModelError(f"{path}: {len(r.raw) - r.pos} trailing bytes")
    return cls(arch, tensors)
