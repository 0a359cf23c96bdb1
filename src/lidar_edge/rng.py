"""Deterministic random streams built on SplitMix64.

Every stochastic step in the toolkit (scene sampling, sensor noise,
augmentation draws, weight init, shuffling, dropout) pulls from a
SplitMix64 stream so that identical seeds give bit-identical artifacts
on every platform.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MUL1 & _MASK
    z = (z ^ (z >> 27)) * _MUL2 & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int, index: int) -> int:
    """The index-th output of the SplitMix64 stream seeded with `seed`.

    Used to derive independent sub-seeds (e.g. one per dataset image).
    """
    if index < 0:
        raise ValueError(f"sub-seed index must be >= 0, got {index}")
    return _mix((seed + (index + 1) * _GAMMA) & _MASK)


class SplitMix64:
    """Sequential SplitMix64 generator with float and Gaussian helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_float(self) -> float:
        # 53 high bits -> uniform in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-free modulo is fine here:
        n is always tiny relative to 2^64, so the bias is far below 2^-50."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def floats(self, n: int) -> np.ndarray:
        """Next n uniforms in [0, 1), vectorized, same sequence as
        repeated next_float()."""
        if n == 0:
            return np.zeros(0)
        out = _uniforms(np.array(self._state, dtype=np.uint64), n)
        self._state = (self._state + n * _GAMMA) & _MASK
        return out

    def normals(self, n: int) -> np.ndarray:
        """Next n standard normals, Box-Muller in stream order."""
        pairs = (n + 1) // 2
        u = self.floats(2 * pairs)
        u1 = np.maximum(u[0::2], 2.0 ** -53)
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def _uniforms(states: np.ndarray, n: int) -> np.ndarray:
    """(*states.shape, n): the next n uniforms of the stream in each state."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = states[..., np.newaxis] + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def floats_per_seed(seeds, n: int) -> np.ndarray:
    """(len(seeds), n): row k is SplitMix64(seeds[k]).floats(n), all
    streams drawn at once."""
    return _uniforms(np.array([s & _MASK for s in seeds], dtype=np.uint64), n)
