"""Deterministic, platform-independent random number generation.

A small splitmix64 core drives every stochastic choice in the project so that
runs are bit-reproducible across machines. Generators are built from seeds
derived statelessly from (run seed, epoch, item), so no generator state needs
saving. numpy's generators are deliberately not used for anything that
affects training outcomes.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(base: int, *indices: int) -> int:
    """Mix a base seed with stream indices (epoch, item, ...) into a new seed.

    Pure function: batch workers can construct their own generators without
    sharing state.
    """
    s = base & _MASK64
    for idx in indices:
        s, z = _splitmix64(s ^ ((idx + 1) * _GOLDEN & _MASK64))
        s = z
    return s


class Rng:
    """splitmix64-backed generator with the few distributions we need."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1)
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return low + (high - low) * u

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, via rejection-free modulo on 64 bits."""
        if high < low:
            raise ValueError(f"randint: empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mean + std * z
        # Box-Muller; u1 strictly positive
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + std * r * math.cos(2.0 * math.pi * u2)

    def normals(self, count: int, mean: float = 0.0, std: float = 1.0) -> list[float]:
        return [self.normal(mean, std) for _ in range(count)]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


def uniform_field(seed: int, shape: tuple[int, ...],
                  low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Vectorized splitmix64 draw: a deterministic uniform array in [low, high).

    Counter-based (element i mixes seed and i), so output depends only on
    (seed, shape) regardless of call order. uint64 arithmetic wraps mod 2^64.
    """
    n = int(np.prod(shape)) if shape else 1
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed) + (idx + np.uint64(1)) * np.uint64(_GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return (low + (high - low) * u).reshape(shape)
