"""Deterministic, platform-independent random number generation.

A small splitmix64 core drives every stochastic choice in the project so that
runs are bit-reproducible across machines. Generators are built from seeds
derived statelessly from (run seed, epoch, item), so no generator state needs
saving. numpy's generators are deliberately not used for anything that
affects training outcomes.

splitmix64 is counter-based: draw k of a generator in state s mixes
s + (k + 1)·GOLDEN. `Rng.uniforms` and `Rng.normals` therefore draw a whole
block from one uint64 array expression (`_mix_block`) and advance the state
by the block length, returning exactly the values, in the same order, that
one-at-a-time draws would. Box-Muller in `normals` calls libm's log, sin and
cos through `math` once per element: numpy's SIMD versions of those can
differ from libm in the last bit, which would change every model
initialisation. Its square root may be vectorised, because IEEE sqrt is
correctly rounded everywhere.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _mix_block(state: int, count: int) -> np.ndarray:
    """The outputs of the next `count` splitmix64 draws from `state`, as
    uint64. Array arithmetic wraps mod 2^64 like the masked scalar code."""
    z = np.uint64(state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        u = (self.next_u64() >> 11) * _UNIT
        return low + (high - low) * u

    def uniforms(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """`count` float64 draws in [low, high), equal to as many `uniform` calls."""
        z = _mix_block(self._state, count)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return low + (high - low) * ((z >> np.uint64(11)).astype(np.float64) * _UNIT)

    def randint(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive, via rejection-free modulo on 64 bits."""
        if high < low:
            raise ValueError(f"randint: empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def normals(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """`count` float64 normal draws by Box-Muller.

        Each pair of uniforms (u1, u2) yields r·cos θ, then r·sin θ; a pair's
        second value left over at the end is kept and returned first by the
        next call.
        """
        out = np.empty(count)
        head = 0
        if count and self._spare_normal is not None:
            out[0] = mean + std * self._spare_normal
            self._spare_normal = None
            head = 1
        u = self.uniforms(2 * ((count - head + 1) // 2))
        # u1 strictly positive
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64)
        theta = (2.0 * math.pi * u[1::2]).tolist()
        r = np.sqrt(-2.0 * log_u1)
        out[head::2] = mean + std * r * np.fromiter(map(math.cos, theta), np.float64)
        z = r * np.fromiter(map(math.sin, theta), np.float64)
        n_seconds = (count - head) // 2
        out[head + 1::2] = mean + std * z[:n_seconds]
        if len(z) > n_seconds:
            self._spare_normal = float(z[-1])
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
