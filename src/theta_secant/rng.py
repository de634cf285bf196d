"""Deterministic seeded RNG (xoshiro256**).

The generator is pinned to a documented algorithm rather than a platform
default so that seeded controls and reports reproduce bit-for-bit across
Python versions and machines.

Algorithm: xoshiro256** (Blackman & Vigna, public domain reference
implementation), seeded through splitmix64.  Doubles take the top 53 bits
of one 64-bit draw.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256:
    """xoshiro256** with splitmix64 seeding."""

    def __init__(self, seed: int):
        seed &= _MASK
        s = []
        st = seed
        for _ in range(4):
            st, v = _splitmix64(st)
            s.append(v)
        if not any(s):
            s[0] = 1
        self._s = s

    def u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via Box-Muller (fresh pair each call, no cache)."""
        u1 = self.uniform()
        while u1 <= 1e-300:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        return complex(self.normal(), self.normal())

    def complex_vector(self, g: int, scale: float = 1.0) -> list:
        return [scale * self.complex_normal() for _ in range(g)]

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def spawn(self, salt: int) -> "Xoshiro256":
        """Independent child stream derived from this stream's state."""
        return Xoshiro256(self.u64() ^ (salt * 0x9E3779B97F4A7C15 & _MASK))


def random_siegel(rng: Xoshiro256, g: int):
    """Well-conditioned random point of the Siegel upper half space.

    Re B is a mild symmetric perturbation; Im B = Q Q^T + c I keeps the
    smallest eigenvalue comfortably above 0.6 so truncation radii stay
    small in bulk test sweeps.
    """
    import numpy as np
    S = np.array([[rng.normal() for _ in range(g)] for _ in range(g)])
    S = 0.15 * (S + S.T)
    Q = np.array([[rng.normal() for _ in range(g)] for _ in range(g)])
    from .theta import PeriodMatrix, _sum_last
    Y = 0.35 * _sum_last(Q[:, None, :] * Q) + (0.8 + 0.4 * rng.uniform()) * np.eye(g)
    return PeriodMatrix(S + 1j * Y)


def random_z(rng: Xoshiro256, g: int, scale: float = 0.7):
    import numpy as np
    return np.array(rng.complex_vector(g, scale=scale))
