"""Seeded draws without ``numpy.random``.

``Stream(seed)`` reproduces ``np.random.default_rng(seed)`` bit for bit in
``random()`` and ``uniform(low, high, size)``: the seed is hashed into a
pool as NumPy's ``SeedSequence`` does, the pool seeds a PCG64 generator
(128-bit LCG, XSL-RR output), and each double is ``(word >> 11) * 2**-53``.
``standard_normal`` is not NumPy's ziggurat: each normal is the
Box-Muller transform of two uniform draws, so it always takes two words.
Importing ``numpy.random`` would load OpenSSL (through ``secrets``) into
every process that draws, which is what this module avoids.
"""
from __future__ import annotations

import math
import operator

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The 4 uint64 words of ``SeedSequence(seed).generate_state(4, uint64)``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # SeedSequence: hash the seed's 32-bit words into a pool of 4 words,
    # mix the pool, then hash 8 output words out of it
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    h = 0x43B0D7E5

    def hashmix(value):
        nonlocal h
        value ^= h
        h = (h * 0x931E8875) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = (h * 0x58F38DED) & _M32
        value = (value * h) & _M32
        out.append(value ^ (value >> 16))
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _count(size) -> int:
    return math.prod(size) if isinstance(size, tuple) else operator.index(size)


class Stream:
    """Seeded PCG64 draws; the names and shapes follow ``numpy.random.Generator``."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # NumPy's srandom: one step from 0 gives inc; add the seed, step again
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128

    def _words(self, count: int) -> list[int]:
        """The next ``count`` outputs, each shifted right by 11 to 53 bits."""
        state, inc, mult, out = self._state, self._inc, _PCG_MULT, []
        append = out.append
        for _ in range(count):
            state = (state * mult + inc) & _M128
            x, rot = ((state >> 64) ^ state) & _M64, state >> 122
            append(((x >> rot | x << 64 - rot) & _M64) >> 11)
        self._state = state
        return out

    def random(self) -> float:
        return self._words(1)[0] * 2.0**-53

    def uniform(self, low, high, size) -> np.ndarray:
        u = np.array(self._words(_count(size)), float) * 2.0**-53
        return low + np.subtract(high, low) * u.reshape(size)

    def standard_normal(self, size) -> np.ndarray:
        # math's functions on scalars: NumPy's tiny-array overhead would
        # cost more than the transform, and they follow no SIMD dispatch
        w = self._words(2 * _count(size))
        z = [math.sqrt(-2.0 * math.log1p(-a * 2.0**-53))
             * math.cos(math.tau * (b * 2.0**-53)) for a, b in zip(w[::2], w[1::2])]
        return np.array(z).reshape(size)
