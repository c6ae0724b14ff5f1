"""numpy's ``default_rng(seed)`` in pure Python, bit for bit, for the draws verify makes.

PCG64 is O'Neill's XSL-RR 128/64 generator ("PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014), seeded through numpy's ``SeedSequence``. Drawing from it keeps numpy's
random module, and the OpenSSL library that its import maps, out of the
process, and keeps the draws independent of the installed numpy's version.
It has a module of its own: compiled as part of ``verification`` it raised
the import peak of every CLI process that runs without a bytecode cache by
about 0.17 MB.
"""
from __future__ import annotations

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(h: int, mult: int):
    """numpy's ``hashmix``: each call xors in the constant, steps it, multiplies and folds."""
    def hashmix(v: int) -> int:
        nonlocal h
        v, h = v ^ h, h * mult & M32
        v = v * h & M32
        return v ^ v >> 16
    return hashmix


def _seed_words(seed: int) -> tuple[int, int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads it, two 128-bit
    words, high halves first: the seed's 32-bit words mixed into a pool of four, hashed out."""
    entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    mix_in, mix_out = _hasher(0x43B0D7E5, 0x931E8875), _hasher(0x8B51F9DD, 0x58F38DED)
    pool = [mix_in(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(max(4, len(entropy))):  # each pool word into the others, then the extra words
        for dst in range(4):
            if dst != src:
                r = 0xCA01F9DD * pool[dst] - 0x4973F715 * mix_in(pool[src] if src < 4 else entropy[src]) & M32
                pool[dst] = r ^ r >> 16
    w = [mix_out(pool[k % 4]) | mix_out(pool[(k + 1) % 4]) << 32 for k in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class Pcg64:
    """The stream of ``default_rng(seed)``: ``random(shape)``, a scalar ``integers(lo, hi)`` and its
    state as the tuple (state, inc, has_uint32, uinteger) of numpy's PCG64 fields."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        initstate, initseq = _seed_words(seed)
        self.inc = initseq << 1 & M128 | 1
        self.s = (self.inc + initstate) * self.MULT + self.inc & M128
        self.has_uint32 = self.uinteger = 0

    def getstate(self) -> tuple:
        return self.s, self.inc, self.has_uint32, self.uinteger

    def setstate(self, state: tuple):
        self.s, self.inc, self.has_uint32, self.uinteger = state

    def _next64(self) -> int:
        self.s = self.s * self.MULT + self.inc & M128
        x, rot = (self.s >> 64 ^ self.s) & M64, self.s >> 122
        return (x >> rot | x << 64 - rot) & M64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit output; its high half is kept for the next call."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        x = self._next64()
        self.has_uint32, self.uinteger = 1, x >> 32
        return x & M32

    def random(self, shape) -> np.ndarray:
        out = np.empty(shape)
        out.flat = [(self._next64() >> 11) * 2.0 ** -53 for _ in range(out.size)]
        return out

    def integers(self, lo: int, hi: int) -> int:
        """A draw from [lo, hi) by Lemire's method on 32-bit words, for hi - lo <= 2**32."""
        width = hi - lo
        if width == 1:
            return lo
        m = self._next32() * width
        while m & M32 < (1 << 32) % width:  # rejects exactly the draws numpy rejects
            m = self._next32() * width
        return lo + (m >> 32)
