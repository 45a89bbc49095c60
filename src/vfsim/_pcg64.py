"""The draws of ``numpy.random.default_rng(seed).uniform``, without numpy.random.

``default_rng(seed)`` is a PCG64 generator (O'Neill 2014: a 128-bit LCG
with the XSL-RR output) seeded by ``SeedSequence(seed)``.  Both are fixed
algorithms, reproduced here bit for bit in Python integers, so a seeded run
does not load numpy.random (and, through it, OpenSSL); ``tests/
test_runner.py::TestSeededStream`` pins the draws to numpy's.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` for an int seed >= 0."""
    entropy = [seed & _MASK32]  # the seed's 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # little-endian pairs of 32-bit words
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class SeededUniform:
    """``numpy.random.default_rng(seed)``'s ``uniform(lo, hi)`` stream."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # PCG's srandom: one step from state 0 (which gives inc), add the
        # seed, one more step
        self._state = self._step((self._inc + (s_hi << 64 | s_lo)) & _MASK128)

    def _step(self, state: int) -> int:
        return (state * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, lo: float, hi: float) -> float:
        self._state = state = self._step(self._state)
        word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        x = (word >> rot | word << (64 - rot)) & _MASK64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)
