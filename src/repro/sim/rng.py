"""Seeded uniform draws in the standard library, equal to numpy's.

The drive model's only randomness is one uniform rotational-latency
draw per non-contiguous access. :class:`PCG64` gives, for the same seed,
exactly the doubles ``numpy.random.default_rng(seed).uniform(low, high)``
returns: numpy's ``SeedSequence`` seeding (the 4-word entropy pool and
its hash mixing), the PCG64 step (128-bit LCG with the XSL-RR 128/64
output) and the 53-bit double ``(x >> 11) * 2**-53``. Every golden
series was recorded with numpy's generator, so the stream must stay
bit-identical to it; ``tests/test_rng.py`` checks it against numpy.

Only integer seeds and ``None`` are accepted. ``None`` draws 128 bits of
OS entropy, as ``SeedSequence()`` does; negative seeds raise
``ValueError`` and non-integers ``TypeError``, as numpy's do.
"""

from __future__ import annotations

import operator
import secrets
from typing import List, Optional

__all__ = ["PCG64"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.bit_generator (SeedSequence) constants.
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG_DEFAULT_MULTIPLIER_128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _entropy_words(seed: int) -> List[int]:
    """The seed as little-endian 32-bit words; 0 is one word."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed: {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _seed_pool(words: List[int]) -> List[int]:
    """SeedSequence.mix_entropy: hash the words into the 4-word pool."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    # Mix all bits together so late words can affect earlier ones.
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # Then fold in any words beyond the pool size.
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: List[int]) -> List[int]:
    """SeedSequence.generate_state(4, np.uint64): PCG64's seed words."""
    hash_const = _INIT_B
    words32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words32.append(value ^ (value >> _XSHIFT))
    # A little-endian view of the 32-bit words as 64-bit ones.
    return [words32[i] | words32[i + 1] << 32
            for i in range(0, len(words32), 2)]


class PCG64:
    """numpy's default bit generator, seeded as ``default_rng(seed)``.

    Parameters
    ----------
    seed:
        Non-negative integer, or ``None`` for fresh OS entropy.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            seed = secrets.randbits(32 * _POOL_SIZE)
        s0, s1, i0, i1 = _generate_state(_seed_pool(_entropy_words(seed)))
        initstate = s0 << 64 | s1
        initseq = i0 << 64 | i1
        # pcg_setseq_128_srandom_r.
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        state = (inc + initstate) & _MASK128
        self._state = (state * _PCG_MULT + inc) & _MASK128

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of the next output."""
        self._state = state = (self._state * _PCG_MULT
                               + self._inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) \
            * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A double in [low, high), as numpy's ``Generator.uniform``."""
        return low + (high - low) * self.random()
