"""The seeded normal stream of the scenarios: numpy's
``default_rng(seed).standard_normal()``, bit for bit, without ``numpy.random``.

Three steps, each a transcription of numpy's own (numpy 2.4.6):

  * ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit words
    hashed into a pool of 4 and the pool hashed out again (``hashmix``,
    ``mix``, ``generate_state``);
  * PCG64: a 128-bit linear congruential generator with the XSL-RR output,
    seeded by ``srandom(initstate, initseq)`` from those four words;
  * the 256-strip ziggurat ``random_standard_normal``, with its wedge branch
    and the tail branch of strip 0.

The ziggurat's tables ``ki``, ``wi`` and ``fi`` are read from ``ziggurat.bin``
next to this module: 256 little-endian ``uint64``, then 256 + 256 ``float64``,
as numpy's ``distributions.c`` holds them.  numpy guarantees across versions
only the bit generator's stream, not ``Generator.standard_normal``; owning the
stream keeps every seeded scenario fixed whatever numpy is installed.  The
tests hold it to ``numpy.random`` as the oracle.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct

__all__ = ["NormalStream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341

# the ziggurat's right edge r and 1/r
_ZIGGURAT_R = 3.6541528853610088
_ZIGGURAT_INV_R = 0.27366123732975828


def _seed_words(seed) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state, out_const = [], _INIT_B
    for i in range(8):  # four uint64 words, as eight 32-bit ones
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = out_const * _MULT_B & _MASK32
        value = value * out_const & _MASK32
        state.append(value ^ value >> 16)
    # each uint64 is two consecutive 32-bit words, low word first
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


@functools.cache
def _ziggurat_tables() -> tuple:
    """``(ki, wi, fi)`` as tuples of Python ints and floats."""
    with open(os.path.join(os.path.dirname(__file__), "ziggurat.bin"), "rb") as fh:
        values = struct.unpack("<256Q512d", fh.read())
    return values[:256], values[256:512], values[512:]


class NormalStream:
    """Standard normal draws, equal bit for bit to those of
    ``numpy.random.default_rng(seed).standard_normal()`` called repeatedly.

    ``seed`` is a non-negative integer of any size: a negative one raises
    ``ValueError`` and a non-integer ``TypeError``, as in numpy.
    """

    def __init__(self, seed):
        s0, s1, q0, q1 = _seed_words(seed)
        # PCG64's srandom(initstate, initseq)
        self._inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128  # one step from 0, plus initstate
        self._state = (state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._ki, self._wi, self._fi = _ziggurat_tables()

    def _next_uint64(self) -> int:
        """Step the LCG, then the XSL-RR output of the new state."""
        state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._state = state
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (-rot & 63)) & _MASK64

    def _next_double(self) -> float:
        return (self._next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def standard_normal(self) -> float:
        """The next draw of numpy's ziggurat ``random_standard_normal``."""
        ki, wi, fi = self._ki, self._wi, self._fi
        while True:
            # _next_uint64 inline, which halves the cost of a draw: most take one word
            state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
            word = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            r = (word >> rot | word << (-rot & 63)) & _MASK64
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x  # 99.3% of the draws end here
            if idx == 0:
                # the tail beyond r, from 1 - U so that the logarithm stays finite
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx
            elif (fi[idx - 1] - fi[idx]) * self._next_double() + fi[idx] < math.exp(-0.5 * x * x):
                return x
