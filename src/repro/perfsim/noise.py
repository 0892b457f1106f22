"""Exact batched draws of NumPy's default generator.

The simulator's measurement noise is one ``np.random.default_rng(seed)
.standard_normal()`` per (workload, placement, repetition) key, and
building that generator — ``SeedSequence(seed)`` mixing the seed into
its pool and deriving PCG64's 256-bit state — costs far more than the
draw.  That derivation is a fixed, documented 32-bit integer hash
(NumPy's ``bit_generator.pyx``: ``hashmix`` / ``mix`` over a pool of
four words, then ``generate_state``), so :func:`standard_normals` runs it
for a whole batch of seeds at once: one 64-bit lane per seed inside a
single Python int, each 32-bit operation of the hash one integer
operation over every lane.  Each row's four state words then seed a
PCG64 directly (through :class:`_StateWords`, a seed sequence that hands
them over), which draws the same normal ``default_rng(seed)`` would, bit
for bit.

A lane holds one 32-bit value; a product of two of them needs all 64
bits, which is why a product is reduced (``& mask``) before a shift or a
sum could carry it into the neighbouring lane.  A batch longer than
:data:`_MAX_LANES` runs in passes of that many lanes.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: ``-MIX_MULT_R`` mod 2^32: ``mix`` subtracts, and a borrow would cross
#: lanes, so it adds the complement instead.
_MIX_MULT_R_NEG = (1 << 32) - _MIX_MULT_R
_POOL_SIZE = 4
#: One seed word mixes into a pool of four: every ordered pair of pool
#: words, in SeedSequence's loop order.
_MIX_PAIRS = tuple(
    (src, dst)
    for src in range(_POOL_SIZE)
    for dst in range(_POOL_SIZE)
    if src != dst
)


def _hash_constants(init: int, mult: int, count: int) -> List[Tuple[int, int]]:
    """``hashmix``'s running constant: per call, the value it XORs in and
    the value it multiplies by (the next one)."""
    steps = []
    for _ in range(count):
        following = init * mult & _MASK32
        steps.append((init, following))
        init = following
    return steps


def _hashmix(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


#: Pool-entropy hashes, then one per mixing pair.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + len(_MIX_PAIRS))
#: ``generate_state(4, uint64)``: eight 32-bit output words.
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
#: A one-word seed leaves pool words 1-3 as hashes of zero: constants.
_POOL_START = tuple(_hashmix(0, *_HASH_A[k]) for k in range(1, _POOL_SIZE))


#: Lanes per pass: a longer batch (a training grid) runs in passes of this
#: many seeds, so the constants kept per lane count stay a few kilobytes
#: each, and few.
_MAX_LANES = 64


@lru_cache(maxsize=_MAX_LANES)
def _program(rows: int) -> Tuple:
    """The hash's constants replicated over ``rows`` lanes: a pure
    function of the lane count, kept for every count up to
    :data:`_MAX_LANES`."""
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * rows, "little")
    xor0, mult0 = _HASH_A[0]
    return (
        # One seed per 64-bit lane; "I" refuses a value outside 32 bits.
        struct.Struct("<" + "I4x" * rows),
        _MASK32 * ones,
        xor0 * ones,
        mult0,
        [0] + [word * ones for word in _POOL_START],
        tuple(
            (src, dst, xor * ones, mult)
            for (src, dst), (xor, mult) in zip(
                _MIX_PAIRS, _HASH_A[_POOL_SIZE:]
            )
        ),
        tuple(
            (k % _POOL_SIZE, xor * ones, mult, 32 * (k % 2) + 64 * rows * (k // 2))
            for k, (xor, mult) in enumerate(_HASH_B)
        ),
    )


def seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every integer
    seed, as the rows of one C-contiguous ``(len(seeds), 4)`` array."""
    rows = len(seeds)
    if rows > _MAX_LANES:
        return np.concatenate(
            [
                seed_states(seeds[start : start + _MAX_LANES])
                for start in range(0, rows, _MAX_LANES)
            ]
        )
    lanes, mask, xor0, mult0, start, mixing, output = _program(rows)
    try:
        packed = lanes.pack(*seeds)
    except struct.error:
        raise ValueError("seeds must lie in [0, 2**32)") from None
    value = (int.from_bytes(packed, "little") ^ xor0) * mult0 & mask
    pool = list(start)
    pool[0] = (value ^ value >> 16) & mask
    for src, dst, xor, mult in mixing:
        value = (pool[src] ^ xor) * mult & mask
        value = ((value ^ value >> 16) & mask) * _MIX_MULT_R_NEG & mask
        # Unreduced: MIX_MULT_L < 0.8 * 2^32, so this product plus a
        # 32-bit value still fits its lane.
        value = (pool[dst] * _MIX_MULT_L + value) & mask
        pool[dst] = (value ^ value >> 16) & mask
    # Output word k lands in bits [32 * (k % 2), ...) of lane-block k // 2:
    # four blocks of 64-bit lanes, one per state word.
    state = 0
    for src, xor, mult, shift in output:
        value = (pool[src] ^ xor) * mult & mask
        state |= ((value ^ value >> 16) & mask) << shift
    words = np.frombuffer(state.to_bytes(32 * rows, "little"), "<u8")
    return words.reshape(_POOL_SIZE, rows).T.astype(np.uint64, order="C")


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 four state words already derived."""

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: np.ndarray | None = None

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def standard_normals(seeds: Sequence[int]) -> List[float]:
    """``np.random.default_rng(seed).standard_normal()`` for each seed in
    ``[0, 2**32)``, bit for bit, in one pass over the batch."""
    sequence = _StateWords()
    normals = []
    for words in seed_states(seeds):
        sequence.words = words
        normals.append(Generator(PCG64(sequence)).standard_normal())
    return normals


__all__ = ["seed_states", "standard_normals"]
