"""Counter-based random bits: word (seed, index) -> value, no stream state.

SplitMix64: the value at counter c is finalize(seed + (c+1)*GAMMA). Every
output is a pure function of (seed, counter), so disjoint index ranges can
be generated independently, in any order, with identical results.

The bits are drawn lane-major, in the bit-sliced layout of the evaluation
kernel: lane word (v, b) holds variable v (0-based) of samples
64b..64b+63, sample 64b+i at bit i, so one word operation evaluates a
constraint on 64 samples at once. Its counter is b*n + v, so a block of 64
samples is one item of n consecutive words. ``unpack_bits`` is the only
decoder of packed words, least significant bit first. ``assignment_bits``
decodes the lanes, so its matrix is variable-major (Fortran order), and
``pack_lanes`` packs such a matrix back into lanes with one ``np.packbits``
along the sample axis. ``enumeration_lanes`` gives the lanes of the
consecutive values start, start+1, ... in closed form, for the exhaustive
enumeration.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
# lane word of variable v < 6 for the 64 consecutive values of any block
_LOW_LANES = np.array(
    [
        0xAAAAAAAAAAAAAAAA,
        0xCCCCCCCCCCCCCCCC,
        0xF0F0F0F0F0F0F0F0,
        0xFF00FF00FF00FF00,
        0xFFFF0000FFFF0000,
        0xFFFFFFFF00000000,
    ],
    np.uint64,
)


def random_words(seed: int, start: int, count: int, words_per_item: int) -> np.ndarray:
    """(count, words_per_item) uint64 block for item indices [start, start+count).

    Word w of item i has counter i * words_per_item + w, taken modulo 2**64,
    so an item's words are consecutive counters. An item may be one sample,
    or a block of 64 samples whose words are its lanes (``assignment_bits``).
    """
    x = np.arange(count * words_per_item, dtype=np.uint64)
    x += np.uint64((start * words_per_item + 1) & _MASK64)
    x *= _GAMMA
    x += np.uint64(seed & _MASK64)
    # the SplitMix64 finalizer, in place, with one scratch buffer
    t = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x.reshape(count, words_per_item)


def unpack_bits(words: np.ndarray, num_vars: int) -> np.ndarray:
    """(rows, num_vars) uint8 0/1 matrix from (rows, words) packed uint64 values."""
    return np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), axis=1, count=num_vars, bitorder="little"
    )


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """(num_vars, ceil(rows / 64)) lane words of a (rows, num_vars) 0/1 matrix.

    In Fortran order each variable's column is contiguous, so one
    ``np.packbits`` along the sample axis yields the lanes' bytes, which
    are the lanes themselves when the rows fill whole words. A matrix in
    any other layout is copied into Fortran order first.
    """
    rows, num_vars = bits.shape
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    if rows % 64:
        # the last word's bits past the rows read as 0
        lanes = np.zeros((num_vars, 8 * ((rows + 63) // 64)), np.uint8)
        lanes[:, : packed.shape[1]] = packed
        packed = lanes
    return packed.view("<u8")


def enumeration_lanes(start: int, count: int, num_vars: int) -> np.ndarray:
    """Lane words of the packed values start..start+count-1, for start a multiple of 64.

    Below bit 6 each variable repeats a fixed pattern in every lane word;
    variable v >= 6 is constant over a word, set by bit v - 6 of its block
    index (start // 64 + b).
    """
    blocks = np.arange(start // 64, (start + count + 63) // 64, dtype=np.uint64)
    lanes = np.empty((num_vars, len(blocks)), np.uint64)
    lanes[:6] = _LOW_LANES[:num_vars, None]
    if num_vars > 6:
        high = np.arange(num_vars - 6, dtype=np.uint64)[:, None]
        lanes[6:] = (blocks >> high) & np.uint64(1)
        lanes[6:] *= np.uint64(_MASK64)
    if count % 64:
        # values past the end read as 0
        lanes[:, -1] &= np.uint64((1 << count % 64) - 1)
    return lanes


def assignment_bits(seed: int, start: int, count: int, num_vars: int) -> np.ndarray:
    """(count, num_vars) uint8 matrix of uniform assignment bits, in Fortran order.

    Row i holds the assignment for iteration index start+i; it depends only
    on (seed, start+i), never on the batch boundaries. Variable v of sample
    s is bit s % 64 of the random word with counter (s // 64) * num_vars + v,
    the lane word (v, s // 64). The lanes are decoded along the sample axis,
    so each variable's column is contiguous; a start that is not a multiple
    of 64 takes one more copy of the matrix.
    """
    first = start // 64
    words = random_words(seed, first, (start + count + 63) // 64 - first, num_vars)
    skip = start - 64 * first
    bits = unpack_bits(np.ascontiguousarray(words.T), skip + count).T
    return np.asfortranarray(bits[skip:]) if skip else bits
