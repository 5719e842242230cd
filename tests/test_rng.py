import numpy as np
import pytest

from maxcsp.rng import (
    assignment_bits,
    enumeration_lanes,
    pack_lanes,
    random_words,
    unpack_bits,
)


def test_pure_function_of_seed_and_index():
    a = assignment_bits(123, 0, 50, 10)
    b = assignment_bits(123, 0, 50, 10)
    assert np.array_equal(a, b)


def test_chunking_invariance():
    whole = assignment_bits(7, 0, 100, 13)
    parts = np.vstack(
        [assignment_bits(7, 0, 33, 13), assignment_bits(7, 33, 40, 13), assignment_bits(7, 73, 27, 13)]
    )
    assert np.array_equal(whole, parts)


def test_seed_sensitivity():
    a = assignment_bits(1, 0, 64, 16)
    b = assignment_bits(2, 0, 64, 16)
    assert not np.array_equal(a, b)


def test_wide_assignments_use_multiple_words():
    bits = assignment_bits(9, 0, 8, 130)
    assert bits.shape == (8, 130)
    assert set(np.unique(bits)) <= {0, 1}
    # upper variables must not mirror the first 64
    assert not np.array_equal(bits[:, :64], bits[:, 64:128])
    # every variable has a word of its own: variable v of sample s is
    # bit s % 64 of the word with counter (s // 64) * 130 + v
    words = random_words(9, 0, 1, 130)
    for i in range(8):
        for v in range(130):
            assert bits[i, v] == (int(words[0, v]) >> i) & 1


def test_rough_bit_balance():
    bits = assignment_bits(2024, 0, 20000, 16)
    mean = bits.mean()
    assert 0.48 < mean < 0.52


def test_words_shape_and_determinism():
    w = random_words(5, 10, 4, 3)
    assert w.shape == (4, 3)
    assert w.dtype == np.uint64
    again = random_words(5, 12, 2, 3)
    assert np.array_equal(w[2:], again)


def _splitmix64(seed: int, counter: int) -> int:
    """Reference in Python integers: finalize(seed + (counter + 1) * GAMMA) mod 2**64."""
    mask = (1 << 64) - 1
    x = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def test_splitmix64_reference_first_output():
    # the published first output of SplitMix64 from state 0
    assert _splitmix64(0, 0) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**63])
def test_random_words_match_reference(seed, start):
    # at start 2**63 with 3 words per item the counters pass 2**64 and wrap
    for per_item in (1, 3, 16):
        for count in (1, 5):
            expected = [
                [_splitmix64(seed, (start + i) * per_item + w) for w in range(per_item)]
                for i in range(count)
            ]
            assert random_words(seed, start, count, per_item).tolist() == expected


@pytest.mark.parametrize("n", [1, 12, 63, 64, 65, 130])
def test_assignment_bits_decode_item_words_in_fortran_order(n):
    # an item is a block of 64 samples with one word per variable: variable
    # v of sample s is bit s % 64 of the word with counter (s // 64) * n + v.
    # 100 and 2**63 + 37 start inside a block; at 2**63 + 37 and n = 130 the
    # counters pass 2**64 and wrap
    assert ((2**63 + 37) // 64) * 130 >= 2**64
    for start in (0, 100, 2**63 + 37):
        first, skip = divmod(start, 64)
        # 296 blocks hold the largest count from any of these starts
        words = np.array(
            [[_splitmix64(5, (first + b) * n + v) for v in range(n)] for b in range(296)],
            np.uint64,
        )
        # 18,863 is the desk-scale solve_ksat budget
        for count in (0, 1, 63, 64, 65, 18_863):
            bits = assignment_bits(5, start, count, n)
            assert bits.shape == (count, n) and bits.dtype == np.uint8
            assert bits.flags.f_contiguous
            offset = skip + np.arange(count)
            shift = (offset % 64).astype(np.uint64)[:, None]
            expected = (words[offset // 64] >> shift) & np.uint64(1)
            assert np.array_equal(bits, expected), (start, count)


def _assert_lanes(lanes, bits):
    """Bit i of lane word (v, b) is variable v of row 64b + i; rows past the end read as 0."""
    count, n = bits.shape
    blocks = (count + 63) // 64
    assert lanes.shape == (n, blocks) and lanes.dtype == np.uint64
    padded = np.zeros((64 * blocks, n), np.uint64)
    padded[:count] = bits
    for i in range(64):
        assert np.array_equal((lanes >> np.uint64(i)) & np.uint64(1), padded[i::64].T)


@pytest.mark.parametrize("n", [1, 12, 63, 64, 65, 130])
def test_lane_words_transpose_unpacked_bits(n):
    for count in (1, 63, 64, 65, 18_863):
        bits = unpack_bits(random_words(5, 100, count, (n + 63) // 64), n)
        lanes = pack_lanes(np.asfortranarray(bits))
        _assert_lanes(lanes, bits)
        # pack_lanes packs a bit matrix into the same lanes, whatever its layout
        for layout in (
            np.ascontiguousarray(bits),
            np.asfortranarray(bits, dtype=np.int64),
            bits.astype(bool),
        ):
            assert np.array_equal(pack_lanes(layout), lanes)
        _assert_lanes(pack_lanes(np.asfortranarray(bits)[::2]), bits[::2])


@pytest.mark.parametrize("n", [1, 5, 6, 7, 20])
def test_enumeration_lanes_closed_form(n):
    # the lanes of consecutive packed values, as the oracle enumerates them
    for start in (0, 65_536):
        for count in (1, 37, 64, 100, 65_536):
            z = np.arange(start, start + count, dtype=np.uint64)[:, None]
            lanes = enumeration_lanes(start, count, n)
            assert np.array_equal(lanes, pack_lanes(unpack_bits(z, n))), (start, count)
