"""Tests for analysis utilities: Wagner–Fischer, bits, thresholds, stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.bits import (
    MESSAGE_PATTERNS,
    alternating_bits,
    bits_to_string,
    constant_bits,
    pack_chunks,
    random_bits,
    string_to_bits,
    unpack_chunks,
)
from repro.analysis.stats import separation, summarize
from repro.analysis.threshold import calibrate_threshold
from repro.analysis.wagner_fischer import edit_distance, error_rate
from repro.errors import ChannelError, MeasurementError


#: Lists of bits and short strings; either may be empty.
sequences = st.one_of(
    st.lists(st.integers(0, 1), max_size=24), st.text(alphabet="abc", max_size=24)
)


def full_table_levenshtein(a, b) -> int:
    """The textbook dynamic program over the whole (n+1) x (m+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
    return table[len(a)][len(b)]


def two_row_levenshtein(sent, received) -> int:
    """Wagner–Fischer with a two-row table (the library's former
    implementation)."""
    n, m = len(sent), len(received)
    if n == 0:
        return m
    if m == 0:
        return n
    previous = list(range(m + 1))
    for i, sent_item in enumerate(sent, 1):
        current = [i]
        left = i
        for j, received_item in enumerate(received):
            best = previous[j] + (0 if sent_item == received_item else 1)
            if previous[j + 1] + 1 < best:
                best = previous[j + 1] + 1
            if left + 1 < best:
                best = left + 1
            current.append(best)
            left = best
        previous = current
    return previous[m]


#: Bit lists and strings past one 64-bit word, of independent lengths,
#: so pairs are often unequal in length and sometimes empty.
long_sequences = st.one_of(
    st.lists(st.integers(0, 1), max_size=80),
    st.text(alphabet="01", max_size=80),
    st.text(alphabet="abcd", max_size=80),
)


class TestWagnerFischer:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("101", "101", 0),
            ("101", "100", 1),
            ("kitten", "sitting", 3),
            ("0101", "1010", 2),  # one deletion + one insertion
            ("111", "", 3),
            ("", "01", 2),
            ("10", "0110", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_works_on_lists(self):
        assert edit_distance([1, 0, 1], [1, 1, 1]) == 1

    def test_error_rate_normalised(self):
        assert error_rate([1, 0, 1, 0], [1, 0, 1, 1]) == pytest.approx(0.25)
        assert error_rate([], []) == 0.0
        assert error_rate([1], [1, 1, 1]) == 2.0  # can exceed 1

    def test_symmetry(self):
        assert edit_distance("abc", "yabd") == edit_distance("yabd", "abc")

    @given(sequences, sequences)
    @example("", "")
    @example([], [1, 0])
    @example("01", [])
    def test_matches_full_table_levenshtein(self, a, b):
        distance = edit_distance(a, b)
        assert type(distance) is int
        assert distance == full_table_levenshtein(a, b)

    @given(long_sequences, long_sequences)
    @example([], [])
    @example([1] * 64, [])
    @example([], "0" * 65)
    @example([0, 1] * 32, [1, 0] * 33)
    @example("a" * 70, "b" * 3)
    def test_matches_two_row_levenshtein(self, a, b):
        """The bit-parallel column update equals the two-row table,
        including across the 64-element word boundary."""
        assert edit_distance(a, b) == two_row_levenshtein(a, b)


class TestBits:
    def test_roundtrip_string(self):
        assert string_to_bits(bits_to_string([1, 0, 1])) == [1, 0, 1]

    def test_string_validation(self):
        with pytest.raises(ChannelError):
            string_to_bits("10x")

    def test_alternating(self):
        assert alternating_bits(5) == [0, 1, 0, 1, 0]
        assert alternating_bits(3, start=1) == [1, 0, 1]

    def test_constant(self):
        assert constant_bits(3, 1) == [1, 1, 1]
        with pytest.raises(ChannelError):
            constant_bits(3, 2)

    def test_random_deterministic(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        assert random_bits(32, rng1) == random_bits(32, rng2)

    def test_pack_unpack_roundtrip(self):
        data = b"Hello, frontend!"
        chunks = pack_chunks(data, 5)
        assert all(0 <= c < 32 for c in chunks)
        assert unpack_chunks(chunks, len(data), 5) == data

    def test_pack_byte_chunks(self):
        assert pack_chunks(b"\xab", 8) == [0xAB]

    def test_unpack_validates_range(self):
        with pytest.raises(ChannelError):
            unpack_chunks([32], 1, 5)

    def test_pack_validates_width(self):
        with pytest.raises(ChannelError):
            pack_chunks(b"x", 0)

    def test_message_patterns(self):
        patterns = MESSAGE_PATTERNS(8, np.random.default_rng(0))
        assert set(patterns) == {"all_zeros", "all_ones", "alternating", "random"}
        assert patterns["all_zeros"] == [0] * 8
        assert patterns["alternating"] == [0, 1, 0, 1, 0, 1, 0, 1]


class TestThreshold:
    def test_basic_calibration(self):
        decoder = calibrate_threshold([100.0, 110.0], [200.0, 210.0])
        assert decoder.one_is_high
        assert 110 < decoder.threshold < 200
        assert decoder.decide(150.0) == 0
        assert decoder.decide(205.0) == 1

    def test_inverted_polarity(self):
        decoder = calibrate_threshold([200.0], [100.0])
        assert not decoder.one_is_high
        assert decoder.decide(90.0) == 1
        assert decoder.decide(210.0) == 0

    def test_robust_to_outlier(self):
        """A single spike must not flip the polarity (median centres)."""
        zeros = [100.0] * 7 + [10_000.0]
        ones = [300.0] * 8
        decoder = calibrate_threshold(zeros, ones)
        assert decoder.one_is_high

    def test_mean_mode_not_robust(self):
        zeros = [100.0] * 7 + [10_000.0]
        ones = [300.0] * 8
        decoder = calibrate_threshold(zeros, ones, robust=False)
        assert not decoder.one_is_high  # documents the failure mode

    def test_decide_many(self):
        decoder = calibrate_threshold([0.0], [10.0])
        assert decoder.decide_many([1.0, 9.0]) == [0, 1]

    def test_margins(self):
        decoder = calibrate_threshold([100.0], [150.0])
        assert decoder.margin == pytest.approx(50.0)
        assert decoder.relative_margin == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ChannelError):
            calibrate_threshold([], [1.0])
        with pytest.raises(ChannelError):
            calibrate_threshold([1.0], [1.0])
        with pytest.raises(ChannelError):
            calibrate_threshold([1.0], [2.0], position=1.5)


class TestStats:
    def test_summary(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.median == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            summarize([])

    def test_separation(self):
        far = separation([0.0, 0.1], [10.0, 10.1])
        near = separation([0.0, 1.0], [0.5, 1.5])
        assert far > near

    def test_separation_noiseless(self):
        assert separation([1.0, 1.0], [2.0, 2.0]) == float("inf")
        assert separation([1.0], [1.0]) == 0.0
