"""Transposition tests: numpy path vs reference, roundtrip, semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.transpose import (BASIS_COUNT, inverse_transpose,
                                       inverse_transpose_words, transpose,
                                       transpose_reference, transpose_words)


def test_empty_input():
    basis = transpose(b"")
    assert len(basis) == BASIS_COUNT
    assert all(b.length == 0 for b in basis)
    assert inverse_transpose(basis) == b""


def test_known_byte():
    # 'a' = 0x61 = 01100001: b0=0 b1=1 b2=1 b3..b6=0 b7=1
    basis = transpose(b"a")
    bits = [b.test(0) for b in basis]
    assert bits == [False, True, True, False, False, False, False, True]


def test_plane_semantics():
    data = bytes([0b10000000, 0b00000001, 0b11111111])
    basis = transpose(data)
    assert basis[0].positions() == [0, 2]   # MSB plane
    assert basis[7].positions() == [1, 2]   # LSB plane


def test_matches_reference_on_sample():
    data = bytes(range(256)) * 3
    fast = transpose(data)
    slow = transpose_reference(data)
    assert fast == slow


def test_roundtrip_ascii():
    data = b"The quick brown fox jumps over the lazy dog"
    assert inverse_transpose(transpose(data)) == data


@given(st.binary(max_size=512))
def test_roundtrip_property(data):
    assert inverse_transpose(transpose(data)) == data


@given(st.binary(min_size=1, max_size=128))
def test_fast_equals_reference(data):
    assert transpose(data) == transpose_reference(data)


def test_words_empty_input():
    words = transpose_words(b"")
    assert words.shape == (BASIS_COUNT, 0)
    assert words.dtype == np.dtype("<u8")
    padded = transpose_words(b"", bits=1)
    assert padded.shape == (BASIS_COUNT, 1)
    assert not padded.any()


def test_words_rejects_short_padding():
    with pytest.raises(ValueError):
        transpose_words(b"abc", bits=2)


@given(st.binary(max_size=300))
def test_words_equal_reference(data):
    words = transpose_words(data)
    reference = transpose_reference(data)
    for plane, vector in zip(words, reference):
        packed = int.from_bytes(plane.tobytes(), "little")
        mask = (1 << len(data)) - 1 if data else 0
        assert packed & mask == vector.bits
        assert packed == packed & mask  # padding bits stay zero


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=70))
def test_words_padding_is_zero(data, extra):
    bits = len(data) + extra
    words = transpose_words(data, bits=bits)
    expected_words = max(1, -(-bits // 64)) if bits else 0
    assert words.shape == (BASIS_COUNT, expected_words)
    for plane, vector in zip(words, transpose_reference(data)):
        assert int.from_bytes(plane.tobytes(), "little") == vector.bits


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=70))
def test_words_roundtrip(data, extra):
    words = transpose_words(data, bits=len(data) + extra)
    assert inverse_transpose_words(words, len(data)) == data
    assert inverse_transpose_words(list(words), len(data)) == data


def test_character_class_match_via_planes():
    # Matching 'a' by the paper's formula over basis streams.
    data = b"banana"
    b = transpose(data)
    match = ~b[0] & b[1] & b[2] & ~b[3] & ~b[4] & ~b[5] & ~b[6] & b[7]
    assert match.positions() == [1, 3, 5]
