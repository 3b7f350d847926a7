"""Compiled outputs are read in the kernel's form.

A compiled engine never converts an output to words: it reads match
ends straight from the int (:func:`repro.backend.runtime.output_ends`),
skipping an output with no bit past the cursor slot in O(1), or from a
position list directly.  Those ends must equal the word-array reader's,
and both int readers go through one set-bit helper; the big-int
``BitVector`` reader is the independent reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backend import runtime
from repro.backend.runtime import output_ends, to_words
from repro.bitstream import npvector
from repro.bitstream.bitvector import BitVector
from repro.bitstream.npvector import NPBitVector

LENGTHS = [1, 63, 64, 65, 4097]


def word_ends(value: int, length: int):
    ends = NPBitVector(to_words(value, length), length).match_ends()
    assert ends == BitVector(value, length).match_ends()
    return ends


@pytest.mark.parametrize("length", LENGTHS)
def test_edge_values_equal_the_word_reader(length):
    top = 1 << (length - 1)
    for value in (0, 1, top, top | 1, (1 << length) - 1,
                  (1 << length) - 2):
        assert output_ends(value) == word_ends(value, length), value


@given(st.sampled_from(LENGTHS), st.data())
@settings(deadline=None, max_examples=150)
def test_random_ints_equal_the_word_reader(length, data):
    dense = data.draw(st.integers(min_value=0,
                                  max_value=(1 << length) - 1))
    positions = data.draw(st.sets(st.integers(0, length - 1),
                                  max_size=12))
    sparse = sum(1 << position for position in positions)
    for value in (dense, sparse):
        assert output_ends(value) == word_ends(value, length)


def test_outputs_without_ends_skip_the_set_bit_helper(monkeypatch):
    assert runtime.word_match_ends is npvector.word_match_ends
    calls = []

    def counted(words):
        calls.append(len(words))
        return npvector.word_match_ends(words)

    monkeypatch.setattr(runtime, "word_match_ends", counted)
    assert output_ends(0) == [] and output_ends(1) == []
    assert calls == []
    assert output_ends(0b110) == [0, 1]
    assert output_ends(1 << 200) == [199]
    assert calls == [1, 4]      # only the words up to the top set bit


def test_compiled_scan_converts_no_output_to_words(monkeypatch):
    patterns = ["ab", "c[de]+f", "xyz"]
    data = b"..ab..cdeef..ab" * 10
    expected = repro.compile(patterns).scan(data)       # simulate

    def refuse(value, length):
        raise AssertionError("an output was converted to words")

    monkeypatch.setattr(runtime, "to_words", refuse)
    assert repro.compile(patterns, backend="compiled").scan(data) \
        == expected


@pytest.mark.parametrize("length", LENGTHS)
def test_list_outputs_equal_their_ints(length):
    """A list-form output gives its ends directly and converts to the
    same words: the empty list, position 0 (the empty-match cursor, no
    end) and position ``L - 1`` (the cursor slot)."""
    stream = runtime.KernelInput.of(bytes(length - 1))
    top = 1 << (length - 1)
    for value in (0, 1, top, top | 1):
        marker = runtime.sparse(value, stream)
        assert isinstance(marker, runtime.Positions)
        assert output_ends(marker) == output_ends(value) \
            == word_ends(value, length)
        assert to_words(marker, length).tobytes() == \
            to_words(value, length).tobytes()
    assert output_ends(runtime.Positions()) == []
    assert output_ends(runtime.sparse(1, stream)) == []
    if length > 1:
        assert output_ends(runtime.sparse(top, stream)) == [length - 2]
