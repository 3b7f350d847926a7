"""List-form markers mirror the int operators.

A compiled kernel applies the same inline expressions to a marker
whatever its form, so every operator a :class:`Positions` list carries
must give the marker an int op would: the same value, with no position
at or past the stream end.  Class operands are read through their
truth-table keys, other ints bit by bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import runtime
from repro.backend.runtime import KernelInput, Positions, dense, sparse


def _class_entry(key: int, data: bytes) -> int:
    """The class stream of truth-table ``key`` over ``data``: bit ``q``
    is the key's bit at byte ``q``, bit ``len(data)`` its cursor bit."""
    codes = list(data) + [runtime.CURSOR]
    return sum(1 << q for q, code in enumerate(codes) if key >> code & 1)


def lists_everywhere(patch) -> None:
    """Any stream is long enough for lists and class keys."""
    patch.setattr(runtime, "SPARSE_MIN_LENGTH", 0)


@st.composite
def cases(draw):
    data = draw(st.binary(max_size=80))
    length = len(data) + 1
    marker = st.integers(min_value=0, max_value=(1 << length) - 1)
    keys = draw(st.lists(st.integers(min_value=0,
                                     max_value=(1 << 257) - 1),
                         min_size=3, max_size=3))
    return data, draw(marker), draw(marker), keys


@settings(max_examples=150, deadline=None)
@given(cases())
def test_operators_equal_the_int_ops(case):
    with pytest.MonkeyPatch.context() as patch:
        lists_everywhere(patch)
        _check_operators(*case)


def _check_operators(data, a, b, keys):
    stream = KernelInput.of(data)
    length = stream.length
    ones = stream.ones
    entries = tuple(_class_entry(key, data) for key in keys)
    stream.note_classes(keys, entries)
    cls = entries[0]
    la, lb = sparse(a, stream), sparse(b, stream)
    assert dense(la) == a and list(la) == sorted(la)

    def same(marker, value):
        assert dense(marker) == value
        if isinstance(marker, Positions):
            assert all(0 <= p < length for p in marker)

    for shift in (1, 2, length):
        advanced = la << shift
        assert not advanced > ones      # the kernels' mask test
        same(advanced, (a << shift) & ones)
        same(la >> shift, a >> shift)
    same(la & cls, a & cls)
    same(cls & la, a & cls)
    same(la & b, a & b)
    same(b & la, a & b)
    same(la & lb, a & b)
    same(la | lb, a | b)
    same(la | b, a | b)
    same(b | la, a | b)
    same(la ^ lb, a ^ b)
    same(la ^ b, a ^ b)
    same(la ^ ones, a ^ ones)                   # NOT
    assert la | 0 is la and 0 ^ la is la        # 0 keeps the list
    same(la ^ (la & lb), a ^ (a & b))           # ANDN, both lists
    same(la ^ (la & cls), a ^ (a & cls))        # ANDN with a class
    same(b ^ (b & la), b ^ (b & a))             # ANDN of an int by a list

    def int_steps(value):
        for entry in entries:
            value = value << 1 & entry
        return value

    for marker in (a, la, cls):
        same(runtime.steps(marker, stream, entries), int_steps(dense(marker)))


def test_long_merges_become_ints_again(monkeypatch):
    lists_everywhere(monkeypatch)
    stream = KernelInput.of(bytes(4 * runtime.SPARSE_DENSIFY_BITS))
    evens = sparse(sum(1 << p for p in range(0, 4 * 256, 4)), stream)
    odds = sparse(sum(1 << p for p in range(2, 4 * 256, 4)), stream)
    assert isinstance(evens, Positions) and isinstance(odds, Positions)
    merged = evens | odds
    assert isinstance(merged, int)
    assert merged == dense(evens) | dense(odds)


def test_run_memo_holds_no_more_ints_than_class_entries(monkeypatch):
    """Runs from class entries share their int steps through
    ``stream.runs``, but it never holds more stream-sized ints than the
    input has class entries (here no marker switches, so every step
    result is an int)."""
    lists_everywhere(monkeypatch)
    monkeypatch.setattr(runtime, "SPARSE_MAX_BITS", 0)
    data = bytes(range(256)) * 4
    keys = [(1 << 257) - 1 - (1 << k) for k in range(4)]
    entries = tuple(_class_entry(key, data) for key in keys)
    stream = KernelInput.of(data)
    stream.note_classes(keys, entries)
    for first in entries:
        for second in entries:
            for third in entries:
                classes = (second, third, first)
                value = first
                for entry in classes:
                    value = value << 1 & entry
                assert runtime.steps(first, stream, classes) == value
    ints = [v for v in stream.runs.values() if v.__class__ is int]
    assert 0 < len(ints) <= len(entries)
