"""Runtime support for compiled bitstream kernels.

Generated kernels (see :mod:`repro.backend.codegen`) run over markers
in one of two forms:

* an int, whose bit *i* is text position *i*: AND / OR / XOR and
  shifts are one C loop over the whole stream each, and a zero test is
  O(1);
* a :class:`Positions` list, the marker's set positions in ascending
  order.  An op on it costs per position, not per stream bit: the CPU
  analog of the paper's Zero Block Skipping.

A marker switches to a list only inside :func:`steps`, the runtime
call a kernel makes for each run of single-byte steps
(``t = m << 1; m = t & c``), and only on a stream longer than
:data:`SPARSE_MIN_LENGTH` positions when a step leaves it with at most
:data:`SPARSE_MAX_BITS` set bits.  Lists carry the int operators the
kernels use, so every inline int expression takes either form without
a form test; an op that cannot stay sparse (NOT, or OR / XOR with a
nonzero int) returns an int.  A list ANDed with a class reads the class's
truth table (its 257-bit key, :mod:`repro.backend.fingerprint`, as
one byte per input byte plus the cursor slot) at each position's
byte: :meth:`KernelInput.note_classes` records the table of every
class-table entry evaluated over a long stream.

Inputs arrive in the ``(8, W)`` little-endian ``uint64`` word layout
of :class:`~repro.bitstream.npvector.NPBitVector` (basis environments)
and are converted once where a kernel is entered (:class:`KernelInput`).
Outputs stay in their form until one is read: :func:`output_ends`
reads a compiled engine's match ends straight from an output,
skipping in O(1) an int output with no bit past the cursor slot, and
:func:`to_words` converts an output to words only for callers that
want them (:func:`~repro.backend.dispatch_words`).

Invariant: every position a kernel produces is below the stream length
``L``, so an int is below ``2 ** L``.  AND / OR / XOR / ANDN and the
paper's ``<<`` (an int right shift) preserve it; NOT is an XOR with
``ONES``; the paper's ``>>`` (an int left shift) masks only when the
shifted value outgrows ``L`` bits, and on a list drops the positions
it moves to ``L`` or past.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..bitstream.npvector import word_match_ends
from ..bitstream.transpose import inverse_transpose_words, transpose_words

WORD_BITS = 64

#: A marker switches to a :class:`Positions` list only on streams
#: longer than this many positions: below it an int op is cheaper
#: than the ``bit_count`` that decides the switch.
SPARSE_MIN_LENGTH = 1 << 16
#: ... and only when a single-byte step leaves it with at most this
#: many set bits.
SPARSE_MAX_BITS = 32
#: The first positions of a marker, counted before the whole of it: a
#: marker with more than ``SPARSE_MAX_BITS`` bits among them is dense,
#: and counting them costs a sixteenth of counting 256 Ki positions.
_PROBE = (1 << (1 << 14)) - 1
#: A list that an OR or XOR grows past this many positions becomes an
#: int again: a per-position Python loop then costs more than one C
#: loop over the stream.
SPARSE_DENSIFY_BITS = 8 * SPARSE_MAX_BITS

#: a truth table's entry for the cursor slot, after the 256 bytes'
#: (:data:`fingerprint.CURSOR_KEY` is its bit in a key)
CURSOR = 256

#: Coarse-grained by design: one update per scanned stream, never per
#: kernel op.
_TRANSPOSED_BYTES = obs.registry().counter(
    "repro_basis_transpose_bytes_total",
    "Input bytes transposed to basis-bit word layout")


def word_count(length: int) -> int:
    """Words needed for ``length`` bits (at least one)."""
    return max(1, -(-length // WORD_BITS))


def basis_environment(data: bytes) -> np.ndarray:
    """The 8 basis streams of ``data`` as an ``(8, W)`` word array,
    padded to ``len(data) + 1`` bits (the interpreter's cursor slot)."""
    _TRANSPOSED_BYTES.inc(len(data))
    return transpose_words(data, bits=len(data) + 1)


class KernelInput:
    """One input stream as the kernels read it: the 8 basis streams
    ``b0..b7`` as ints (``planes``, read only by class kernels), the
    length, the ``ONES`` / ``TEXT`` masks and, for list-form ops, the
    input bytes and the truth tables of the class entries evaluated
    over it.  Built once per input and shared by every kernel run over
    it."""

    __slots__ = ("length", "planes", "ones", "text", "tables", "runs",
                 "_basis", "_data", "_entries")

    def __init__(self, basis, length: int, data: Optional[bytes] = None):
        """``basis`` is an ``(8, W)`` word array, or any sequence of 8
        ``(W,)`` word rows, padded to ``length`` bits with zeros;
        ``data`` is the input it was transposed from, derived from
        ``basis`` on first use when omitted."""
        self.length = length
        self.ones = (1 << length) - 1
        self.text = self.ones >> 1
        self.planes = tuple(int.from_bytes(basis[k].tobytes(), "little")
                            for k in range(8))
        self._basis = basis if data is None else None
        self._data = data
        #: ``id`` of a class-table entry -> its :func:`truth_table`
        self.tables: Dict[int, bytes] = {}
        #: ids of a class entry and the classes of a run's first steps
        #: -> the marker after them (:func:`steps`)
        self.runs: Dict[Tuple[int, ...], Union[int, List[int]]] = {}
        self._entries: List[Tuple[int, ...]] = []

    @classmethod
    def of(cls, data: bytes) -> "KernelInput":
        """Transpose ``data`` and convert it (``len(data) + 1`` bits)."""
        return cls(basis_environment(data), len(data) + 1, data)

    @property
    def data(self) -> bytes:
        """The input bytes (``length - 1`` of them)."""
        if self._data is None:
            self._data = inverse_transpose_words(self._basis,
                                                 self.length - 1)
            self._basis = None
        return self._data

    def note_classes(self, keys: Sequence[int],
                     entries: Tuple[int, ...]) -> None:
        """Record the truth table of each class-table entry, given by
        its key, evaluated over this stream (a no-op on streams too
        short for lists).  A list ANDed with an int looks the int up by
        identity: an int found here is that very entry, so filtering
        positions by the table at their bytes gives exactly the AND.
        The entries are held, so no other int takes over their ids."""
        if self.length <= SPARSE_MIN_LENGTH:
            return
        self._entries.append(entries)
        for key, entry in zip(keys, entries):
            self.tables[id(entry)] = truth_table(key)


@lru_cache(maxsize=4096)
def truth_table(key: int) -> bytes:
    """A class's 257-bit truth-table key as 257 bytes: entry ``b`` is
    the class's bit at byte ``b``, entry :data:`CURSOR` at the cursor
    slot."""
    return bytes(key >> code & 1 for code in range(CURSOR + 1))


class Positions(list):
    """A sparse marker: its set positions, ascending, each below the
    stream length.  It carries the operators kernels apply to ints,
    with the same meaning, so inline int code runs on it unchanged;
    :meth:`dense` is the int it stands for.  An op that leaves no
    position gives the int 0."""

    __slots__ = ("stream",)

    def dense(self) -> int:
        value = 0
        for position in self:
            value |= 1 << position
        return value

    def __lshift__(self, shift: int) -> Marker:
        """The paper's ``>>`` (advance): positions moved to the stream
        end or past it drop."""
        limit = self.stream.length - shift
        return _marker([p + shift for p in self if p < limit], self.stream)

    def __rshift__(self, shift: int) -> Marker:
        return _marker([p - shift for p in self if p >= shift], self.stream)

    def __gt__(self, other: int) -> bool:
        """Kernels test ``x > ONES`` after an advance: a list never
        holds a position past the stream end."""
        return False

    def __and__(self, other) -> Marker:
        if other.__class__ is Positions:
            other = set(other)
            return _marker([p for p in self if p in other], self.stream)
        table = self.stream.tables.get(id(other))
        if table is None:       # no class entry: read its bits
            return _marker([p for p in self if other >> p & 1], self.stream)
        data = self.stream.data
        end = len(data)
        return _marker([p for p in self
                      if table[data[p] if p < end else CURSOR]],
                     self.stream)

    __rand__ = __and__

    def __or__(self, other) -> Marker:
        """A merge with a list; with an int, the int form, except that
        ORing 0 (a loop's accumulator starts there) keeps the list."""
        if other.__class__ is Positions:
            return self._merged(set(self).union(other))
        return self.dense() | other if other else self

    __ror__ = __or__

    def __xor__(self, other) -> Marker:
        if other.__class__ is Positions:
            return self._merged(set(self).symmetric_difference(other))
        return self.dense() ^ other if other else self

    __rxor__ = __xor__

    def _merged(self, positions: set) -> Marker:
        merged = _marker(sorted(positions), self.stream)
        if len(positions) > SPARSE_DENSIFY_BITS:
            return merged.dense()
        return merged

    def steps(self, classes: Sequence[int]) -> Marker:
        """:func:`steps` on a list: each position walks through the
        steps, reading each class's truth table at the byte it moves
        to (or the cursor slot, which only the last step can reach).
        The first step filters every position at once; most stop
        there, and the few left walk the rest one at a time."""
        stream = self.stream
        data = stream.data
        end = len(data)
        count = len(classes)
        tables = [stream.tables[id(cls)] for cls in classes]
        live = self[:bisect_right(self, end - count)]
        if count > 1:
            first = tables[0]
            live = [p for p in live if first[data[p + 1]]]
            middle = list(enumerate(tables[1:-1], 2))
            if middle and live:
                walked = []
                for p in live:
                    for offset, table in middle:
                        if not table[data[p + offset]]:
                            break
                    else:
                        walked.append(p)
                live = walked
        last = tables[-1]
        ends = [p + count for p in live]
        cursor = bool(ends) and ends[-1] == end
        if cursor:
            ends.pop()
        found = [q for q in ends if last[data[q]]]
        if cursor and last[CURSOR]:
            found.append(end)
        return _marker(found, stream)


def _marker(positions: List[int], stream: KernelInput) -> Marker:
    """``positions`` (ascending, each below the stream length) as a
    marker over ``stream``: a list, or the int 0 when there are none,
    on which every later op is O(1) and runs inline."""
    if not positions:
        return 0
    marker = Positions(positions)
    marker.stream = stream
    return marker


Marker = Union[int, Positions]


def sparse(marker: int, stream: KernelInput) -> Positions:
    """An int marker as a list (kernels never hold an empty one: their
    ops give the int 0 instead)."""
    found = Positions(_set_positions(marker))
    found.stream = stream
    return found


def _set_positions(marker: int,
                   limit: Optional[int] = None) -> Optional[List[int]]:
    """The set positions of an int, ascending, its top bit read at a
    time; None once there are more than ``limit``."""
    found = []
    while marker:
        if len(found) == limit:
            return None
        top = marker.bit_length() - 1
        found.append(top)
        marker ^= 1 << top
    found.reverse()
    return found


def steps(marker: Marker, stream: KernelInput,
          classes: Tuple[int, ...]) -> Marker:
    """``marker`` after one single-byte step per class in turn: advance
    one position, then AND with the class.  A kernel calls this for
    each run of ``t = m << 1; m = t & c`` whose intermediates nothing
    else reads.  On a long stream an int switches to a list at the
    first step that leaves it with at most :data:`SPARSE_MAX_BITS`
    bits, and the remaining steps run on the list.  Runs from a class
    entry share their steps through ``stream.runs``: groups whose
    patterns begin alike compute (and switch) each prefix once."""
    if marker.__class__ is int:
        if stream.length <= SPARSE_MIN_LENGTH:
            for cls in classes:
                marker = marker << 1 & cls
            return marker
        # Keyed by the ids of held class entries only, so a key never
        # outlives the values it names.
        runs = stream.runs if id(marker) in stream.tables else {}
        run = (id(marker),)
        for index, cls in enumerate(classes):
            if not marker:
                return marker
            run += (id(cls),)
            after = runs.get(run)
            if after is None:
                after = _step(marker, cls)
                # Lists are small; the memo takes an int only while it
                # holds fewer values than the input has class entries,
                # so it never holds more stream-sized ints than they do.
                if after.__class__ is not int \
                        or len(runs) < len(stream.tables):
                    runs[run] = after
            if after.__class__ is int:
                marker = after
                continue
            marker = _marker(after, stream)
            classes = classes[index + 1:]
            if not classes:
                return marker
            break
        else:
            return marker
    return marker.steps(classes)


def _step(marker: int, cls: int) -> Union[int, List[int]]:
    """One step on an int; the set positions instead if it left the
    marker sparse.  The probe settles most dense markers at a
    sixteenth of a count; the rest are read a bit at a time up to the
    limit, which costs less than counting them first.  A plain list,
    not :class:`Positions`: ``stream.runs`` must not refer back to its
    stream."""
    marker = marker << 1 & cls
    if not marker or (marker & _PROBE).bit_count() > SPARSE_MAX_BITS:
        return marker
    found = _set_positions(marker, SPARSE_MAX_BITS)
    return marker if found is None else found


#: what generated kernels call by global name
KERNEL_GLOBALS = {"_steps": steps}


def dense(marker: Marker) -> int:
    """A kernel output in int form."""
    return marker.dense() if marker.__class__ is Positions else marker


def to_words(value: Marker, length: int) -> np.ndarray:
    """A kernel output as a writable ``(W,)`` little-endian uint64
    word array (the :class:`NPBitVector` layout)."""
    raw = bytearray(dense(value).to_bytes(8 * word_count(length),
                                          "little"))
    return np.frombuffer(raw, dtype="<u8")


def output_ends(value: Marker) -> List[int]:
    """A kernel output's match end positions (each set position minus
    one, position 0 dropped).  A list gives them directly.  An int
    ``<= 1`` has no set bit past the cursor slot, so it has no ends and
    costs O(1); any other is viewed as the words up to its highest set
    bit and read by the set-bit helper :meth:`NPBitVector.match_ends`
    uses."""
    if value.__class__ is Positions:
        return [p - 1 for p in value if p]
    if value <= 1:
        return []
    raw = value.to_bytes(8 * word_count(value.bit_length()), "little")
    return word_match_ends(np.frombuffer(raw, dtype="<u8"))


class KernelStats:
    """Dynamic counters one kernel invocation reports back."""

    __slots__ = ("loop_log",)

    def __init__(self):
        #: (loop_id, iterations), appended in loop-completion order —
        #: the same order the reference interpreter records.
        self.loop_log = []
