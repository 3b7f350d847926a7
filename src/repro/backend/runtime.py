"""Runtime support for compiled bitstream kernels.

Generated kernels (see :mod:`repro.backend.codegen`) run over Python
ints: each bitstream is one non-negative int whose bit *i* is text
position *i*, so AND / OR / XOR and shifts are one C loop over the
stream each and a zero test is O(1).

Code outside the kernels passes and reads the ``(8, W)`` little-endian
``uint64`` word layout of :class:`~repro.bitstream.npvector.NPBitVector`
— basis environments, dispatch outputs, shared-memory shard payloads.
This module converts between the two only where a kernel is entered
(:class:`KernelInput`) and left (:func:`to_words`).

Invariant: every value a kernel produces is below ``2 ** L`` for stream
length ``L``.  AND / OR / XOR / ANDN and the paper's ``<<`` (an int
right shift) preserve it; NOT is an XOR with ``ONES``, and the paper's
``>>`` (an int left shift) masks only when the shifted value outgrows
``L`` bits.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..bitstream.transpose import transpose_words

WORD_BITS = 64

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
    """One input stream as the kernels read it.

    ``planes`` holds the 8 basis streams ``b0..b7`` as ints, then their
    complements within the text (``bk ^ TEXT``): a MATCH_CC for byte
    ``c`` ANDs plane ``k`` or ``8 + k`` per bit ``k`` of ``c``, which
    keeps the final cursor slot clear without a separate ``TEXT`` term.
    Built once per input and shared by every kernel run over it.
    """

    __slots__ = ("length", "planes", "ones", "text")

    def __init__(self, basis, length: int):
        """``basis`` is an ``(8, W)`` word array, or any sequence of 8
        ``(W,)`` word rows, padded to ``length`` bits with zeros."""
        self.length = length
        self.ones = (1 << length) - 1
        self.text = self.ones >> 1
        planes = tuple(int.from_bytes(basis[k].tobytes(), "little")
                       for k in range(8))
        self.planes = planes + tuple(plane ^ self.text for plane in planes)

    @classmethod
    def of(cls, data: bytes) -> "KernelInput":
        """Transpose ``data`` and convert it (``len(data) + 1`` bits)."""
        return cls(basis_environment(data), len(data) + 1)


def to_words(value: int, length: int) -> np.ndarray:
    """A kernel output as a writable ``(W,)`` little-endian uint64
    word array (the :class:`NPBitVector` layout)."""
    raw = bytearray(value.to_bytes(8 * word_count(length), "little"))
    return np.frombuffer(raw, dtype="<u8")


class KernelStats:
    """Dynamic counters one kernel invocation reports back."""

    __slots__ = ("loop_log", "guard_checks", "guard_hits")

    def __init__(self):
        #: (loop_id, iterations), appended in loop-completion order —
        #: the same order the reference interpreter records.
        self.loop_log = []
        self.guard_checks = 0
        self.guard_hits = 0

    def iteration_counts(self):
        return [count for _, count in self.loop_log]

    def counts_by_loop(self):
        by_loop = {}
        for loop_id, count in self.loop_log:
            by_loop.setdefault(loop_id, []).append(count)
        return by_loop

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Fold another invocation's counters into this one — used by
        sharded dispatch to present one session-level view of the
        dynamic work its shards performed."""
        self.loop_log.extend(other.loop_log)
        self.guard_checks += other.guard_checks
        self.guard_hits += other.guard_hits
        return self
