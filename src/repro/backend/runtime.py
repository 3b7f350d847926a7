"""Runtime support for compiled bitstream kernels.

Generated kernels (see :mod:`repro.backend.codegen`) run over Python
ints: each bitstream is one non-negative int whose bit *i* is text
position *i*, so AND / OR / XOR and shifts are one C loop over the
stream each and a zero test is O(1).

Inputs arrive in the ``(8, W)`` little-endian ``uint64`` word layout
of :class:`~repro.bitstream.npvector.NPBitVector` (basis environments)
and are converted once where a kernel is entered (:class:`KernelInput`).
Outputs stay ints until one is read: :func:`output_ends` reads a
compiled engine's match ends straight from an output int, skipping
in O(1) an output with no bit past the cursor slot, and
:func:`to_words` converts an output to words only for callers that
want them (:func:`~repro.backend.dispatch_words`).

Invariant: every value a kernel produces is below ``2 ** L`` for stream
length ``L``.  AND / OR / XOR / ANDN and the paper's ``<<`` (an int
right shift) preserve it; NOT is an XOR with ``ONES``, and the paper's
``>>`` (an int left shift) masks only when the shifted value outgrows
``L`` bits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import obs
from ..bitstream.npvector import word_match_ends
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
    """One input stream as the kernels read it: the 8 basis streams
    ``b0..b7`` as ints (``planes``, read only by class kernels), the
    length and the ``ONES`` / ``TEXT`` masks.  Built once per input and
    shared by every kernel run over it."""

    __slots__ = ("length", "planes", "ones", "text")

    def __init__(self, basis, length: int):
        """``basis`` is an ``(8, W)`` word array, or any sequence of 8
        ``(W,)`` word rows, padded to ``length`` bits with zeros."""
        self.length = length
        self.ones = (1 << length) - 1
        self.text = self.ones >> 1
        self.planes = tuple(int.from_bytes(basis[k].tobytes(), "little")
                            for k in range(8))

    @classmethod
    def of(cls, data: bytes) -> "KernelInput":
        """Transpose ``data`` and convert it (``len(data) + 1`` bits)."""
        return cls(basis_environment(data), len(data) + 1)


def to_words(value: int, length: int) -> np.ndarray:
    """A kernel output as a writable ``(W,)`` little-endian uint64
    word array (the :class:`NPBitVector` layout)."""
    raw = bytearray(value.to_bytes(8 * word_count(length), "little"))
    return np.frombuffer(raw, dtype="<u8")


def output_ends(value: int) -> List[int]:
    """A kernel output's match end positions, read from the int.  An
    output ``<= 1`` has no set bit past the cursor slot, so it has no
    ends and costs O(1); any other is viewed as the words up to its
    highest set bit and read by the set-bit helper
    :meth:`NPBitVector.match_ends` uses."""
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
