"""NumPy-backed bit vectors.

An alternative backend to :class:`repro.bitstream.BitVector` storing the
stream as a ``uint64`` word array — the word-level layout a real kernel
uses, and the one code outside the compiled kernels passes around
(basis environments, dispatch outputs, shard payloads).

It is not the faster substrate.  Per op on a 2-CPU host (Python 3.11,
NumPy 2.4): at 8 Kbit an AND / ANDN / advance costs 1.1 / 1.2 / 7.1 µs
here against 0.6 / 1.7 / 1.7 µs on ``BitVector`` — per-call overhead
dominates.  At 1 Mbit an AND costs 6.5 µs on both; word arrays win
ANDN (12 vs 110 µs) and advance (39 vs 78 µs) only because
``BitVector`` builds a negative int for ``~b`` and masks every advance.
The compiled kernels' int code avoids both: ``a ^ (a & b)`` takes
13 µs and an unmasked shift about 28 µs.  ``benchmarks/bench_backend.py``
times a mixed workload on both classes.

The API mirrors ``BitVector`` exactly (same paper shift semantics:
``advance(k>0)`` is the paper's ``>>``), and a property test keeps the
two backends bit-identical.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .bitvector import BitVector

WORD_BITS = 64

#: Bytewise popcount lookup table: one np take + sum replaces the
#: 64x-the-data allocation ``np.unpackbits`` needed.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.uint8)


def popcount_words(words: np.ndarray) -> int:
    """Population count of a uint64 word array via a bytewise LUT."""
    if not words.size:
        return 0
    return int(_POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)]
               .sum(dtype=np.int64))


class NPBitVector:
    """A fixed-length bitstream backed by little-endian uint64 words."""

    __slots__ = ("words", "length")

    def __init__(self, words: np.ndarray, length: int):
        expected = -(-length // WORD_BITS) if length else 0
        if len(words) != expected:
            raise ValueError(f"need {expected} words for {length} bits, "
                             f"got {len(words)}")
        self.words = words
        self.length = length
        self._mask_tail()

    def _mask_tail(self) -> None:
        if self.length % WORD_BITS and len(self.words):
            keep = self.length % WORD_BITS
            self.words[-1] &= np.uint64((1 << keep) - 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "NPBitVector":
        return cls(np.zeros(-(-length // WORD_BITS) if length else 0,
                            dtype=np.uint64), length)

    @classmethod
    def ones(cls, length: int) -> "NPBitVector":
        words = np.full(-(-length // WORD_BITS) if length else 0,
                        np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        return cls(words, length)

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "NPBitVector":
        raw = vector.bits.to_bytes(
            max(1, -(-vector.length // 8)) if vector.length else 0,
            "little")
        padded = raw + b"\0" * (-len(raw) % 8)
        words = np.frombuffer(padded, dtype="<u8").copy() \
            if padded else np.zeros(0, dtype=np.uint64)
        expected = -(-vector.length // WORD_BITS) if vector.length else 0
        return cls(words[:expected], vector.length)

    def to_bitvector(self) -> BitVector:
        if not len(self.words):
            return BitVector.zeros(self.length)
        bits = int.from_bytes(self.words.tobytes(), "little")
        return BitVector(bits & ((1 << self.length) - 1), self.length)

    @classmethod
    def from_positions(cls, positions: Iterable[int],
                       length: int) -> "NPBitVector":
        return cls.from_bitvector(
            BitVector.from_positions(positions, length))

    # -- logic --------------------------------------------------------------

    def _check(self, other: "NPBitVector") -> None:
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}")

    def __and__(self, other: "NPBitVector") -> "NPBitVector":
        self._check(other)
        return NPBitVector(self.words & other.words, self.length)

    def __or__(self, other: "NPBitVector") -> "NPBitVector":
        self._check(other)
        return NPBitVector(self.words | other.words, self.length)

    def __xor__(self, other: "NPBitVector") -> "NPBitVector":
        self._check(other)
        return NPBitVector(self.words ^ other.words, self.length)

    def __invert__(self) -> "NPBitVector":
        return NPBitVector(~self.words, self.length)

    def andn(self, other: "NPBitVector") -> "NPBitVector":
        self._check(other)
        return NPBitVector(self.words & ~other.words, self.length)

    def advance(self, distance: int) -> "NPBitVector":
        """Paper semantics: positive moves cursors forward in the text."""
        if distance == 0 or not len(self.words):
            return NPBitVector(self.words.copy(), self.length)
        if distance < 0:
            return self._shift_down(-distance)
        return self._shift_up(distance)

    def _shift_up(self, distance: int) -> "NPBitVector":
        word_shift, bit_shift = divmod(distance, WORD_BITS)
        out = np.zeros_like(self.words)
        if word_shift < len(self.words):
            out[word_shift:] = self.words[:len(self.words) - word_shift]
        if bit_shift:
            carry = np.zeros_like(out)
            carry[1:] = out[:-1] >> np.uint64(WORD_BITS - bit_shift)
            out = (out << np.uint64(bit_shift)) | carry
        return NPBitVector(out, self.length)

    def _shift_down(self, distance: int) -> "NPBitVector":
        word_shift, bit_shift = divmod(distance, WORD_BITS)
        out = np.zeros_like(self.words)
        if word_shift < len(self.words):
            out[:len(self.words) - word_shift] = self.words[word_shift:]
        if bit_shift:
            carry = np.zeros_like(out)
            carry[:-1] = out[1:] << np.uint64(WORD_BITS - bit_shift)
            out = (out >> np.uint64(bit_shift)) | carry
        return NPBitVector(out, self.length)

    # -- queries -------------------------------------------------------------

    def any(self) -> bool:
        return bool(self.words.any())

    def __bool__(self) -> bool:
        return self.any()

    def popcount(self) -> int:
        return popcount_words(self.words)

    def _set_bits(self) -> np.ndarray:
        """Sorted set-bit indices.  Only the nonzero words are unpacked,
        so sparse match streams cost O(W + set words), not 64·W bits
        (the tail-mask invariant guarantees no bit beyond ``length``)."""
        nonzero = np.flatnonzero(self.words)
        if not nonzero.size:
            return nonzero
        bits = np.unpackbits(self.words[nonzero].view(np.uint8),
                             bitorder="little").reshape(-1, WORD_BITS)
        rows, cols = np.nonzero(bits)
        return nonzero[rows] * WORD_BITS + cols

    def positions(self) -> List[int]:
        """Sorted set-bit positions, computed directly on the words."""
        return self._set_bits().tolist()

    def match_ends(self) -> List[int]:
        """Set cursors as match *end* positions: each set-bit index
        minus one, dropping the empty-match cursor at position 0.
        One vectorized subtract on the set-bit indices replaces the
        ``[p - 1 for p in positions() if p > 0]`` Python hot loop."""
        ends = self._set_bits()
        if ends.size and ends[0] == 0:
            ends = ends[1:]
        return (ends - 1).tolist()

    def __eq__(self, other) -> bool:
        return (isinstance(other, NPBitVector)
                and self.length == other.length
                and np.array_equal(self.words, other.words))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"NPBitVector(length={self.length}, "
                f"popcount={self.popcount()})")
