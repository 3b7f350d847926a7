"""Byte-stream transposition (the S2P step of Section 2).

The input byte stream is transposed into 8 basis bitstreams b0..b7,
where ``b[k][i]`` is bit *k* of byte *i*.  Following the paper's ASCII
example ('a' = 01100001 matched as ~b0 & b1 & b2 & ~b3 & ... & b7),
b0 is the *most significant* bit of the byte and b7 the least.

Two implementations are provided: a numpy bulk path used everywhere,
and a pure-Python one kept as a cross-check for tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .bitvector import BitVector

BASIS_COUNT = 8
WORD_BITS = 64


def transpose(data: bytes) -> List[BitVector]:
    """Transpose ``data`` into 8 basis bitstreams (b0 = MSB ... b7 = LSB)."""
    if not data:
        return [BitVector.zeros(0) for _ in range(BASIS_COUNT)]
    arr = np.frombuffer(data, dtype=np.uint8)
    basis = []
    for k in range(BASIS_COUNT):
        shift = BASIS_COUNT - 1 - k  # b0 is the MSB
        plane = (arr >> shift) & 1
        basis.append(_bits_to_vector(plane))
    return basis


def _bits_to_vector(plane: np.ndarray) -> BitVector:
    """Pack a 0/1 uint8 array (index = position) into a BitVector."""
    packed = np.packbits(plane, bitorder="little")
    return BitVector(int.from_bytes(packed.tobytes(), "little"), len(plane))


def transpose_words(data: bytes, bits: Optional[int] = None) -> np.ndarray:
    """Transpose ``data`` straight into a ``(8, W)`` little-endian uint64
    word array (the :class:`NPBitVector` layout) without the
    ``int.from_bytes`` bigint detour.

    ``bits`` pads the streams to a total length (e.g. ``n + 1`` for the
    interpreter's cursor slot); padding bits read as zero.  Row *k* is
    basis stream ``bk`` (b0 = MSB of each byte).
    """
    n = len(data)
    if bits is None:
        bits = n
    if bits < n:
        raise ValueError(f"cannot truncate {n} bytes to {bits} bits")
    words = max(1, -(-bits // WORD_BITS)) if bits else 0
    out = np.zeros((BASIS_COUNT, words * (WORD_BITS // 8)), dtype=np.uint8)
    if n:
        arr = np.frombuffer(data, dtype=np.uint8)
        shifts = np.arange(BASIS_COUNT - 1, -1, -1, dtype=np.uint8)
        planes = (arr[None, :] >> shifts[:, None]) & np.uint8(1)
        packed = np.packbits(planes, axis=1, bitorder="little")
        out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def inverse_transpose_words(basis, n: int) -> bytes:
    """The ``n`` bytes whose :func:`transpose_words` is ``basis`` (an
    ``(8, W)`` word array, or any sequence of 8 ``(W,)`` word rows)."""
    if not n:
        return b""
    rows = np.stack([np.asarray(basis[k], dtype="<u8").view(np.uint8)
                     for k in range(BASIS_COUNT)])
    bits = np.unpackbits(rows, axis=1, bitorder="little")[:, :n]
    out = np.zeros(n, dtype=np.uint8)
    for k in range(BASIS_COUNT):        # b0 is the MSB
        out |= bits[k] << np.uint8(BASIS_COUNT - 1 - k)
    return out.tobytes()


def transpose_reference(data: bytes) -> List[BitVector]:
    """Bit-at-a-time transposition; slow, used to validate :func:`transpose`."""
    n = len(data)
    bits = [0] * BASIS_COUNT
    for i, byte in enumerate(data):
        for k in range(BASIS_COUNT):
            if byte >> (BASIS_COUNT - 1 - k) & 1:
                bits[k] |= 1 << i
    return [BitVector(b, n) for b in bits]


def inverse_transpose(basis: Sequence[BitVector]) -> bytes:
    """Reassemble the byte stream from its 8 basis bitstreams."""
    if len(basis) != BASIS_COUNT:
        raise ValueError(f"expected {BASIS_COUNT} basis streams")
    n = basis[0].length
    if any(b.length != n for b in basis):
        raise ValueError("basis streams must share one length")
    if n == 0:
        return b""
    planes = []
    for vec in basis:
        raw = vec.bits.to_bytes((n + 7) // 8, "little")
        plane = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                              bitorder="little")[:n]
        planes.append(plane)
    out = np.zeros(n, dtype=np.uint8)
    for k, plane in enumerate(planes):
        out |= plane << (BASIS_COUNT - 1 - k)
    return out.tobytes()
