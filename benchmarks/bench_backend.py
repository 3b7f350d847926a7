"""Simulator engine-room benchmark: big-integer vs NumPy bit vectors.

Not a paper experiment — this measures the reproduction's own substrate
so the backend choice is a documented decision rather than folklore.
On a 2-CPU host (Python 3.11, NumPy 2.4) the six-op mixed workload
below takes 5.1 µs on ``BitVector`` and 18 µs on ``NPBitVector`` at
8 Kbit, where NumPy's per-call overhead dominates, and 437 µs against
292 µs at 1 Mbit.  The 1 Mbit gap is ``BitVector``'s own: its ANDN
builds ``~b`` (CPython's two's-complement slow path, 110 µs against
12 µs on words) and its advance always masks (78 against 39 µs).  The
compiled kernels run on ints without either cost (``a ^ (a & b)``,
13 µs; a shift masked only on overflow, about 28 µs), which is why
they use ints; word arrays stay the layout at the kernel boundary.
"""

import pytest

from repro.bitstream.bitvector import BitVector
from repro.bitstream.npvector import NPBitVector

SIZES = (1 << 13, 1 << 20)   # a window-sized and a full-stream-sized run


def _mixed_workload(a, b):
    x = a & b
    y = x | a
    z = y.advance(1)
    w = z.andn(b)
    return w.advance(-3) ^ y


@pytest.mark.parametrize("bits", SIZES, ids=lambda b: f"{b}b")
def test_bigint_backend(benchmark, bits):
    a = BitVector((1 << bits) - 1, bits)
    b = BitVector(((1 << bits) - 1) // 3, bits)
    result = benchmark(_mixed_workload, a, b)
    assert result.length == bits


@pytest.mark.parametrize("bits", SIZES, ids=lambda b: f"{b}b")
def test_numpy_backend(benchmark, bits):
    a = NPBitVector.from_bitvector(BitVector((1 << bits) - 1, bits))
    b = NPBitVector.from_bitvector(
        BitVector(((1 << bits) - 1) // 3, bits))
    result = benchmark(_mixed_workload, a, b)
    assert result.length == bits


def test_backends_agree_on_workload(benchmark):
    bits = 4096
    ref_a = BitVector((1 << bits) - 1, bits)
    ref_b = BitVector(((1 << bits) - 1) // 5, bits)
    expected = _mixed_workload(ref_a, ref_b)
    np_a = NPBitVector.from_bitvector(ref_a)
    np_b = NPBitVector.from_bitvector(ref_b)
    actual = benchmark(_mixed_workload, np_a, np_b)
    assert actual.to_bitvector() == expected
