"""Unit tests for executor internals: pass splitting, segment
splitting, window-relative constants, and metric accounting details."""

import pytest

from repro.bitstream.bitvector import BitVector
from repro.core.interleaved import (InterleavedExecutor, const_window,
                                    split_segments)
from repro.core.schemes import Scheme
from repro.core.sequential import FUSABLE_OPS, SequentialExecutor, \
    split_passes
from repro.gpu.machine import CTAGeometry
from repro.ir.instructions import Instr, Op, SkipGuard, WhileLoop
from repro.ir.interpreter import make_environment
from repro.ir.lower import lower_regex
from repro.ir.program import Program, ProgramBuilder
from repro.regex.parser import parse

TINY = CTAGeometry(threads=8, word_bits=4)


def instr(dest, op, *args, **kw):
    return Instr(dest, op, tuple(args), **kw)


# -- pass splitting (Base scheme) ----------------------------------------------

def test_split_passes_fuses_bitwise_runs():
    stmts = [
        instr("a", Op.CONST, const="ones"),
        instr("b", Op.NOT, "a"),
        instr("c", Op.SHIFT, "b", shift=1),
        instr("d", Op.AND, "c", "a"),
    ]
    units = split_passes(stmts)
    assert len(units) == 3                      # [const,not] [shift] [and]
    assert [len(u.instrs) for u in units] == [2, 1, 1]
    assert units[1].is_shift


def test_split_passes_isolates_loops():
    program = lower_regex(parse("a(b)*c"))
    units = split_passes(program.statements)
    assert any(isinstance(u, WhileLoop) for u in units)


def test_split_passes_drops_guards():
    stmts = [instr("a", Op.CONST, const="ones"),
             SkipGuard("a", 1),
             instr("b", Op.NOT, "a")]
    units = split_passes(stmts)
    assert all(not isinstance(u, SkipGuard) for u in units)
    assert sum(len(u.instrs) for u in units) == 2


def test_split_segments_keeps_shifts_inline():
    stmts = [
        instr("a", Op.CONST, const="ones"),
        instr("b", Op.SHIFT, "a", shift=1),
        instr("c", Op.AND, "a", "b"),
    ]
    units = split_segments(stmts)
    assert len(units) == 1                      # DTM- fuses across shifts
    assert len(units[0]) == 3


# -- constant windows ------------------------------------------------------------

def test_const_window_zero_ones():
    assert const_window("zero", 4, 12, 100) == BitVector.zeros(8)
    assert const_window("ones", 4, 12, 100) == BitVector.ones(8)


def test_const_window_start():
    assert const_window("start", 0, 8, 100).positions() == [0]
    assert const_window("start", 8, 16, 100).positions() == []


def test_const_window_end():
    # stream length 16: the final cursor position is 15
    assert const_window("end", 8, 16, 16).positions() == [7]
    assert const_window("end", 0, 8, 16).positions() == []


def test_const_window_text_mask():
    # text positions are [0, length-1); window clipping applies
    window = const_window("text", 12, 16, 16)
    assert window.positions() == [0, 1, 2]      # global 12,13,14; not 15


# -- sequential executor accounting -------------------------------------------------

def test_sequential_counts_loops_and_intermediates():
    program = lower_regex(parse("ab"))
    result = SequentialExecutor(TINY).run(program,
                                          make_environment(b"abab"))
    metrics = result.metrics
    assert metrics.fused_loops >= 2             # bitwise run + shifts
    assert metrics.intermediate_streams > 0
    assert metrics.dram_write_bytes > 0
    assert metrics.barriers >= metrics.fused_loops


def test_sequential_loop_iterations_counted():
    program = lower_regex(parse("a(bc)*d"))
    result = SequentialExecutor(TINY).run(
        program, make_environment(b"abcbcbcd"))
    assert result.metrics.loop_iterations >= 3


# -- interleaved executor details -----------------------------------------------------

def test_interleaved_counts_recompute():
    program = lower_regex(parse("abcdefgh"))     # 8-bit static lookback
    executor = InterleavedExecutor(geometry=TINY)
    result = executor.run(program, make_environment(
        b"x" * 40 + b"abcdefgh" + b"x" * 16))
    assert result.metrics.recomputed_bits > 0
    assert result.metrics.recompute_fraction() > 0
    assert result.metrics.fused_loops == 1


def test_interleaved_single_block_no_recompute():
    program = lower_regex(parse("ab"))
    executor = InterleavedExecutor(geometry=CTAGeometry(threads=64,
                                                        word_bits=32))
    result = executor.run(program, make_environment(b"abab"))
    assert result.metrics.blocks_processed == 1
    assert result.metrics.recomputed_bits == 0


def test_interleaved_dram_reads_only_inputs():
    program = lower_regex(parse("a(bc)*d"))
    executor = InterleavedExecutor(geometry=TINY)
    result = executor.run(program, make_environment(b"abcbcd" * 10))
    metrics = result.metrics
    # reads: basis planes per block; writes: one output stream
    assert metrics.dram_read_bytes > 0
    assert metrics.intermediate_streams == 0
    assert metrics.peak_intermediate_bytes == 0


def test_segmented_materialises_loop_streams():
    program = lower_regex(parse("a(bc)*d"))
    executor = InterleavedExecutor(geometry=TINY, segmented=True)
    result = executor.run(program, make_environment(b"abcbcd" * 4))
    assert result.metrics.intermediate_streams > 0
    assert result.metrics.fused_loops > 1


def test_empty_program_executes():
    program = Program("empty", [], {})
    for executor in (SequentialExecutor(TINY),
                     InterleavedExecutor(geometry=TINY)):
        result = executor.run(program, make_environment(b"abc"))
        assert result.outputs == {}


def test_output_of_constant_program():
    builder = ProgramBuilder("const")
    builder.mark_output("R", builder.ones())
    program = builder.finish()
    result = InterleavedExecutor(geometry=TINY).run(
        program, make_environment(b"ab"))
    assert result.outputs["R"] == BitVector.ones(3)
