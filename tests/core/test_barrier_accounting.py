"""Barrier accounting: runtime barrier counts must match the plan."""

import pytest

from repro.core.barriers import plan_barriers
from repro.core.interleaved import InterleavedExecutor
from repro.core.rebalance import rebalance_program
from repro.gpu.machine import CTAGeometry
from repro.ir.instructions import Instr, Op
from repro.ir.interpreter import make_environment
from repro.ir.lower import lower_regex
from repro.ir.program import Program, ProgramBuilder
from repro.regex.parser import parse

TINY = CTAGeometry(threads=8, word_bits=4)  # 32-bit blocks


def straight_line_program(shift_count: int) -> Program:
    """ANDs of independently shifted basis streams: fully mergeable."""
    builder = ProgramBuilder("shifts")
    acc = builder.match_cc(parse("a").cc)
    # Hoist every operand first so all shifts are ready at one point
    # (rebalancing produces exactly this shape on real programs).
    bases = [builder.match_cc(parse(chr(ord("b") + index)).cc)
             for index in range(shift_count)]
    shifted = [builder.advance(base, index + 1)
               for index, base in enumerate(bases)]
    for value in shifted:
        acc = builder.or_(acc, value)
    builder.mark_output("R", acc)
    return builder.finish()


def run_with_plan(program, plan, data=b"abcdefgh" * 8):
    executor = InterleavedExecutor(geometry=TINY, barrier_plan=plan)
    return executor.run(program, make_environment(data))


def test_unmerged_barriers_two_per_shift_per_block():
    program = straight_line_program(3)
    plan = plan_barriers(program, merge_size=1)
    result = run_with_plan(program, plan)
    blocks = result.metrics.blocks_processed
    assert result.metrics.barriers == 2 * plan.group_count * blocks
    assert plan.group_count == 3


def test_merged_barriers_shared():
    program = straight_line_program(4)
    plan = plan_barriers(program, merge_size=4)
    assert plan.group_count == 1
    result = run_with_plan(program, plan)
    blocks = result.metrics.blocks_processed
    assert result.metrics.barriers == 2 * blocks


def test_merge_reduces_runtime_barriers_end_to_end():
    program = rebalance_program(lower_regex(parse("abcdefgh")))
    merged_plan = plan_barriers(program, merge_size=16)
    single_plan = plan_barriers(program, merge_size=1)
    data = b"abcdefgh" * 10
    merged = run_with_plan(program, merged_plan, data)
    single = run_with_plan(program, single_plan, data)
    assert merged.metrics.barriers < single.metrics.barriers
    assert merged.outputs["R0"] == single.outputs["R0"]


def test_no_plan_treats_every_shift_as_leader():
    program = straight_line_program(2)
    executor = InterleavedExecutor(geometry=TINY, barrier_plan=None)
    result = executor.run(program, make_environment(b"abcd" * 8))
    blocks = result.metrics.blocks_processed
    assert result.metrics.barriers == 2 * 2 * blocks


def test_store_dedup_counts_shared_operand_once():
    # /abb/ after rebalancing shifts the same 'b' stream twice.
    program = rebalance_program(lower_regex(parse("abb")))
    plan = plan_barriers(program, merge_size=8)
    for instr in program.statements:
        if isinstance(instr, Instr) and instr.op is Op.SHIFT:
            info = plan.lookup(instr)
            assert info is not None
    assert plan.max_group_stores <= 2


def test_smem_traffic_scales_with_merging():
    program = straight_line_program(4)
    merged = plan_barriers(program, merge_size=4)
    single = plan_barriers(program, merge_size=1)
    data = b"abcdefgh" * 8
    merged_run = run_with_plan(program, merged, data)
    single_run = run_with_plan(program, single, data)
    # Same loads either way; merged stores no more than unmerged.
    assert merged_run.metrics.smem_read_bytes == \
        single_run.metrics.smem_read_bytes
    assert merged_run.metrics.smem_write_bytes <= \
        single_run.metrics.smem_write_bytes
