"""Compiled execution of whole engines: batched CTA dispatch and the
metric estimates the fast path reports.

``dispatch_programs`` is the simulator analog of one fused kernel
launch over many CTAs: the input is transposed to the word layout once,
compiled groups are bucketed by kernel fingerprint, and every bucket
whose kernel is shared executes as ONE vectorised NumPy call over a 2D
``uint64`` batch — per-CTA parameter matrices stacked on axis 0, basis
words broadcast along the rows.  CTAs with unique kernels fall back to
individual 1D calls (still compiled, still cached).

``dispatch_streams`` batches the other axis the paper calls MIMD-style
execution: one compiled group over many concurrent input streams.

Compiled execution produces bit-identical output streams but does not
*simulate* the schedule, so the metrics here are estimates: compute-side
counters (word ops, loop iterations, guard hits, DRAM for inputs and
outputs) are derived from the program and the kernel's dynamic stats;
schedule-fidelity counters (barriers, shared memory, recomputation) are
left to the simulating executors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..gpu.machine import CTAGeometry
from ..gpu.metrics import KernelMetrics
from ..ir.instructions import Instr, Op, WhileLoop
from ..ir.program import Program
from . import runtime
from .compiled import CompiledProgram, KernelCache, compile_program

DispatchResult = Tuple[Dict[str, np.ndarray], runtime.KernelStats]


def compile_group(programs: Sequence[Program], honour_guards: bool = False,
                  cache: Optional[KernelCache] = None
                  ) -> List[CompiledProgram]:
    return [compile_program(p, honour_guards=honour_guards, cache=cache)
            for p in programs]


def dispatch_programs(compiled: Sequence[CompiledProgram], data: bytes
                      ) -> List[DispatchResult]:
    """Run every compiled program over ``data``; programs sharing one
    kernel execute as a single batched 2D call."""
    basis = runtime.basis_environment(data)
    length = len(data) + 1
    return dispatch_words(compiled, basis, length)


def dispatch_words(compiled: Sequence[CompiledProgram], basis,
                   length: int) -> List[DispatchResult]:
    buckets: Dict[str, List[int]] = {}
    for index, program in enumerate(compiled):
        buckets.setdefault(program.kernel.fingerprint, []).append(index)

    results: List[Optional[DispatchResult]] = [None] * len(compiled)
    for indices in buckets.values():
        members = [compiled[i] for i in indices]
        if len(members) == 1:
            with obs.span("exec.batch", category="exec", ctas=1,
                          kernel=members[0].kernel.fingerprint[:12]):
                results[indices[0]] = members[0].run_words(basis,
                                                           length)
            continue
        # One fused call for the whole bucket: stack the per-CTA
        # parameter matrices into a (k, n_cc, 8) batch.
        params = np.stack([m.params for m in members])
        with obs.span("exec.batch", category="exec",
                      ctas=len(members),
                      kernel=members[0].kernel.fingerprint[:12]):
            raw, stats = members[0].kernel(basis, params, length)
        words = runtime.word_count(length)
        for row, (index, member) in enumerate(zip(indices, members)):
            outputs = {}
            for name, stream in zip(member.output_names, raw):
                if stream.ndim == 1:
                    # Independent of the batched parameters: shared row.
                    outputs[name] = stream.copy()
                else:
                    outputs[name] = np.ascontiguousarray(stream[row])
                assert outputs[name].shape == (words,)
            results[index] = (outputs, stats)
    return results  # type: ignore[return-value]


#: One equal-length batch of streams: ``(size, indices, basis)`` where
#: ``indices`` are positions in the dispatch's stream list and
#: ``basis`` is an ``(8, W)`` word array for a single stream or a
#: plane-indexable ``(8, k, W)`` batch (a list of 8 ``(k, W)`` arrays
#: or one contiguous 3D array — shared-memory shards use the latter).
StreamClass = Tuple[int, List[int], object]


def stream_length_classes(streams: Sequence[bytes]
                          ) -> List[Tuple[int, List[int]]]:
    """Group stream indices by byte length — the serial batching unit
    stream sharding must keep whole."""
    by_length: Dict[int, List[int]] = {}
    for index, stream in enumerate(streams):
        by_length.setdefault(len(stream), []).append(index)
    return list(by_length.items())


def transpose_stream_classes(streams: Sequence[bytes]
                             ) -> List[StreamClass]:
    """Transpose every stream to the word layout, batched per length
    class.  The result feeds :func:`dispatch_stream_classes` for any
    number of compiled groups — the transpose is paid once, not once
    per kernel."""
    classes: List[StreamClass] = []
    for size, indices in stream_length_classes(streams):
        if len(indices) == 1:
            basis: object = runtime.basis_environment(
                streams[indices[0]])
        else:
            stacked = np.stack([runtime.basis_environment(streams[i])
                                for i in indices])       # (k, 8, W)
            basis = [np.ascontiguousarray(stacked[:, k, :])
                     for k in range(8)]
        classes.append((size, indices, basis))
    return classes


def dispatch_stream_classes(compiled: CompiledProgram,
                            classes: Sequence[StreamClass],
                            count: int) -> List[DispatchResult]:
    """Run one compiled program over pre-transposed length classes —
    the shared execution loop of :func:`dispatch_streams` and the
    zero-copy shard path (workers resolve their classes straight out
    of shared memory)."""
    results: List[Optional[DispatchResult]] = [None] * count
    for size, indices, basis in classes:
        length = size + 1
        if len(indices) == 1:
            with obs.span("exec.batch", category="exec", streams=1,
                          stream_bytes=size):
                results[indices[0]] = compiled.run_words(basis, length)
            continue
        with obs.span("exec.batch", category="exec",
                      streams=len(indices), stream_bytes=size):
            raw, stats = compiled.kernel(basis, compiled.params, length)
        words = runtime.word_count(length)
        for row, index in enumerate(indices):
            outputs = {}
            for name, stream in zip(compiled.output_names, raw):
                if stream.ndim == 1:
                    outputs[name] = stream.copy()
                else:
                    outputs[name] = np.ascontiguousarray(stream[row])
                assert outputs[name].shape == (words,)
            results[index] = (outputs, stats)
    return results  # type: ignore[return-value]


def dispatch_streams(compiled: CompiledProgram,
                     streams: Sequence[bytes]) -> List[DispatchResult]:
    """Run one compiled program over many input streams; equal-length
    streams batch into a single 2D call (MIMD-style CTAs)."""
    return dispatch_stream_classes(compiled,
                                   transpose_stream_classes(streams),
                                   len(streams))


# -- metric estimation -------------------------------------------------------

def _direct_instr_weight(stmts) -> int:
    """Word-op weight of the instructions directly in ``stmts`` (loop
    bodies excluded); MATCH_CC counts its 8 basis-plane constraints."""
    weight = 0
    for stmt in stmts:
        if isinstance(stmt, Instr):
            weight += 8 if stmt.op is Op.MATCH_CC else 1
    return weight


def _loop_weights(program: Program) -> Dict[int, int]:
    """Loop id (codegen pre-order) → direct body word-op weight."""
    weights: Dict[int, int] = {}
    counter = [0]

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, WhileLoop):
                loop_id = counter[0]
                counter[0] += 1
                weights[loop_id] = _direct_instr_weight(stmt.body)
                visit(stmt.body)

    visit(program.statements)
    return weights


def _word_op_weights(program: Program) -> Tuple[int, Dict[int, int]]:
    """``(top-level weight, loop id -> body weight)`` of ``program``,
    memoised on the program: the tree is walked once, not per scan."""
    if program.word_op_weights is None:
        program.word_op_weights = (
            _direct_instr_weight(program.statements),
            _loop_weights(program))
    return program.word_op_weights


def estimate_metrics(program: Program, geometry: CTAGeometry, length: int,
                     stats: runtime.KernelStats) -> KernelMetrics:
    """Compute-side metrics of one compiled-kernel execution."""
    metrics = KernelMetrics()
    words = geometry.words(length)
    stream_bytes = -(-length // 8)

    weight, loop_weights = _word_op_weights(program)
    for loop_id, iterations in stats.loop_log:
        weight += loop_weights.get(loop_id, 0) * iterations
        metrics.loop_iterations += iterations

    metrics.thread_word_ops = weight * words
    metrics.guard_checks = stats.guard_checks
    metrics.guard_hits = stats.guard_hits
    metrics.fused_loops = 1  # the whole program is one fused kernel
    metrics.blocks_processed = geometry.block_count(length)
    metrics.output_bits = length * len(program.outputs)
    metrics.dram_read_bytes = len(program.inputs) * stream_bytes
    metrics.dram_write_bytes = len(program.outputs) * stream_bytes
    return metrics
