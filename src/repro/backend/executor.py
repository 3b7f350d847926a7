"""Compiled execution of whole engines: CTA dispatch and the metric
estimates the fast path reports.

:func:`dispatch_words` is the simulator analog of one fused kernel
launch over many CTAs: the caller transposes one input to its ``(8, W)``
basis words, the words are converted to kernel ints once
(:class:`~repro.backend.runtime.KernelInput`), each class table the
programs read is computed once, and programs sharing a kernel run as
one batch, a CTA at a time.  Several input streams are just more
independent dispatches — the paper's MIMD-style (group, stream) CTAs.

:func:`iter_dispatch` yields each CTA's outputs as the kernel left
them, ints or position lists, so a caller reads only the outputs it
needs (the engine skips the ones with no match in O(1));
:func:`dispatch_words` converts every output to a ``(W,)`` uint64 word
array at its own boundary.

Compiled execution produces bit-identical output streams but does not
*simulate* the schedule, so the metrics here are estimates: compute-side
counters (word ops, loop iterations, DRAM for inputs and outputs) are
derived from the program and the kernel's dynamic stats.  Compiled
engines run no zero guards and plan no barriers, so schedule-fidelity
counters (guard checks and hits, barriers, shared memory,
recomputation) stay zero here and are left to the simulating executors.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..gpu.machine import CTAGeometry
from ..gpu.metrics import KernelMetrics
from ..ir.instructions import Instr, Op, WhileLoop
from ..ir.program import Program
from . import runtime
from .compiled import ClassTable, CompiledProgram

DispatchResult = Tuple[Dict[str, np.ndarray], runtime.KernelStats]
#: one CTA's outputs as kernel markers, and its stats
KernelResult = Tuple[Dict[str, runtime.Marker], runtime.KernelStats]


def dispatch_words(compiled: Sequence[CompiledProgram], basis,
                   length: int) -> List[DispatchResult]:
    """Run every compiled program (any subset of one or more
    :func:`~repro.backend.compile_group` calls) over one ``(8, W)``
    basis word array: each class table they read is computed once,
    then programs sharing a kernel run as one batch, a CTA at a
    time.  Each output comes back as a ``(W,)`` uint64 word array."""
    results: List[Optional[DispatchResult]] = [None] * len(compiled)
    for index, (outputs, stats) in iter_dispatch(compiled, basis, length):
        results[index] = ({name: runtime.to_words(value, length)
                           for name, value in outputs.items()}, stats)
    return results  # type: ignore[return-value]


def iter_dispatch(compiled: Sequence[CompiledProgram], basis, length: int,
                  data: Optional[bytes] = None
                  ) -> Iterator[Tuple[int, KernelResult]]:
    """:func:`dispatch_words` as it runs, without the word conversion:
    ``(position in compiled, (output name → marker, stats))`` per
    program, a kernel batch at a time; each output is an int or a
    :class:`~repro.backend.runtime.Positions` list.  ``data`` is the
    input the basis words hold, which list-form ops read; it is
    derived from ``basis`` when a list first needs it and omitted.  A
    caller that consumes each result at once never holds every output
    stream beside the class table."""
    stream = runtime.KernelInput(basis, length, data)
    buckets: Dict[str, List[int]] = {}
    #: table -> its entries over this input
    entries: Dict[ClassTable, Tuple[int, ...]] = {}
    for index, program in enumerate(compiled):
        buckets.setdefault(program.kernel.fingerprint, []).append(index)
        if program.table not in entries:
            with obs.span("exec.classes", category="exec",
                          classes=len(program.table)):
                entries[program.table] = program.table.evaluate(stream)

    for indices in buckets.values():
        with obs.span("exec.batch", category="exec", ctas=len(indices),
                      kernel=compiled[indices[0]].kernel.fingerprint[:12]):
            batch = [(index, compiled[index].run(
                stream, entries[compiled[index].table]))
                for index in indices]
        yield from batch


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
    metrics.fused_loops = 1  # the whole program is one fused kernel
    metrics.blocks_processed = geometry.block_count(length)
    metrics.output_bits = length * len(program.outputs)
    metrics.dram_read_bytes = len(program.inputs) * stream_bytes
    metrics.dram_write_bytes = len(program.outputs) * stream_bytes
    return metrics
