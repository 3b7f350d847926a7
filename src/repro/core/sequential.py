"""Sequential block-wise execution — the paper's baseline (Section 3.2).

Each instruction runs in its own loop over all blocks of its operand
bitstreams; only maximal runs of *bitwise* instructions are fused
(the Table 3 ``Base`` row).  Every value that crosses a pass boundary
is materialised in global memory, which produces the poor data reuse
and footprint the paper quantifies in Table 4.

Functionally the result equals the reference interpreter (pass-splitting
cannot change values); what this executor adds is the exact accounting
of the schedule: loops, DRAM traffic, materialised streams, barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Union

from ..bitstream.bitvector import BitVector
from ..gpu.machine import DEFAULT_GEOMETRY, CTAGeometry
from ..gpu.memory import GlobalMemory
from ..gpu.metrics import KernelMetrics
from ..ir.instructions import Instr, Op, SkipGuard, Stmt, WhileLoop
from ..ir.interpreter import eval_instr, make_environment
from ..ir.program import Program
from .schemes import ExecutionResult

#: Opcodes the baseline may fuse into one loop (thread-local data only).
FUSABLE_OPS = {Op.AND, Op.OR, Op.XOR, Op.ANDN, Op.NOT, Op.COPY, Op.CONST,
               Op.MATCH_CC}


@dataclass
class _Pass:
    """One fused loop of the baseline schedule."""

    instrs: List[Instr] = field(default_factory=list)
    is_shift: bool = False


Unit = Union[_Pass, WhileLoop]


def split_passes(stmts: Sequence[Stmt]) -> List[Unit]:
    """Split a statement list into baseline passes: bitwise runs fuse,
    every SHIFT is its own pass, while loops are separate units.
    Guards are dropped — sequential execution cannot exploit them
    (performance challenge (c) of Section 3.2)."""
    units: List[Unit] = []
    current: List[Instr] = []

    def flush():
        nonlocal current
        if current:
            units.append(_Pass(instrs=current))
            current = []

    for stmt in stmts:
        if isinstance(stmt, Instr):
            if stmt.op in FUSABLE_OPS:
                current.append(stmt)
            else:
                flush()
                units.append(_Pass(instrs=[stmt], is_shift=True))
        elif isinstance(stmt, WhileLoop):
            flush()
            units.append(stmt)
        elif isinstance(stmt, SkipGuard):
            continue
    flush()
    return units


def _loop_ids(program: Program) -> Dict[int, int]:
    """``id(WhileLoop)`` → the pre-order index the compiled kernel
    reports trip counts under (codegen numbers loops at entry)."""
    ids: Dict[int, int] = {}
    counter = [0]

    def visit(stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, WhileLoop):
                ids[id(stmt)] = counter[0]
                counter[0] += 1
                visit(stmt.body)

    visit(program.statements)
    return ids


class SequentialExecutor:
    """Executes a program in the baseline schedule.

    ``backend="compiled"`` computes the output streams with the cached
    compiled kernel (:mod:`repro.backend`) and *replays* the baseline
    schedule accounting arithmetically — pass structure, loads, stores
    and barriers are static, and the kernel reports the while-loop trip
    counts — so the metrics match the simulating path exactly while the
    values never go through per-instruction dispatch.
    """

    def __init__(self, geometry: CTAGeometry = DEFAULT_GEOMETRY,
                 backend: str = "simulate"):
        if backend not in ("simulate", "compiled"):
            raise ValueError(f"unknown backend {backend!r}")
        self.geometry = geometry
        self.backend = backend

    def run(self, program: Program, data: bytes) -> ExecutionResult:
        if self.backend == "compiled":
            return self._run_compiled(program, data)
        metrics = KernelMetrics()
        memory = GlobalMemory(metrics)
        env = make_environment(data)
        length = len(data) + 1
        stream_bytes = -(-length // 8)

        materialised = self._materialised_vars(program)
        self._count_static_loops(program.statements, metrics)
        self._exec(program.statements, env, length, stream_bytes,
                   materialised, metrics, memory)

        outputs = {out: env[var] for out, var in program.outputs.items()}
        metrics.output_bits += length * len(outputs)
        return ExecutionResult(outputs=outputs, metrics=metrics)

    # -- compiled fast path -------------------------------------------------

    def _run_compiled(self, program: Program, data: bytes) -> ExecutionResult:
        from ..backend import KernelInput, compile_program

        # The baseline drops guards, so compile without honouring them.
        compiled = compile_program(program, honour_guards=False)
        raw, stats = compiled.run(KernelInput.of(data))
        length = len(data) + 1

        metrics = KernelMetrics()
        memory = GlobalMemory(metrics)
        stream_bytes = -(-length // 8)
        materialised = self._materialised_vars(program)
        self._count_static_loops(program.statements, metrics)
        counts = {loop_id: list(trips)
                  for loop_id, trips in stats.counts_by_loop().items()}
        self._replay(program.statements, _loop_ids(program), counts,
                     length, stream_bytes, materialised, metrics, memory)

        outputs = {out: BitVector(raw[out], length)
                   for out in program.outputs}
        metrics.output_bits += length * len(outputs)
        return ExecutionResult(outputs=outputs, metrics=metrics)

    def _replay(self, stmts, loop_ids, counts, length, stream_bytes,
                materialised, metrics, memory) -> None:
        """Mirror :meth:`_exec`'s accounting without touching values."""
        words = self.geometry.words(length)
        for unit in split_passes(stmts):
            if isinstance(unit, WhileLoop):
                trips = counts[loop_ids[id(unit)]]
                iterations = trips.pop(0) if trips else 0
                for _ in range(iterations + 1):
                    memory.read(stream_bytes)       # popcount reduction
                    metrics.thread_word_ops += words
                    metrics.barriers += 1
                metrics.loop_iterations += iterations
                for _ in range(iterations):
                    self._replay(unit.body, loop_ids, counts, length,
                                 stream_bytes, materialised, metrics,
                                 memory)
                continue
            loaded: Set[str] = set()
            defined: Set[str] = set()
            for instr in unit.instrs:
                for arg in instr.args:
                    if arg not in defined and arg not in loaded:
                        loaded.add(arg)
                        memory.read(stream_bytes)
                if unit.is_shift:
                    memory.read(self.geometry.block_bytes)
                metrics.thread_word_ops += words
                defined.add(instr.dest)
            for var in defined:
                if var in materialised:
                    memory.write(stream_bytes)
                    memory.allocate_stream(var, stream_bytes)
            metrics.blocks_processed += self.geometry.block_count(length)
            metrics.barriers += 1

    # -- schedule analysis -------------------------------------------------

    def _materialised_vars(self, program: Program) -> Set[str]:
        """Variables that live across pass boundaries and therefore must
        be stored to global memory: used in a different pass than their
        defining one, loop-carried, or program outputs."""
        defined_in: Dict[str, int] = {}
        crossing: Set[str] = set(program.outputs.values())
        pass_id = 0

        def visit(stmts: Sequence[Stmt], loop_depth: int) -> None:
            nonlocal pass_id
            for unit in split_passes(stmts):
                if isinstance(unit, WhileLoop):
                    crossing.add(unit.cond)
                    visit(unit.body, loop_depth + 1)
                    pass_id += 1
                    continue
                for instr in unit.instrs:
                    for arg in instr.args:
                        if defined_in.get(arg, -1) != pass_id:
                            crossing.add(arg)
                    if instr.dest in defined_in:
                        crossing.add(instr.dest)  # reassignment
                    defined_in[instr.dest] = pass_id
                pass_id += 1

        visit(program.statements, 0)
        return crossing

    def _count_static_loops(self, stmts: Sequence[Stmt],
                            metrics: KernelMetrics) -> None:
        for unit in split_passes(stmts):
            if isinstance(unit, WhileLoop):
                self._count_static_loops(unit.body, metrics)
            else:
                metrics.fused_loops += 1

    # -- execution ------------------------------------------------------------

    def _exec(self, stmts, env, length, stream_bytes, materialised,
              metrics, memory) -> None:
        words = self.geometry.words(length)
        for unit in split_passes(stmts):
            if isinstance(unit, WhileLoop):
                self._exec_while(unit, env, length, stream_bytes,
                                 materialised, metrics, memory)
                continue
            self._exec_pass(unit, env, length, stream_bytes, words,
                            materialised, metrics, memory)

    def _exec_pass(self, unit: _Pass, env, length, stream_bytes, words,
                   materialised, metrics, memory) -> None:
        loaded: Set[str] = set()
        defined: Set[str] = set()
        for instr in unit.instrs:
            for arg in instr.args:
                # Operands defined in this very pass stay in registers.
                if arg not in defined and arg not in loaded:
                    loaded.add(arg)
                    memory.read(stream_bytes)
            if unit.is_shift:
                # Shifting loads the adjacent block too (Figure 5 (c)).
                memory.read(self.geometry.block_bytes)
            env[instr.dest] = eval_instr(instr, env, length)
            metrics.thread_word_ops += words
            defined.add(instr.dest)
        for var in defined:
            if var in materialised:
                memory.write(stream_bytes)
                memory.allocate_stream(var, stream_bytes)
        metrics.blocks_processed += self.geometry.block_count(length)
        metrics.barriers += 1  # inter-loop dependency barrier

    def _exec_while(self, loop: WhileLoop, env, length, stream_bytes,
                    materialised, metrics, memory) -> None:
        words = self.geometry.words(length)
        limit = length + 64
        iterations = 0
        while True:
            # Global popcount reduction over the condition stream.
            memory.read(stream_bytes)
            metrics.thread_word_ops += words
            metrics.barriers += 1
            if not env[loop.cond].any():
                break
            if iterations >= limit:
                raise RuntimeError(f"while({loop.cond}) diverged")
            iterations += 1
            metrics.loop_iterations += 1
            self._exec(loop.body, env, length, stream_bytes,
                       materialised, metrics, memory)
