"""Interleaved block-wise execution (Sections 3.3 and 4).

The whole bitstream program is fused into a single loop over blocks.
Each block is computed over a *window* extending ``lookback`` bits
before the block (and ``lookahead`` bits after), re-deriving every
intermediate from the globally-exact basis inputs — the paper's
selective recomputation.  Bits before the window read as zero, so a
window value at position ``p`` is trusted once ``p - lookback(v) >=
window start``; the window is sized so all block-region outputs are
trusted.

Dynamic dependencies (shifts inside ``while`` loops, Figure 7 (b)) are
handled exactly as the paper describes: the executor tracks cumulative
shift offsets at run time — loop counters multiply in naturally — and
the observed requirement of block *i* sizes the window of block
*i + 1*.  This is sound because any dependency chain alive at the next
block boundary was fully recomputed (hence measured) inside the current
window; see ``docs in overlap.py``.  Requirements beyond one block raise
:class:`OverlapLimitError` (the Section 8.2 limit) unless the
sequential-loop fallback — the paper's proposed future work — is
enabled.

Two modes:

* full interleaving (``segmented=False``): the DTM / SR / ZBS schemes;
  nothing is materialised except program outputs.
* segmented (``segmented=True``): the DTM- scheme — static analysis
  only.  Straight-line segments are fused and windowed with their exact
  static Δ; ``while`` loops run as sequential global passes with
  loop-carried streams materialised.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Union

from ..bitstream.bitvector import BitVector
from ..gpu.machine import DEFAULT_GEOMETRY, CTAGeometry
from ..gpu.memory import GlobalMemory, SharedMemory
from ..gpu.metrics import KernelMetrics
from ..ir.instructions import Instr, Op, SkipGuard, Stmt, WhileLoop
from ..ir.interpreter import const_stream
from ..ir.program import Program
from .barriers import BarrierPlan
from .overlap import (OverlapLimitError, RuntimeTracker, analyze_static,
                      region_bounds)
from .schemes import ExecutionResult

_LOOP_SLACK = 64


def const_window(kind: str, wstart: int, wend: int,
                 length: int) -> BitVector:
    """Window-relative slice of a constant stream of total ``length``."""
    return const_stream(kind, length).slice(wstart, wend)


class _WindowRun:
    """Execution state for one block's window."""

    def __init__(self, executor: "InterleavedExecutor", wstart: int,
                 wend: int, length: int, full_env: Dict[str, BitVector],
                 metrics: KernelMetrics, memory: GlobalMemory,
                 smem: SharedMemory, tracker: RuntimeTracker,
                 honour_guards: bool):
        self.executor = executor
        self.geometry = executor.geometry
        self.wstart = wstart
        self.wend = wend
        self.length = length
        self.full_env = full_env
        self.metrics = metrics
        self.memory = memory
        self.smem = smem
        self.tracker = tracker
        self.honour_guards = honour_guards
        self.env: Dict[str, BitVector] = {}
        self._loaded: Set[str] = set()
        self.window_words = self.geometry.words(wend - wstart)
        self.window_bytes = -(-(wend - wstart) // 8)

    # -- operand access ----------------------------------------------------

    def get(self, name: str) -> BitVector:
        value = self.env.get(name)
        if value is not None:
            return value
        full = self.full_env.get(name)
        if full is None:
            raise KeyError(f"undefined variable {name}")
        if name not in self._loaded:
            self._loaded.add(name)
            self.memory.read(self.window_bytes)
        value = full.slice(self.wstart, self.wend)
        self.env[name] = value
        return value

    # -- statement execution ---------------------------------------------------

    def exec_stmts(self, stmts: Sequence[Stmt]) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            if isinstance(stmt, Instr):
                self.exec_instr(stmt)
                index += 1
            elif isinstance(stmt, WhileLoop):
                self.exec_while(stmt)
                index += 1
            elif isinstance(stmt, SkipGuard):
                index += self.exec_guard(stmt, stmts, index)
            else:
                raise TypeError(f"unknown statement {stmt!r}")

    def exec_instr(self, instr: Instr) -> None:
        self.tracker.record(instr)
        self.env[instr.dest] = self._eval(instr)
        self.metrics.thread_word_ops += self.window_words
        if instr.op is Op.SHIFT:
            self._account_shift(instr)

    def _eval(self, instr: Instr) -> BitVector:
        if instr.op is Op.CONST:
            return const_window(instr.const, self.wstart, self.wend,
                                self.length)
        if instr.op is Op.MATCH_CC:
            return self._match_cc(instr)
        args = [self.get(a) for a in instr.args]
        if instr.op is Op.AND:
            return args[0] & args[1]
        if instr.op is Op.OR:
            return args[0] | args[1]
        if instr.op is Op.XOR:
            return args[0] ^ args[1]
        if instr.op is Op.ANDN:
            return args[0].andn(args[1])
        if instr.op is Op.NOT:
            return ~args[0]
        if instr.op is Op.SHIFT:
            return args[0].advance(instr.shift)
        if instr.op is Op.COPY:
            return args[0]
        raise TypeError(f"unhandled op {instr.op}")

    def _match_cc(self, instr: Instr) -> BitVector:
        if instr.cc.is_empty():
            return BitVector.zeros(self.wend - self.wstart)
        byte = instr.cc.single_byte()
        result = const_window("text", self.wstart, self.wend, self.length)
        for k in range(8):
            basis = self.get(f"b{k}")
            if byte >> (7 - k) & 1:
                result = result & basis
            else:
                result = result.andn(basis)
        self.metrics.thread_word_ops += 8 * self.window_words
        return result

    def _account_shift(self, instr: Instr) -> None:
        plan = self.executor.barrier_plan
        info = plan.lookup(instr) if plan is not None else None
        if info is None or info.is_leader:
            # Two barriers per SHIFT group: inputs visible in shared
            # memory before, outputs ready after (Section 5.1).
            self.metrics.barriers += 2
            stored = info.stored_vars if info is not None else 1
            self.smem.store(stored * self.window_bytes)
        # Every shift reads its word and a neighbour word.
        self.smem.load(2 * self.window_bytes)

    def exec_while(self, loop: WhileLoop) -> None:
        limit = (self.wend - self.wstart) + _LOOP_SLACK
        iterations = 0
        while True:
            # Block-wide reduction of the condition (one barrier).
            self.metrics.thread_word_ops += self.window_words
            self.metrics.barriers += 1
            if not self.get(loop.cond).any():
                break
            if iterations >= limit:
                raise RuntimeError(f"while({loop.cond}) diverged in window")
            iterations += 1
            self.metrics.loop_iterations += 1
            self.exec_stmts(loop.body)

    def exec_guard(self, guard: SkipGuard, stmts: Sequence[Stmt],
                   index: int) -> int:
        """Returns how many statements to advance past the guard."""
        self.metrics.guard_checks += 1
        self.metrics.thread_word_ops += self.window_words  # atomicOr reduce
        self.metrics.barriers += 1
        if not self.honour_guards or self.get(guard.cond).any():
            return 1
        # Skip: guarded range is provably zero; dependency bounds are
        # still propagated so later windows stay conservatively sized.
        self.metrics.guard_hits += 1
        zero = BitVector.zeros(self.wend - self.wstart)
        for stmt in stmts[index + 1:index + 1 + guard.skip_count]:
            if isinstance(stmt, SkipGuard):
                continue  # a nested guard is skipped along with its range
            assert isinstance(stmt, Instr), "guards never span control flow"
            self.tracker.record(stmt)
            self.env[stmt.dest] = zero
            self.metrics.skipped_word_ops += self.window_words
        return guard.skip_count + 1


class InterleavedExecutor:
    """Block-interleaved executor implementing DTM (- SR / ZBS via a
    pre-transformed program and barrier plan)."""

    def __init__(self, geometry: CTAGeometry = DEFAULT_GEOMETRY,
                 barrier_plan: Optional[BarrierPlan] = None,
                 honour_guards: bool = False,
                 segmented: bool = False,
                 loop_fallback: bool = False,
                 smem_capacity_bytes: int = 96 * 1024):
        self.geometry = geometry
        self.barrier_plan = barrier_plan
        self.honour_guards = honour_guards
        self.segmented = segmented
        self.loop_fallback = loop_fallback
        self.smem_capacity_bytes = smem_capacity_bytes

    def run(self, program: Program,
            planes: Dict[str, BitVector]) -> ExecutionResult:
        """Run ``program`` over one input's basis ``planes`` (``b0`` ..
        ``b7``, each ``len(data) + 1`` bits: what
        :func:`~repro.ir.interpreter.make_environment` builds)."""
        metrics = KernelMetrics()
        memory = GlobalMemory(metrics)
        smem = SharedMemory(metrics, capacity_bytes=self.smem_capacity_bytes)
        full_env = dict(planes)
        length = planes["b0"].length

        if self.segmented:
            runner = _SegmentedRunner(self, program, full_env, length,
                                      metrics, memory, smem)
            outputs = runner.run()
        else:
            try:
                runner = _FusedRunner(self, program, full_env, length,
                                      metrics, memory, smem)
                outputs = runner.run()
            except OverlapLimitError:
                if not self.loop_fallback:
                    raise
                # The paper's proposed fallback (Section 8.2): generate
                # the loop-carried streams with sequential passes and
                # let block-wise execution consume them — which is the
                # segmented (DTM-) schedule.  Restart cleanly so the
                # metrics describe the executed schedule.
                metrics = KernelMetrics()
                metrics.loop_fallbacks += 1
                memory = GlobalMemory(metrics)
                smem = SharedMemory(metrics,
                                    capacity_bytes=self.smem_capacity_bytes)
                full_env = dict(planes)
                runner = _SegmentedRunner(self, program, full_env, length,
                                          metrics, memory, smem)
                outputs = runner.run()
        return ExecutionResult(outputs=outputs, metrics=metrics)


class _FusedRunner:
    """Whole-program single-loop execution (DTM / SR / ZBS)."""

    def __init__(self, executor, program, full_env, length, metrics,
                 memory, smem):
        self.executor = executor
        self.program = program
        self.full_env = full_env
        self.length = length
        self.metrics = metrics
        self.memory = memory
        self.smem = smem
        self.static = analyze_static(program)

    def run(self) -> Dict[str, BitVector]:
        geometry = self.executor.geometry
        metrics = self.metrics
        metrics.fused_loops += 1
        metrics.static_overlap_bits = max(metrics.static_overlap_bits,
                                          self.static.delta)
        max_overlap = geometry.max_overlap_bits
        accumulators = {out: 0 for out in self.program.outputs}
        lookback_req = min(self.static.lookback, max_overlap)
        lookahead_req = self.static.lookahead

        for index, start, end in geometry.iter_blocks(self.length):
            lookback = geometry.align_up(min(lookback_req, max_overlap,
                                             start))
            lookahead = lookahead_req
            while True:
                wstart = start - lookback
                wend = min(self.length, end + lookahead)
                run = _WindowRun(self.executor, wstart, wend, self.length,
                                 self.full_env, metrics, self.memory,
                                 self.smem, RuntimeTracker(
                                     self.program.inputs),
                                 self.executor.honour_guards)
                run.exec_stmts(self.program.statements)
                needed_ahead = run.tracker.max_lookahead
                if wend == self.length or needed_ahead <= wend - end:
                    break
                if needed_ahead > max_overlap:
                    raise OverlapLimitError(
                        f"block {index} needs {needed_ahead} lookahead "
                        f"bits, limit {max_overlap}")
                lookahead = geometry.align_up(needed_ahead)
                metrics.window_reruns += 1

            self._account_block(run, index, start, end, lookback)
            for out, var in self.program.outputs.items():
                block = run.env[var].slice(start - run.wstart,
                                           end - run.wstart)
                accumulators[out] |= block.bits << start
                self.memory.write(-(-(end - start) // 8))

            # The observed requirement of this block sizes the next
            # window; growth through one block is bounded by the block.
            observed = run.tracker.max_lookback
            bounded = min(observed, lookback + (end - start))
            if bounded > max_overlap:
                raise OverlapLimitError(
                    f"block {index} observed a {observed}-bit dependency; "
                    f"interleaved execution supports at most {max_overlap} "
                    f"(enable loop_fallback or use a sequential scheme)")
            lookback_req = max(self.static.lookback, bounded)

        return {out: BitVector(bits, self.length)
                for out, bits in accumulators.items()}

    def _account_block(self, run: _WindowRun, index: int, start: int,
                       end: int, lookback: int) -> None:
        metrics = self.metrics
        metrics.blocks_processed += 1
        metrics.output_bits += end - start
        metrics.recomputed_bits += (run.wend - run.wstart) - (end - start)
        dynamic = max(0, lookback - self.static.lookback)
        metrics.dynamic_overlap_total += dynamic
        metrics.dynamic_overlap_max = max(metrics.dynamic_overlap_max,
                                          dynamic)


_SegUnit = Union[List[Instr], WhileLoop]


def split_segments(stmts: Sequence[Stmt]) -> List[_SegUnit]:
    """Maximal straight-line segments; while loops stand alone.
    Guards are dropped (ZBS applies only to full interleaving)."""
    units: List[_SegUnit] = []
    current: List[Instr] = []
    for stmt in stmts:
        if isinstance(stmt, Instr):
            current.append(stmt)
        elif isinstance(stmt, WhileLoop):
            if current:
                units.append(current)
                current = []
            units.append(stmt)
        elif isinstance(stmt, SkipGuard):
            continue
    if current:
        units.append(current)
    return units


class _SegmentedRunner:
    """DTM-: fuse and window straight-line segments only; while loops
    execute as sequential global passes with materialised streams."""

    def __init__(self, executor, program, full_env, length, metrics,
                 memory, smem):
        self.executor = executor
        self.program = program
        self.full_env = full_env
        self.length = length
        self.metrics = metrics
        self.memory = memory
        self.smem = smem
        self.stream_bytes = -(-length // 8)
        self.crossing = self._crossing_vars()

    def run(self) -> Dict[str, BitVector]:
        self._count_static_loops(self.program.statements)
        self._exec_units(self.program.statements)
        return {out: self.full_env[var]
                for out, var in self.program.outputs.items()}

    def _count_static_loops(self, stmts) -> None:
        for unit in split_segments(stmts):
            if isinstance(unit, WhileLoop):
                self._count_static_loops(unit.body)
            else:
                self.metrics.fused_loops += 1

    def _crossing_vars(self) -> Set[str]:
        """Variables live across segment boundaries (materialised)."""
        crossing: Set[str] = set(self.program.outputs.values())
        defined_in: Dict[str, int] = {}
        seg_id = 0

        def visit(stmts):
            nonlocal seg_id
            for unit in split_segments(stmts):
                if isinstance(unit, WhileLoop):
                    crossing.add(unit.cond)
                    visit(unit.body)
                    seg_id += 1
                    continue
                for instr in unit:
                    for arg in instr.args:
                        if defined_in.get(arg, -1) != seg_id:
                            crossing.add(arg)
                    if instr.dest in defined_in:
                        crossing.add(instr.dest)
                    defined_in[instr.dest] = seg_id
                seg_id += 1

        visit(self.program.statements)
        return crossing

    def _exec_units(self, stmts: Sequence[Stmt]) -> None:
        for unit in split_segments(stmts):
            if isinstance(unit, WhileLoop):
                self._exec_while(unit)
            else:
                self._exec_segment(unit)

    def _exec_while(self, loop: WhileLoop) -> None:
        words = self.executor.geometry.words(self.length)
        limit = self.length + _LOOP_SLACK
        iterations = 0
        while True:
            self.memory.read(self.stream_bytes)
            self.metrics.thread_word_ops += words
            self.metrics.barriers += 1
            if not self.full_env[loop.cond].any():
                break
            if iterations >= limit:
                raise RuntimeError(f"while({loop.cond}) diverged")
            iterations += 1
            self.metrics.loop_iterations += 1
            self._exec_units(loop.body)

    def _exec_segment(self, instrs: List[Instr]) -> None:
        geometry = self.executor.geometry
        _, lookback, lookahead = region_bounds(instrs)
        lookback = geometry.align_up(lookback)
        self.metrics.static_overlap_bits = max(
            self.metrics.static_overlap_bits, lookback + lookahead)
        accumulators: Dict[str, int] = {}
        live_out = [i.dest for i in instrs if i.dest in self.crossing]

        for _index, start, end in geometry.iter_blocks(self.length):
            wstart = max(0, start - lookback)
            wend = min(self.length, end + lookahead)
            run = _WindowRun(self.executor, wstart, wend, self.length,
                             self.full_env, self.metrics, self.memory,
                             self.smem,
                             RuntimeTracker(self.full_env.keys()),
                             honour_guards=False)
            run.exec_stmts(instrs)
            self.metrics.blocks_processed += 1
            self.metrics.output_bits += end - start
            self.metrics.recomputed_bits += (wend - wstart) - (end - start)
            for var in set(live_out):
                block = run.env[var].slice(start - wstart, end - wstart)
                accumulators[var] = accumulators.get(var, 0) \
                    | (block.bits << start)
                self.memory.write(-(-(end - start) // 8))

        for var, bits in accumulators.items():
            self.full_env[var] = BitVector(bits, self.length)
            self.memory.allocate_stream(var, self.stream_bytes)
