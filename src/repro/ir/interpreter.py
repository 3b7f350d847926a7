"""Reference interpreter for bitstream programs.

Executes a :class:`Program` over unbounded (full-length) bit vectors —
the semantics icgrep implements on CPUs.  Every GPU execution scheme in
``repro.core`` is validated against this interpreter.

The interpreter can honour :class:`SkipGuard` markers (validating that
Zero Block Skipping never changes results) or ignore them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..bitstream.bitvector import BitVector
from ..bitstream.transpose import transpose
from .instructions import (CONST_END, CONST_ONES, CONST_START, CONST_TEXT,
                           CONST_ZERO, Instr, Op, SkipGuard, Stmt, WhileLoop)
from .program import Program


class ExecutionError(RuntimeError):
    """Raised when a program misbehaves at run time."""


#: Safety valve for fixpoint loops; lowered loops converge in at most
#: ``stream length`` iterations, so exceeding this indicates a bug.
MAX_LOOP_SLACK = 64


def make_environment(data: bytes) -> Dict[str, BitVector]:
    """Initial environment: transposed basis streams padded to n + 1."""
    n = len(data)
    env: Dict[str, BitVector] = {}
    for i, basis in enumerate(transpose(data)):
        env[f"b{i}"] = BitVector(basis.bits, n + 1)
    return env


def words_environment(basis, length: int) -> Dict[str, BitVector]:
    """:func:`make_environment`'s result read from an ``(8, W)`` basis
    word array padded to ``length`` bits with zeros (the layout
    :func:`repro.backend.basis_environment` produces), so one transpose
    of an input serves the simulating executors and the compiled
    kernels alike."""
    return {f"b{k}": BitVector(int.from_bytes(basis[k].tobytes(), "little"),
                               length)
            for k in range(8)}


def const_stream(kind: str, length: int) -> BitVector:
    """Materialise one of the constant streams for total length ``length``
    (``length`` = text length + 1, the cursor stream length)."""
    if kind == CONST_ZERO:
        return BitVector.zeros(length)
    if kind == CONST_ONES:
        return BitVector.ones(length)
    if kind == CONST_START:
        return BitVector(1, length)
    if kind == CONST_END:
        return BitVector(1 << (length - 1), length)
    if kind == CONST_TEXT:
        # 1 at every byte position, 0 at the final cursor slot.
        return BitVector((1 << (length - 1)) - 1, length)
    raise ExecutionError(f"unknown const kind {kind!r}")


def eval_instr(instr: Instr, env: Dict[str, BitVector],
               length: int) -> BitVector:
    """Evaluate one instruction against an environment."""
    if instr.op is Op.CONST:
        return const_stream(instr.const, length)
    if instr.op is Op.MATCH_CC:
        return _match_cc_direct(instr, env, length)
    args = []
    for name in instr.args:
        try:
            args.append(env[name])
        except KeyError:
            raise ExecutionError(f"undefined variable {name}") from None
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
    raise ExecutionError(f"unhandled op {instr.op}")


def _match_cc_direct(instr: Instr, env: Dict[str, BitVector],
                     length: int) -> BitVector:
    """Direct evaluation of an unexpanded MATCH_CC for a single byte:
    AND together the 8 basis-plane constraints (Section 2's example for
    'a').  Multi-byte classes must be expanded with :class:`CCCompiler`;
    keeping this primitive singleton-only keeps it a readable mirror of
    the paper's rule."""
    if instr.cc.is_empty():
        return BitVector.zeros(length)
    if not instr.cc.is_single():
        raise ExecutionError(
            "MATCH_CC supports only singleton classes directly; expand "
            "multi-byte classes with CCCompiler")
    byte = instr.cc.single_byte()
    result = const_stream(CONST_TEXT, length)
    for k in range(8):
        basis = env[f"b{k}"]
        if byte >> (7 - k) & 1:
            result = result & basis
        else:
            result = result.andn(basis)
    return result


class Interpreter:
    """Executes programs over full-length streams, statement by
    statement over Python big integers — the reference every execution
    substrate is checked against."""

    def __init__(self, honour_guards: bool = False,
                 max_loop_iterations: Optional[int] = None):
        self.honour_guards = honour_guards
        self.max_loop_iterations = max_loop_iterations
        self.loop_iteration_counts: List[int] = []
        self.instructions_executed = 0

    def run(self, program: Program, data: bytes) -> Dict[str, BitVector]:
        """Run ``program`` on ``data``; returns output streams by name."""
        env = make_environment(data)
        length = len(data) + 1
        self.loop_iteration_counts = []
        self.instructions_executed = 0
        self._exec_block(program.statements, env, length)
        return {out: env[var] for out, var in program.outputs.items()}

    def _exec_block(self, stmts: Sequence[Stmt], env: Dict[str, BitVector],
                    length: int) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            if isinstance(stmt, Instr):
                env[stmt.dest] = eval_instr(stmt, env, length)
                self.instructions_executed += 1
                index += 1
            elif isinstance(stmt, WhileLoop):
                self._exec_while(stmt, env, length)
                index += 1
            elif isinstance(stmt, SkipGuard):
                if self.honour_guards and not env[stmt.cond].any():
                    # Skipped definitions are provably zero (guard
                    # validation); materialise the zeros they stand for.
                    zero = BitVector.zeros(length)
                    for skipped in stmts[index + 1:
                                         index + 1 + stmt.skip_count]:
                        if isinstance(skipped, Instr):
                            env[skipped.dest] = zero
                    index += stmt.skip_count + 1
                else:
                    index += 1
            else:
                raise ExecutionError(f"unknown statement {stmt!r}")

    def _exec_while(self, loop: WhileLoop, env: Dict[str, BitVector],
                    length: int) -> None:
        limit = self.max_loop_iterations
        if limit is None:
            limit = length + MAX_LOOP_SLACK
        iterations = 0
        while env[loop.cond].any():
            if iterations >= limit:
                raise ExecutionError(
                    f"while({loop.cond}) exceeded {limit} iterations")
            self._exec_block(loop.body, env, length)
            iterations += 1
        self.loop_iteration_counts.append(iterations)


def match_positions(outputs: Dict[str, BitVector]) -> Dict[str, List[int]]:
    """Convert cursor-set outputs into match *end* positions (cursor - 1),
    dropping the empty match at cursor 0."""
    return {name: stream.match_ends()
            for name, stream in outputs.items()}


def run_regexes(patterns: Iterable, data: bytes) -> Dict[str, List[int]]:
    """Convenience: parse (strings) or take ASTs, lower, run, and report
    match end positions."""
    from ..regex.parser import parse
    from .lower import lower_group

    nodes = [parse(p) if isinstance(p, str) else p for p in patterns]
    program = lower_group(nodes)
    outputs = Interpreter().run(program, data)
    return match_positions(outputs)
