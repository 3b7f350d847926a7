"""Bitstream programs and a builder for constructing them.

A :class:`Program` is the unit BitGen compiles for one regex group
(Section 3.1): it consumes the 8 transposed basis streams ``b0..b7``
and produces one match-marker stream per regex.

:class:`ProgramBuilder` provides the construction API used by the
lowering pass, with value numbering so identical subexpressions (most
importantly shared character classes) are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .instructions import (CONST_END, CONST_ONES, CONST_START, CONST_TEXT,
                           CONST_ZERO, Instr, Op, SkipGuard, Stmt, WhileLoop,
                           count_ops, iter_instrs, render_stmt)

BASIS_VARS = tuple(f"b{i}" for i in range(8))


@dataclass
class Program:
    """A bitstream program over the basis streams."""

    name: str
    statements: List[Stmt] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    inputs: Tuple[str, ...] = BASIS_VARS
    #: static word-op weights ``(top level, loop id -> body)``, walked
    #: once on first use by :func:`repro.backend.estimate_metrics`
    #: (finished programs are never modified; passes build new ones)
    word_op_weights: Optional[Tuple[int, Dict[int, int]]] = field(
        default=None, init=False, repr=False, compare=False)

    def render(self) -> str:
        lines = [f"# program {self.name}",
                 f"# inputs: {', '.join(self.inputs)}"]
        for stmt in self.statements:
            lines.append(render_stmt(stmt))
        for out, var in self.outputs.items():
            lines.append(f"# output {out} = {var}")
        return "\n".join(lines)

    def instruction_count(self) -> int:
        return sum(1 for _ in iter_instrs(self.statements))

    def op_counts(self) -> dict:
        return count_ops(self.statements)

    def while_count(self) -> int:
        return self.op_counts()["while"]

    def variables(self) -> List[str]:
        """All variables defined by the program, in first-definition order."""
        seen: List[str] = []

        def visit(stmts):
            for stmt in stmts:
                if isinstance(stmt, Instr):
                    if stmt.dest not in seen:
                        seen.append(stmt.dest)
                elif isinstance(stmt, WhileLoop):
                    visit(stmt.body)

        visit(self.statements)
        return seen

    def validate(self) -> None:
        """Check def-before-use and guard sanity; raises ValueError."""
        defined = set(self.inputs)

        def visit(stmts):
            for index, stmt in enumerate(stmts):
                if isinstance(stmt, Instr):
                    for arg in stmt.args:
                        if arg not in defined:
                            raise ValueError(
                                f"{stmt.render()}: undefined operand {arg}")
                    defined.add(stmt.dest)
                elif isinstance(stmt, WhileLoop):
                    if stmt.cond not in defined:
                        raise ValueError(
                            f"while({stmt.cond}): undefined condition")
                    visit(stmt.body)
                elif isinstance(stmt, SkipGuard):
                    if stmt.cond not in defined:
                        raise ValueError(
                            f"guard({stmt.cond}): undefined condition")
                    remaining = len(stmts) - index - 1
                    if stmt.skip_count > remaining:
                        raise ValueError(
                            f"guard skips {stmt.skip_count} but only "
                            f"{remaining} statements follow")
                    # A guard may not skip over structured control flow.
                    span = stmts[index + 1:index + 1 + stmt.skip_count]
                    if any(isinstance(s, WhileLoop) for s in span):
                        raise ValueError("guard skips over a while loop")

        visit(self.statements)
        for out, var in self.outputs.items():
            if var not in defined:
                raise ValueError(f"output {out} refers to undefined {var}")


class ProgramBuilder:
    """Constructs a :class:`Program` with value numbering.

    Pure expressions (logic over never-reassigned variables) are
    deduplicated; anything computed inside a while loop or applied to a
    reassigned variable is not, since its value is iteration-dependent.

    ``value_number=False`` turns the deduplication off, emitting one
    instruction per construction call — the raw syntax-directed
    translation an ``opt_level=0`` engine compiles, against which the
    pass pipeline's CSE is measured.
    """

    def __init__(self, name: str = "program",
                 value_number: bool = True):
        self.program = Program(name=name)
        self.value_number = value_number
        self._counter = 0
        self._cse: Dict[tuple, str] = {}
        self._stack: List[List[Stmt]] = [self.program.statements]
        self._mutable: set = set()

    # -- plumbing ------------------------------------------------------------

    def _fresh(self) -> str:
        self._counter += 1
        return f"S{self._counter}"

    def _emit(self, instr: Instr) -> str:
        self._stack[-1].append(instr)
        return instr.dest

    def _in_loop(self) -> bool:
        return len(self._stack) > 1

    def _pure(self, *args: str) -> bool:
        return not any(a in self._mutable for a in args)

    def _value_numbered(self, key: tuple, make) -> str:
        if not self.value_number:
            return make()
        # Reusing a cached pure value is safe anywhere, but caching a new
        # one is only safe at top level: a definition inside a loop body
        # may execute zero times.
        pure = self._pure(*(k for k in key if isinstance(k, str)))
        if pure and key in self._cse:
            return self._cse[key]
        var = make()
        if pure and not self._in_loop():
            self._cse[key] = var
        return var

    # -- instruction emitters -------------------------------------------------

    def _binop(self, op: Op, a: str, b: str) -> str:
        key = (op.value, a, b) if op is not Op.AND and op is not Op.OR \
            else (op.value,) + tuple(sorted((a, b)))
        return self._value_numbered(
            key, lambda: self._emit(Instr(self._fresh(), op, (a, b))))

    def and_(self, a: str, b: str) -> str:
        return self._binop(Op.AND, a, b)

    def or_(self, a: str, b: str) -> str:
        return self._binop(Op.OR, a, b)

    def xor(self, a: str, b: str) -> str:
        return self._binop(Op.XOR, a, b)

    def andn(self, a: str, b: str) -> str:
        return self._binop(Op.ANDN, a, b)

    def not_(self, a: str) -> str:
        return self._value_numbered(
            ("not", a),
            lambda: self._emit(Instr(self._fresh(), Op.NOT, (a,))))

    def advance(self, a: str, distance: int) -> str:
        if distance == 0:
            return a
        return self._value_numbered(
            ("shift", a, distance),
            lambda: self._emit(Instr(self._fresh(), Op.SHIFT, (a,),
                                     shift=distance)))

    def const(self, kind: str) -> str:
        return self._value_numbered(
            ("const", kind),
            lambda: self._emit(Instr(self._fresh(), Op.CONST, const=kind)))

    def zeros(self) -> str:
        return self.const(CONST_ZERO)

    def ones(self) -> str:
        return self.const(CONST_ONES)

    def start_marker(self) -> str:
        return self.const(CONST_START)

    def end_marker(self) -> str:
        return self.const(CONST_END)

    def text_mask(self) -> str:
        return self.const(CONST_TEXT)

    def match_cc(self, cc) -> str:
        return self._value_numbered(
            ("match_cc", cc),
            lambda: self._emit(Instr(self._fresh(), Op.MATCH_CC, cc=cc)))

    def copy(self, a: str) -> str:
        """A fresh, reassignable variable initialised to ``a``."""
        dest = self._fresh()
        self._emit(Instr(dest, Op.COPY, (a,)))
        self._mutable.add(dest)
        return dest

    def assign(self, dest: str, src: str) -> None:
        """Reassign an existing (loop-carried) variable."""
        self._mutable.add(dest)
        self._emit(Instr(dest, Op.COPY, (src,)))

    # -- control flow ----------------------------------------------------------

    def while_loop(self, cond: str) -> "_WhileContext":
        """``with builder.while_loop(cond): ...`` builds a loop body."""
        return _WhileContext(self, cond)

    # -- outputs -----------------------------------------------------------------

    def mark_output(self, name: str, var: str) -> None:
        self.program.outputs[name] = var

    def finish(self) -> Program:
        self.program.validate()
        return self.program


class _WhileContext:
    def __init__(self, builder: ProgramBuilder, cond: str):
        self.builder = builder
        self.loop = WhileLoop(cond=cond)

    def __enter__(self) -> WhileLoop:
        self.builder._stack[-1].append(self.loop)
        self.builder._stack.append(self.loop.body)
        self.builder._mutable.add(self.loop.cond)
        return self.loop

    def __exit__(self, exc_type, exc, tb) -> Optional[bool]:
        self.builder._stack.pop()
        return None
