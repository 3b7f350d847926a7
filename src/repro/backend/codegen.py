"""Code generation for bitstream programs.

Lowers a :class:`~repro.ir.program.Program` into the source of ONE
specialised Python function over Python ints — the reproduction's
analog of the paper's NVRTC-compiled fused kernel.  Each bitstream is
one non-negative int with bit *i* at text position *i*, so every op is
one C loop over the whole stream and per-instruction dispatch
disappears entirely:

* AND / OR / XOR are the int operators; NOT is ``x ^ ONES``;
* ANDN is ``a ^ (a & b)``, which never builds a negative int (``~b``
  would take CPython's two's-complement slow path);
* the paper's ``>>`` (advance) is ``x << d``, masked back to ``L`` bits
  only when the shifted value outgrows them; the paper's ``<<`` is
  ``x >> d``;
* MATCH_CC expands to the 8 basis-plane constraints, and while-loops
  and zero guards become native control flow whose tests (``if x:``)
  are O(1).

Character classes are *parameters*, not constants: a MATCH_CC for byte
``c`` ANDs, per bit ``k`` of ``c``, either basis plane ``bk`` or its
complement, picked by index from the parameter tuple ``P``.  Programs
that differ only in their byte constants therefore share one kernel.
Each distinct parameter slot's 8-term expression is hoisted into one
prologue temporary ``_cc<j>`` that every consumer (and every loop
iteration) reuses — identical classes were deduplicated into one slot
during canonicalisation, so the 8 terms are paid once per class per
kernel call.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from ..ir.instructions import Op
from .fingerprint import CanonicalProgram

#: Extra iterations allowed beyond the stream length before a fixpoint
#: loop is declared divergent (mirrors the interpreter's slack).
LOOP_SLACK = 80

#: CPython rejects sources beyond 100 indentation levels, and every
#: honoured guard nests one ``if/else`` deeper.  Past this depth guards
#: are dropped instead — they are optimisation hints, and executing a
#: guarded span unconditionally is always safe.
MAX_GUARD_DEPTH = 40

#: One indentation level of the generated source.  Guards nest up to
#: MAX_GUARD_DEPTH deep, and one column per level keeps the source —
#: which every resident kernel holds — a third of its 4-column size.
INDENT = " "

#: Schema version of the generated source; bump on any change to the
#: emitted code shape so persisted on-disk kernels are invalidated.
#: 2: CC parameter slots deduplicated + hoisted into prologue temps.
#: 3: kernels over Python ints instead of uint64 word arrays.
CODEGEN_VERSION = 3

_BINOPS = {Op.AND.value: "&", Op.OR.value: "|", Op.XOR.value: "^"}

_CONST_EXPR = {
    "zero": "Z",
    "ones": "ONES",
    "start": "START",
    "end": "END",
    "text": "TEXT",
}

_CONST_INIT = {
    "Z": "Z = 0",
    "ONES": "ONES = S.ones",
    "START": "START = 1",
    "END": "END = 1 << (L - 1)",
    "TEXT": "TEXT = S.text",
}


class CompileError(ValueError):
    """Raised when a program cannot be lowered to a compiled kernel."""


class _Emitter:
    """Walks canonical tokens and accumulates source lines."""

    def __init__(self, canonical: CanonicalProgram):
        self.canonical = canonical
        self.lines: List[str] = []
        self.consts_used: Set[str] = set()
        self.cc_slots_used: Set[int] = set()
        self.loop_id = 0
        self.loop_depth = 0
        self.guards = 0
        self.loop_preinit: Set[str] = set()
        self._defined: Set[str] = set(canonical.tokens[1])  # inputs
        body, outputs = canonical.tokens[2], canonical.tokens[3]
        #: variable -> reads anywhere in the program, outputs included
        self._reads: Counter = Counter(outputs)
        for token in body:
            self._reads.update(_token_reads(token))
        #: top-level token index -> variables read there for the last
        #: time; see :func:`_last_reads`
        self._dead_after = _last_reads(body, set(outputs))

    def emit(self, line: str, depth: int) -> None:
        self.lines.append(INDENT * (depth + 1) + line)

    def emit_deletions(self, index: int, depth: int) -> None:
        """Free what top-level token ``index`` read last: a dead stream
        otherwise stays allocated until the kernel returns, and on long
        inputs the growing heap costs more than the ops themselves."""
        dead = None if self.loop_depth else self._dead_after.get(index)
        if dead:
            self.emit("del " + ", ".join(dead), depth)

    # -- expression fragments ---------------------------------------------

    def _instr_expr(self, token) -> str:
        _, op, _dest, args, shift, const, cc_token = token
        if op == Op.CONST.value:
            name = _CONST_EXPR[const]
            self.consts_used.add(name)
            return name
        if op == Op.MATCH_CC.value:
            return self._match_cc_expr(cc_token)
        if op in _BINOPS:
            return f"{args[0]} {_BINOPS[op]} {args[1]}"
        if op == Op.ANDN.value:
            return f"{args[0]} ^ ({args[0]} & {args[1]})"
        if op == Op.NOT.value:
            self.consts_used.add("ONES")
            return f"{args[0]} ^ ONES"
        if op == Op.COPY.value:
            return args[0]
        if op == Op.SHIFT.value:
            if shift > 0:
                self.consts_used.add("ONES")
                return f"{args[0]} << {shift}"
            return f"{args[0]} >> {-shift}"
        raise CompileError(f"unhandled op {op!r}")

    def _match_cc_expr(self, cc_token: str) -> str:
        if cc_token == "empty":
            self.consts_used.add("Z")
            return "Z"
        # Slot index comes from canonicalisation, which deduplicates
        # identical classes; the basis expression itself lives in the
        # prologue as _cc<slot>, shared by every consumer.
        slot = int(cc_token[2:])
        self.cc_slots_used.add(slot)
        return f"_cc{slot}"

    # -- statements --------------------------------------------------------

    def emit_instr(self, token, depth: int) -> None:
        dest = token[2]
        self.emit(f"{dest} = {self._instr_expr(token)}", depth)
        if token[1] == Op.SHIFT.value and token[4] > 0:
            # An advance can push bits past the stream end; comparing
            # against ONES is O(1), the mask only runs when they did.
            self.emit(f"if {dest} > ONES: {dest} &= ONES", depth)
        if dest not in self._defined:
            self._defined.add(dest)
            if self.loop_depth:
                # First definition inside a loop body: pre-initialise
                # so a loop that runs zero times leaves it zero, not
                # unbound.
                self.loop_preinit.add(dest)
                self.consts_used.add("Z")

    def emit_block(self, tokens, depth: int, start: int = 0,
                   stop: Optional[int] = None) -> None:
        """Emit ``tokens[start:stop]``."""
        stop = len(tokens) if stop is None else stop
        index = start
        while index < stop:
            token = tokens[index]
            kind = token[0]
            if kind == "guard":
                index = self.emit_guard(tokens, index, stop, depth)
                continue
            if kind == "instr":
                self.emit_instr(token, depth)
            elif kind == "while":
                self.emit_while(token, depth)
            else:
                raise CompileError(f"unknown token {kind!r}")
            self.emit_deletions(index, depth)
            index += 1

    def emit_while(self, token, depth: int) -> None:
        _, cond, body = token
        loop = self.loop_id
        self.loop_id += 1
        self.emit(f"_n{loop} = 0", depth)
        self.emit(f"while {cond}:", depth)
        self.emit(f"if _n{loop} >= _limit:", depth + 1)
        self.emit(f"raise RuntimeError('while loop {loop} diverged')",
                  depth + 2)
        self.emit(f"_n{loop} += 1", depth + 1)
        self.loop_depth += 1
        self.emit_block(body, depth + 1)
        self.loop_depth -= 1
        self.emit(f"_stats.loop_log.append(({loop}, _n{loop}))", depth)

    def emit_guard(self, tokens, index: int, stop: int, depth: int) -> int:
        """Emit the guard at ``tokens[index]``; returns the index after
        its span (clipped to the enclosing span's ``stop``)."""
        _, cond, skip_count = tokens[index]
        if not self.canonical.honour_guards or depth >= MAX_GUARD_DEPTH:
            # Guards are pure optimisation hints; executing the range
            # despite a zero condition never changes results.
            self.emit_deletions(index, depth)
            return index + 1
        end = min(index + 1 + skip_count, stop)
        self.guards += 1
        self.consts_used.add("Z")
        self.emit("_checks += 1", depth)
        self.emit(f"if not {cond}:", depth)
        self.emit("_hits += 1", depth + 1)
        self.emit_deletions(index, depth + 1)
        # Skipped definitions are provably zero (guard validation).
        zeroed = self._live_definitions(tokens[index + 1:end])
        if zeroed:
            self.emit(" = ".join(zeroed) + " = Z", depth + 1)
        self.emit("else:", depth)
        self.emit_deletions(index, depth + 1)
        self.emit_block(tokens, depth + 1, index + 1, end)
        return end

    def _live_definitions(self, span) -> List[str]:
        """Variables ``span`` defines whose skipped value (zero) can be
        observed: read outside the span, or read inside it at or before
        its first definition there (a loop's next iteration sees the
        zero).  The rest are dead when the span is skipped and are not
        assigned."""
        reads: Counter = Counter()
        defined: Dict[str, None] = {}
        read_first = set()
        for token in span:
            for name in _token_reads(token):
                reads[name] += 1
                if name not in defined:
                    read_first.add(name)
            if token[0] == "instr":
                defined.setdefault(token[2])
        return [name for name in defined
                if name in read_first or self._reads[name] > reads[name]]


def _token_reads(token) -> List[str]:
    """Every variable ``token`` reads: operands, a loop's or guard's
    condition, and everything a loop body reads."""
    if token[0] == "instr":
        return list(token[3])
    reads = [token[1]]
    if token[0] == "while":
        for inner in token[2]:
            reads += _token_reads(inner)
    return reads


def _last_reads(body, outputs) -> Dict[int, List[str]]:
    """Top-level token index -> the variables read there for the last
    time, outputs excepted.  Everything a loop reads counts at the
    loop's index (its next iteration may read it again), so a stream
    dies after the last top-level token that reads it.  Deleting there
    frees it on every path that reaches it: a variable a skipped guard
    span would have defined is zeroed when read later, and one first
    defined in a loop is pre-initialised."""
    last = {name: index for index, token in enumerate(body)
            for name in _token_reads(token)}
    dead: Dict[int, List[str]] = {}
    for name, index in last.items():
        if name not in outputs:
            dead.setdefault(index, []).append(name)
    return dead


def generate_source(canonical: CanonicalProgram,
                    name: str = "_kernel") -> str:
    """Full function source for one canonical program."""
    emitter = _Emitter(canonical)
    emitter.emit_block(canonical.tokens[2], 0)

    outputs = canonical.tokens[3]
    prologue = ["L = S.length", f"_limit = L + {LOOP_SLACK}",
                "B = S.planes"]
    for k, basis in enumerate(canonical.tokens[1]):
        if basis != f"b{k}":
            raise CompileError(f"unexpected input layout {basis!r}")
        prologue.append(f"b{k} = B[{k}]")
    prologue += [_CONST_INIT[const] for const in sorted(emitter.consts_used)]
    for slot in sorted(emitter.cc_slots_used):
        terms = " & ".join(f"B[P[{8 * slot + k}]]" for k in range(8))
        prologue.append(f"_cc{slot} = {terms}")
    prologue += [f"{var} = Z" for var in sorted(emitter.loop_preinit)]
    epilogue = []
    if emitter.guards:
        # Guard counters live in locals and reach the stats once.
        prologue.append("_checks = _hits = 0")
        epilogue = ["_stats.guard_checks += _checks",
                    "_stats.guard_hits += _hits"]
    epilogue.append(f"return ({', '.join(outputs)}{',' if outputs else ''})")
    return "\n".join([f"def {name}(S, P, _stats):"]
                     + [INDENT + line for line in prologue]
                     + (emitter.lines or [INDENT + "pass"])
                     + [INDENT + line for line in epilogue]) + "\n"
