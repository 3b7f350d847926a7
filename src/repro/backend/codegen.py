"""Code generation for bitstream programs.

Lowers a canonical program (:mod:`repro.backend.fingerprint`) into the
source of ONE specialised Python function over Python ints — the
reproduction's analog of the paper's NVRTC-compiled fused kernel.  Each
bitstream is one non-negative int with bit *i* at text position *i*, so
every op is one C loop over the whole stream and per-instruction
dispatch disappears entirely:

* AND / OR / XOR are the int operators; NOT is ``x ^ ONES``;
* ANDN is ``a ^ (a & b)``, which never builds a negative int (``~b``
  would take CPython's two's-complement slow path);
* the paper's ``>>`` (advance) is ``x << d``, masked back to ``L`` bits
  only when the shifted value outgrows them; the paper's ``<<`` is
  ``x >> d``;
* while-loops and zero guards become native control flow whose tests
  (``if x:``) are O(1).

Character classes never reach a group kernel.  Canonicalisation moved
every class stream into the engine's class table; a kernel reads each
of its parameter slots once, in the prologue, as ``c<j> = T[P[j]]``:
``T`` is the table computed for this input, ``P`` the program's slot →
table index binding.  Programs that differ only in their classes
therefore share one kernel.

The table itself is one more kernel, emitted by the same walker from
:class:`~repro.backend.fingerprint.CanonicalClasses`: straight-line
code over the 8 basis planes that computes each distinct class once,
shares sub-expressions, and frees every intermediate after its last
use.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from ..ir.instructions import Op
from ..ir.program import BASIS_VARS
from .fingerprint import CanonicalClasses

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
#: 4: class streams read from a shared class table (``T[P[j]]``).
CODEGEN_VERSION = 4

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
    """Walks canonical tokens and accumulates source lines.  ``bound``
    names what the prologue binds (slots, or a class kernel's planes):
    streams owned elsewhere, never freed here."""

    def __init__(self, canonical, bound: List[str]):
        self.canonical = canonical
        self.lines: List[str] = []
        self.consts_used: Set[str] = set()
        self.loop_id = 0
        self.loop_depth = 0
        self.guards = 0
        self.loop_preinit: Set[str] = set()
        self._defined: Set[str] = set()
        _, body, outputs = canonical.tokens
        #: variable -> reads anywhere in the program, outputs included
        self._reads: Counter = Counter(outputs)
        for token in body:
            self._reads.update(_token_reads(token))
        #: top-level token index -> variables read there for the last
        #: time; see :func:`_last_reads`
        self._dead_after = _last_reads(body, set(outputs) | set(bound))

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
        _, op, _dest, args, shift, const = token
        if op == Op.CONST.value:
            name = _CONST_EXPR[const]
            self.consts_used.add(name)
            return name
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
        emitted = len(self.lines)
        self.emit_deletions(index, depth + 1)
        self.emit_block(tokens, depth + 1, index + 1, end)
        if len(self.lines) == emitted:
            # The span held only class streams, which the table
            # computes: the check (and its counters) stays, the empty
            # branch goes.
            self.lines.pop()
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


def _last_reads(body, keep) -> Dict[int, List[str]]:
    """Top-level token index -> the variables read there for the last
    time, those in ``keep`` excepted.  Everything a loop reads counts at
    the loop's index (its next iteration may read it again), so a stream
    dies after the last top-level token that reads it.  Deleting there
    frees it on every path that reaches it: a variable a skipped guard
    span would have defined is zeroed when read later, and one first
    defined in a loop is pre-initialised."""
    last = {name: index for index, token in enumerate(body)
            for name in _token_reads(token)}
    dead: Dict[int, List[str]] = {}
    for name, index in last.items():
        if name not in keep:
            dead.setdefault(index, []).append(name)
    return dead


def generate_source(canonical, name: str = "_kernel") -> str:
    """Full function source for one canonical program, or for a class
    table's kernel (:class:`CanonicalClasses`): straight-line code
    from the planes to the tuple of table entries."""
    classes = isinstance(canonical, CanonicalClasses)
    bound = list(BASIS_VARS) if classes else canonical.slot_names
    emitter = _Emitter(canonical, bound)
    emitter.emit_block(canonical.tokens[1], 0)

    outputs = canonical.tokens[2]
    consts = [_CONST_INIT[const] for const in sorted(emitter.consts_used)]
    epilogue = []
    if classes:
        head = f"def {name}(S):"
        prologue = [", ".join(bound) + " = S.planes"] + consts
    else:
        head = f"def {name}(S, T, P, _stats):"
        prologue = ["L = S.length", f"_limit = L + {LOOP_SLACK}"] + consts
        prologue += [f"{var} = T[P[{slot}]]"
                     for slot, var in enumerate(bound)]
        prologue += [f"{var} = Z" for var in sorted(emitter.loop_preinit)]
        if emitter.guards:
            # Guard counters live in locals and reach the stats once.
            prologue.append("_checks = _hits = 0")
            epilogue = ["_stats.guard_checks += _checks",
                        "_stats.guard_hits += _hits"]
    epilogue.append(f"return ({', '.join(outputs)}{',' if outputs else ''})")
    return "\n".join([head]
                     + [INDENT + line for line in prologue]
                     + (emitter.lines or [INDENT + "pass"])
                     + [INDENT + line for line in epilogue]) + "\n"
