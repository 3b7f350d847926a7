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
* while-loops become native control flow whose tests (``while x:``)
  are O(1);
* each run of single-byte steps, ``t = m << 1; m = t & c`` with a
  class ``c`` and intermediates nothing else reads, is one call,
  ``m = _steps(m, S, (c, ...))`` (:func:`repro.backend.runtime.steps`).

A marker may also be a sorted list of its positions
(:class:`~repro.backend.runtime.Positions`): on a long stream a run of
steps switches a marker that went sparse, and the lists carry the int
operators, so the inline expressions above take either form.  Class
slots and constants are always ints.  Invariant: every position a
kernel produces is below the stream length ``L``.

Compiled engines never insert zero guards, and canonicalisation drops
any a program carries, so kernels hold no skip paths.

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

from typing import Dict, List, Optional, Set, Tuple

from ..ir.instructions import Op
from ..ir.program import BASIS_VARS
from .fingerprint import CanonicalClasses

#: Extra iterations allowed beyond the stream length before a fixpoint
#: loop is declared divergent (mirrors the interpreter's slack).
LOOP_SLACK = 80

#: One indentation level of the generated source: one column per level
#: keeps the source, which every resident kernel holds, small.
INDENT = " "

#: Schema version of the generated source; bump on any change to the
#: emitted code shape so persisted on-disk kernels are invalidated.
#: 2: CC parameter slots deduplicated + hoisted into prologue temps.
#: 3: kernels over Python ints instead of uint64 word arrays.
#: 4: class streams read from a shared class table (``T[P[j]]``).
#: 5: no zero guards, no guard counters.
#: 7: runs of single-byte steps fused into ``_steps`` calls; markers
#:    may be position lists.  (6 tagged unreleased drafts of this
#:    shape; skipping it keeps their cached entries from loading.)
CODEGEN_VERSION = 7

_BINOPS = {Op.AND.value: "&", Op.OR.value: "|", Op.XOR.value: "^"}
#: opcode values, read once: an enum member lookup per token is a
#: visible share of codegen time
_AND, _ANDN, _CONST, _COPY, _NOT, _SHIFT = (
    op.value for op in (Op.AND, Op.ANDN, Op.CONST, Op.COPY, Op.NOT, Op.SHIFT))

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
        self.lines: List[str] = []
        self.consts_used: Set[str] = set()
        self.loop_id = 0
        self.loop_depth = 0
        self.loop_preinit: Set[str] = set()
        self._defined: Set[str] = set()
        _, body, outputs = canonical.tokens
        keep = set(outputs) | set(bound)
        #: the body to emit: a group kernel's canonical one with its
        #: runs of single-byte steps fused (:func:`_fuse_runs`)
        self.body = body if isinstance(canonical, CanonicalClasses) \
            else _fuse_runs(body, keep, set(bound))
        #: top-level token index -> variables read there for the last
        #: time; see :func:`_last_reads`
        self._dead_after = _last_reads(self.body, keep)

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
        if op == _CONST:
            name = _CONST_EXPR[const]
            self.consts_used.add(name)
            return name
        if op in _BINOPS:
            return f"{args[0]} {_BINOPS[op]} {args[1]}"
        if op == _ANDN:
            return f"{args[0]} ^ ({args[0]} & {args[1]})"
        if op == _NOT:
            self.consts_used.add("ONES")
            return f"{args[0]} ^ ONES"
        if op == _COPY:
            return args[0]
        if op == _SHIFT:
            if shift > 0:
                self.consts_used.add("ONES")
                return f"{args[0]} << {shift}"
            return f"{args[0]} >> {-shift}"
        raise CompileError(f"unhandled op {op!r}")

    # -- statements --------------------------------------------------------

    def emit_instr(self, token, depth: int) -> None:
        dest = token[2]
        self.emit(f"{dest} = {self._instr_expr(token)}", depth)
        if token[1] == _SHIFT and token[4] > 0:
            # An advance can push bits past the stream end; comparing
            # against ONES is O(1), the mask only runs when they did.
            self.emit(f"if {dest} > ONES: {dest} &= ONES", depth)
        self.define(dest)

    def emit_run(self, token, depth: int) -> None:
        _, dest, source, classes = token
        self.emit(f"{dest} = _steps({source}, S, ({', '.join(classes)},))",
                  depth)
        self.define(dest)

    def define(self, dest: str) -> None:
        if dest not in self._defined:
            self._defined.add(dest)
            if self.loop_depth:
                # First definition inside a loop body: pre-initialise
                # so a loop that runs zero times leaves it zero, not
                # unbound.
                self.loop_preinit.add(dest)
                self.consts_used.add("Z")

    def emit_block(self, tokens, depth: int) -> None:
        for index, token in enumerate(tokens):
            kind = token[0]
            if kind == "instr":
                self.emit_instr(token, depth)
            elif kind == "run":
                self.emit_run(token, depth)
            elif kind == "while":
                self.emit_while(token, depth)
            else:
                raise CompileError(f"unknown token {kind!r}")
            self.emit_deletions(index, depth)

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


def _token_reads(token) -> List[str]:
    """Every variable ``token`` reads: operands, a run's source and
    classes, a loop's condition, and everything a loop body reads."""
    if token[0] == "instr":
        return list(token[3])
    if token[0] == "run":
        return [token[2], *token[3]]
    reads = [token[1]]
    for inner in token[2]:
        reads += _token_reads(inner)
    return reads


def _step(tokens, index: int, reads: Dict[str, int], defs: Dict[str, int],
          slots: Set[str]) -> Optional[Tuple[str, str, str]]:
    """``(m, c, dest)`` if ``tokens[index:index + 2]`` is one
    single-byte step ``t = m << 1; dest = t & c`` with ``c`` a class
    slot and ``t`` defined and read nowhere else."""
    if index + 1 >= len(tokens):
        return None
    shift, step = tokens[index], tokens[index + 1]
    if shift[0] != "instr" or shift[1] != _SHIFT or shift[4] != 1:
        return None
    t = shift[2]
    if step[0] != "instr" or step[1] != _AND or t not in step[3] \
            or reads.get(t) != 1 or defs[t] != 1:
        return None
    cls = step[3][1] if step[3][0] == t else step[3][0]
    if cls not in slots:
        return None
    return shift[3][0], cls, step[2]


def _fuse_runs(body, keep: Set[str], slots: Set[str]) -> Tuple:
    """``body`` with each maximal run of single-byte steps (in loop
    bodies too) replaced by one ``("run", dest, source, classes)``
    token.  A step's result continues the run only when the next step
    is the one thing that reads it, so the intermediates a run drops
    were read nowhere else."""
    reads = dict.fromkeys(keep, 1)
    defs: Dict[str, int] = {}

    def count(tokens) -> None:
        for token in tokens:
            if token[0] == "instr":
                defs[token[2]] = defs.get(token[2], 0) + 1
                for name in token[3]:
                    reads[name] = reads.get(name, 0) + 1
            else:
                reads[token[1]] = reads.get(token[1], 0) + 1
                count(token[2])

    def fuse(tokens) -> Tuple:
        fused = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            step = _step(tokens, index, reads, defs, slots)
            if step is None:
                if token[0] == "while":
                    token = ("while", token[1], fuse(token[2]))
                fused.append(token)
                index += 1
                continue
            source, cls, dest = step
            classes = [cls]
            index += 2
            while reads.get(dest) == 1 and defs[dest] == 1:
                step = _step(tokens, index, reads, defs, slots)
                if step is None or step[0] != dest:
                    break
                classes.append(step[1])
                dest = step[2]
                index += 2
            fused.append(("run", dest, source, tuple(classes)))
        return tuple(fused)

    count(body)
    return fuse(body)


def _last_reads(body, keep) -> Dict[int, List[str]]:
    """Top-level token index -> the variables read there for the last
    time, those in ``keep`` excepted.  Everything a loop reads counts at
    the loop's index (its next iteration may read it again), so a stream
    dies after the last top-level token that reads it.  Deleting there
    frees it on every path that reaches it: a variable first defined in
    a loop is pre-initialised."""
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
    emitter.emit_block(emitter.body, 0)

    outputs = canonical.tokens[2]
    consts = [_CONST_INIT[const] for const in sorted(emitter.consts_used)]
    if classes:
        head = f"def {name}(S):"
        prologue = [", ".join(bound) + " = S.planes"] + consts
    else:
        head = f"def {name}(S, T, P, _stats):"
        prologue = ["L = S.length", f"_limit = L + {LOOP_SLACK}"] + consts
        prologue += [f"{var} = T[P[{slot}]]"
                     for slot, var in enumerate(bound)]
        prologue += [f"{var} = Z" for var in sorted(emitter.loop_preinit)]
    epilogue = f"return ({', '.join(outputs)}{',' if outputs else ''})"
    return "\n".join([head]
                     + [INDENT + line for line in prologue]
                     + (emitter.lines or [INDENT + "pass"])
                     + [INDENT + epilogue]) + "\n"
