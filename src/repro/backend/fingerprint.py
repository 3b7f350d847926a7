"""Canonical program forms: class streams, kernel bodies, fingerprints.

Canonicalisation splits a program in two.

* **Class streams** are values whose bit at position *i* depends only
  on the byte at *i*, or on *i* being the cursor slot: the basis
  planes, MATCH_CC of any class, CONST zero / ones / text, and AND, OR,
  XOR, ANDN, NOT and COPY of class streams — single-assignment and
  defined at top level.  Each is keyed by its 257-bit truth table
  (bytes 0–255, then the cursor slot, which the planes read as NUL),
  so equal keys are equal streams on every input, and a class table
  (:class:`~repro.backend.compiled.ClassTable`) computes each key once
  per input however many groups read it.  START and END depend on
  position and stay in the kernel.
* **The kernel body** is everything else.  A class stream it reads —
  an operand, a loop condition, an output — becomes a parameter slot
  ``c<j>`` (equal keys share one slot); a MATCH_CC left in the body (in
  a loop, or reassigned) copies its class's slot.

``SkipGuard`` statements are dropped.  They are hints: guard validation
(:mod:`repro.core.zeroskip`) only lets a span skip definitions that are
provably zero under its condition or dead after it, so running every
span is always safe.  A guarded program and its unguarded form share
one kernel.

Two programs share one compiled kernel exactly when their kernel
bodies are equal after renaming every other variable ``v<i>`` in
first-appearance order; slot keys stay out of the fingerprint.
Everything that changes the *generated code* stays in: opcodes and
operand structure, shift distances, const kinds, loop nesting and
output arity.  The paper's NVRTC path caches compiled PTX per
specialised kernel; this is the same move one level up — repeated
harness cells and structurally repeated regex groups pay zero
recompilation.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.instructions import (CONST_ONES, CONST_TEXT, CONST_ZERO, Instr,
                               Op, SkipGuard, Stmt, WhileLoop)
from ..ir.program import BASIS_VARS, Program

#: Truth-table keys: bit ``b`` is the stream's value at a byte ``b``,
#: bit 256 its value at the cursor slot.
CURSOR_KEY = 1 << 256
TEXT_KEY = CURSOR_KEY - 1
ONES_KEY = 2 * CURSOR_KEY - 1
#: basis plane ``bk`` holds bit ``7 - k`` of each byte (``b0`` = MSB)
PLANE_KEYS = tuple(sum(1 << byte for byte in range(256)
                       if byte >> (7 - k) & 1) for k in range(8))
_CONST_KEYS = {CONST_ZERO: 0, CONST_ONES: ONES_KEY, CONST_TEXT: TEXT_KEY}

_KEY_OPS = {
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.ANDN: lambda a, b: a ^ (a & b),
    Op.NOT: lambda a: a ^ ONES_KEY,
    Op.COPY: lambda a: a,
}

#: key -> how to compute it from the planes: ``("plane", (), k)``,
#: ``("const", (), kind)`` or ``(op value, operand keys, None)``.
#: Operands are always registered before the keys computed from them.
Recipes = Dict[int, Tuple]


class CanonicalProgram:
    """A program's kernel body over canonical names, plus its slots:
    the class-stream keys it reads, in slot order."""

    __slots__ = ("tokens", "var_map", "slot_keys", "digest")

    def __init__(self, tokens: Tuple, var_map: Dict[str, str],
                 slot_keys: List[int]):
        self.tokens = tokens
        self.var_map = var_map
        self.slot_keys = slot_keys
        self.digest = hashlib.sha256(repr(tokens).encode()).hexdigest()

    @property
    def slot_names(self) -> List[str]:
        """The kernel's parameter-slot variables, in slot order."""
        return [_slot_name(slot) for slot in range(len(self.slot_keys))]


def _slot_name(slot: int) -> str:
    return f"c{slot}"


class CanonicalClasses:
    """A class table's kernel in canonical token form: straight-line
    instructions from the planes ``b0..b7`` to every table entry (in
    ``keys`` order), each distinct key computed once."""

    __slots__ = ("tokens", "digest")

    def __init__(self, keys: Sequence[int], recipes: Recipes):
        # Recipes are in dependency order: walk back for what the
        # entries need, then forward to emit it.
        needed = set(keys)
        for key in reversed(recipes):
            if key in needed:
                needed.update(recipes[key][1])
        names: Dict[int, str] = {}
        body: List[Tuple] = []
        for key, (op, operands, payload) in recipes.items():
            if key not in needed:
                continue
            if op == "plane":
                names[key] = BASIS_VARS[payload]
                continue
            names[key] = f"t{len(body)}"
            body.append(("instr", op, names[key],
                         tuple(names[k] for k in operands), 0, payload))
        self.tokens = ("classes", tuple(body),
                       tuple(names[key] for key in keys))
        self.digest = hashlib.sha256(repr(self.tokens).encode()).hexdigest()


def _class_streams(program: Program, recipes: Recipes) -> Dict[str, int]:
    """``program``'s class streams (see module docstring) -> key,
    registering a recipe in ``recipes`` for each key not yet there."""
    defs: Counter = Counter()

    def count(stmts, weight: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, Instr):
                defs[stmt.dest] += weight
            elif isinstance(stmt, WhileLoop):
                count(stmt.body, 2)     # loop-defined: never a class

    count(program.statements, 1)
    keys: Dict[str, int] = {}
    for k, name in enumerate(program.inputs):
        if not defs[name]:
            keys[name] = PLANE_KEYS[k]
            recipes.setdefault(PLANE_KEYS[k], ("plane", (), k))
    for stmt in program.statements:
        if isinstance(stmt, Instr) and defs[stmt.dest] == 1:
            key = _class_key(stmt, keys, recipes)
            if key is not None:
                keys[stmt.dest] = key
    return keys


def _class_key(instr: Instr, keys: Dict[str, int], recipes: Recipes):
    """The key of ``instr``'s value if it is a class stream, else
    None."""
    op = instr.op
    if op is Op.MATCH_CC:
        return _match_cc_key(instr.cc, recipes)
    if op is Op.CONST:
        key = _CONST_KEYS.get(instr.const)
        if key is not None:
            recipes.setdefault(key, (op.value, (), instr.const))
        return key
    if op not in _KEY_OPS or any(arg not in keys for arg in instr.args):
        return None
    operands = tuple(keys[arg] for arg in instr.args)
    key = _KEY_OPS[op](*operands)
    recipes.setdefault(key, (op.value, operands, None))
    return key


def _match_cc_key(cc, recipes: Recipes) -> int:
    """Key of ``MATCH_CC cc``, with its recipe: the class's Shannon
    expansion over the planes (:class:`~repro.ir.cc_compiler.
    CCCompiler`), masked to the text when it contains NUL."""
    from ..ir.cc_compiler import CCCompiler
    from ..ir.program import ProgramBuilder

    builder = ProgramBuilder()
    var = CCCompiler(builder).compile(cc)
    return _class_streams(builder.program, recipes)[var]


def canonicalize(program: Program,
                 recipes: Optional[Recipes] = None) -> CanonicalProgram:
    """Canonical form of ``program`` (see module docstring).  The
    recipes of its class streams are registered in ``recipes`` — pass
    one dict for programs that will share a class table."""
    recipes = {} if recipes is None else recipes
    classes = _class_streams(program, recipes)
    var_map: Dict[str, str] = {}
    slot_keys: List[int] = []
    slot_of: Dict[int, str] = {}
    counter = [0]

    def slot(key: int) -> str:
        name = slot_of.get(key)
        if name is None:
            name = slot_of[key] = _slot_name(len(slot_keys))
            slot_keys.append(key)
        return name

    def read(name: str) -> str:
        key = classes.get(name)
        if key is not None:
            var_map[name] = slot(key)
            return var_map[name]
        return define(name)

    def define(name: str) -> str:
        mapped = var_map.get(name)
        if mapped is None:
            mapped = var_map[name] = f"v{counter[0]}"
            counter[0] += 1
        return mapped

    def visit(stmts: Sequence[Stmt]) -> Tuple:
        tokens = []
        for stmt in stmts:
            if isinstance(stmt, Instr):
                if stmt.dest in classes:
                    continue
                op, args = stmt.op, stmt.args
                if op is Op.MATCH_CC:
                    op, args = Op.COPY, (slot(_match_cc_key(stmt.cc,
                                                           recipes)),)
                else:
                    args = tuple(read(arg) for arg in args)
                tokens.append(("instr", op.value, define(stmt.dest), args,
                               stmt.shift, stmt.const))
            elif isinstance(stmt, WhileLoop):
                tokens.append(("while", read(stmt.cond), visit(stmt.body)))
            elif not isinstance(stmt, SkipGuard):   # guards are dropped
                raise TypeError(f"unknown statement {stmt!r}")
        return tuple(tokens)

    body = visit(program.statements)
    outputs = tuple(read(var) for var in program.outputs.values())
    return CanonicalProgram(("program", body, outputs), var_map,
                            slot_keys)


def fingerprint(program: Program) -> str:
    """Stable hex digest of a program's compiled-kernel identity."""
    return canonicalize(program).digest


def cache_key(digest: str) -> str:
    """On-disk cache key for one canonical digest.

    Beyond the structural digest, the key pins everything that changes
    the *persisted artefact*: the codegen schema version (regenerating
    differently-shaped source must miss) and the interpreter version
    (marshalled code objects are not stable across interpreters), so
    heterogeneous workers can share one cache directory safely.
    """
    from .codegen import CODEGEN_VERSION

    return (f"{digest}-cg{CODEGEN_VERSION}"
            f"-py{sys.version_info[0]}{sys.version_info[1]}")
