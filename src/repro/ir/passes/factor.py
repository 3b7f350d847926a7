"""Cross-pattern prologue factoring.

A group's program is the concatenation of its member patterns' chains
over a shared pool of definitions: character-class streams, constant
streams, and (after CSE) shared subexpression prefixes.  This pass
factors that shared pool into an explicit *once-per-bucket prologue*:

1. **Loop-invariant hoisting** — a pure instruction inside a fixpoint
   ``while`` body whose operands are all defined before the loop is
   recomputed every iteration for the same value.  It moves to just
   before its (outermost) loop.  This is the executed-op win: loop
   bodies pay per iteration, the prologue pays once.
2. **Prologue grouping** — top-level pure definitions that are shared
   (used more than once, or leaf ``CONST``/``MATCH_CC`` definitions)
   move — with their pure dependency cones, in original relative
   order — to the top of the program, ahead of the first per-pattern
   chain.  Homogeneous buckets (``grouping="fingerprint"``) then carry
   their entire shared pool in one contiguous prologue.

Both rewrites preserve order among the statements they do not move, so
def-before-use is maintained: a hoisted instruction's operands are
inputs or earlier-hoisted definitions by construction.  Purity here
means "single-assignment and not a COPY" — loop-carried (reassigned)
variables and aliases are never touched.

The pass refuses programs containing :class:`SkipGuard`s: guard skip
counts index into the statement list, and moving a statement across a
span would desynchronise them.  The simulate backend runs it pre-guard
only, at opt level 2; compiled engines run no passes (their class
table computes every shared class stream once per input).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..instructions import Instr, Op, SkipGuard, Stmt, WhileLoop
from ..optimize import _mutable_vars
from ..program import Program


def _has_guards(stmts: List[Stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, SkipGuard):
            return True
        if isinstance(stmt, WhileLoop) and _has_guards(stmt.body):
            return True
    return False


def _use_counts(program: Program) -> Dict[str, int]:
    uses: Dict[str, int] = {}

    def visit(items):
        for stmt in items:
            if isinstance(stmt, Instr):
                for arg in stmt.args:
                    uses[arg] = uses.get(arg, 0) + 1
            elif isinstance(stmt, WhileLoop):
                uses[stmt.cond] = uses.get(stmt.cond, 0) + 1
                visit(stmt.body)
            elif isinstance(stmt, SkipGuard):
                uses[stmt.cond] = uses.get(stmt.cond, 0) + 1

    visit(program.statements)
    for var in program.outputs.values():
        uses[var] = uses.get(var, 0) + 1
    return uses


def factor_prologue(program: Program) -> Tuple[Program, int]:
    """Hoist loop-invariant pure instructions out of fixpoint loops
    and group the shared pure prologue at the program top.  Pipeline
    pass protocol: returns ``(program, changes)``; idempotent (a
    second run reports zero changes)."""
    stmts = list(program.statements)
    if _has_guards(stmts):
        return program, 0
    mutable = _mutable_vars(stmts)
    changes = 0

    # -- stage 1: loop-invariant code motion ------------------------------
    def invariant(stmt: Stmt, defined: Set[str]) -> bool:
        return (isinstance(stmt, Instr)
                and stmt.dest not in mutable
                and stmt.op is not Op.COPY
                and all(arg in defined for arg in stmt.args))

    def drain_loop(loop: WhileLoop,
                   defined: Set[str]) -> Tuple[List[Instr], WhileLoop]:
        """Pull invariant instrs out of ``loop`` (recursively); they
        land immediately before the loop, so their dests extend
        ``defined`` for later body statements."""
        hoisted: List[Instr] = []
        body: List[Stmt] = []
        for stmt in loop.body:
            if isinstance(stmt, WhileLoop):
                sub, inner = drain_loop(stmt, defined)
                hoisted.extend(sub)
                body.append(inner)
            elif invariant(stmt, defined):
                hoisted.append(stmt)
                defined.add(stmt.dest)
            else:
                body.append(stmt)
        return hoisted, WhileLoop(loop.cond, body)

    defined: Set[str] = set(program.inputs)
    flat: List[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, WhileLoop):
            hoisted, loop = drain_loop(stmt, defined)
            changes += len(hoisted)
            flat.extend(hoisted)
            flat.append(loop)
        else:
            if isinstance(stmt, Instr) and stmt.dest not in mutable:
                defined.add(stmt.dest)
            flat.append(stmt)

    # -- stage 2: shared-prologue grouping --------------------------------
    # Maximal prefix-closed set of pure top-level definitions ...
    pure: Dict[str, Instr] = {}
    inputs = set(program.inputs)
    for stmt in flat:
        if (isinstance(stmt, Instr) and stmt.dest not in mutable
                and stmt.op is not Op.COPY
                and all(arg in inputs or arg in pure
                        for arg in stmt.args)):
            pure[stmt.dest] = stmt
    # ... rooted at the shared definitions (multi-use, or the leaf
    # CONST/MATCH_CC streams every member chain draws from) ...
    uses = _use_counts(program)
    roots = [dest for dest, stmt in pure.items()
             if stmt.op in (Op.CONST, Op.MATCH_CC)
             or uses.get(dest, 0) >= 2]
    # ... closed backwards over their pure dependency cones.
    hoist: Set[str] = set()
    stack = list(roots)
    while stack:
        dest = stack.pop()
        if dest in hoist:
            continue
        hoist.add(dest)
        stack.extend(arg for arg in pure[dest].args if arg in pure)

    prologue = [s for s in flat
                if isinstance(s, Instr) and s.dest in hoist]
    if flat[:len(prologue)] != prologue:
        remainder = [s for s in flat
                     if not (isinstance(s, Instr) and s.dest in hoist)]
        moved = sum(1 for before, after in zip(flat, prologue)
                    if before is not after)
        changes += max(1, moved)
        flat = prologue + remainder

    if not changes:
        return program, 0
    result = Program(name=program.name, statements=flat,
                     outputs=dict(program.outputs),
                     inputs=program.inputs)
    return result, changes
