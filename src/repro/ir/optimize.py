"""Generic bitstream-program cleanups: copy propagation and dead-code
elimination.

Lowering produces some COPY chains (fixpoint-loop plumbing) and, after
empty-match stripping, occasional unused subcomputations.  These
helpers shrink programs before the BitGen-specific transformations
run; they are semantics-preserving and conservative around
loop-carried (reassigned) variables, whose identity is load-bearing.

:mod:`repro.ir.passes` runs them — alone at opt_level 1, beside CSE
and algebraic simplification at opt_level 2 — to a joint fixpoint.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .instructions import Instr, Op, SkipGuard, Stmt, WhileLoop


def _mutable_vars(stmts: Sequence[Stmt]) -> Set[str]:
    defined: Set[str] = set()
    mutable: Set[str] = set()

    def visit(items):
        for stmt in items:
            if isinstance(stmt, Instr):
                if stmt.dest in defined:
                    mutable.add(stmt.dest)
                defined.add(stmt.dest)
            elif isinstance(stmt, WhileLoop):
                visit(stmt.body)

    visit(stmts)
    return mutable


def _propagate_copies(stmts: Sequence[Stmt], mutable: Set[str],
                      outputs: Set[str]) -> Tuple[List[Stmt], int]:
    """Rewrite uses of ``x`` to ``y`` for immutable ``x = COPY(y)`` of
    immutable ``y``.  The copy itself is removed later by DCE unless it
    is an output.  Returns the rewritten statements plus the number of
    statements whose operands actually changed."""
    alias: Dict[str, str] = {}
    changed = 0

    def resolve(name: str) -> str:
        seen = set()
        while name in alias and name not in seen:
            seen.add(name)
            name = alias[name]
        return name

    def visit(items) -> List[Stmt]:
        nonlocal changed
        out: List[Stmt] = []
        for stmt in items:
            if isinstance(stmt, Instr):
                args = tuple(resolve(a) for a in stmt.args)
                if args != stmt.args:
                    changed += 1
                    stmt = Instr(stmt.dest, stmt.op, args,
                                 shift=stmt.shift, cc=stmt.cc,
                                 const=stmt.const)
                if (stmt.op is Op.COPY and stmt.dest not in mutable
                        and stmt.args[0] not in mutable):
                    alias[stmt.dest] = stmt.args[0]
                out.append(stmt)
            elif isinstance(stmt, WhileLoop):
                cond = resolve(stmt.cond)
                if cond != stmt.cond:
                    changed += 1
                out.append(WhileLoop(cond, visit(stmt.body)))
            elif isinstance(stmt, SkipGuard):
                cond = resolve(stmt.cond)
                if cond != stmt.cond:
                    changed += 1
                out.append(SkipGuard(cond, stmt.skip_count))
            else:
                out.append(stmt)
        return out

    return visit(stmts), changed


def _eliminate_dead(stmts: Sequence[Stmt],
                    outputs: Set[str]) -> Tuple[List[Stmt], int]:
    """Drop instructions whose result is never observed.  Conservative:
    anything used anywhere (including loop conditions and guards),
    reassigned, or exported survives.  Guards are rebuilt so their skip
    counts stay aligned with the surviving statements.  Returns the
    surviving statements plus the number of instructions dropped."""
    live: Set[str] = set(outputs)
    mutable = _mutable_vars(stmts)
    changed = 0

    def collect(items):
        for stmt in items:
            if isinstance(stmt, Instr):
                live.update(stmt.args)
            elif isinstance(stmt, WhileLoop):
                live.add(stmt.cond)
                collect(stmt.body)
            elif isinstance(stmt, SkipGuard):
                live.add(stmt.cond)

    collect(stmts)

    def keep(stmt: Instr) -> bool:
        return stmt.dest in live or stmt.dest in mutable

    def visit(items) -> List[Stmt]:
        nonlocal changed
        out: List[Stmt] = []
        pending: List = []  # [guard, remaining original span, kept count]

        def account(survives: bool) -> None:
            for entry in pending:
                if entry[1] > 0:
                    entry[1] -= 1
                    if survives:
                        entry[2] += 1

        for stmt in items:
            if isinstance(stmt, SkipGuard):
                account(True)  # nested guards count toward outer spans
                pending.append([stmt, stmt.skip_count, 0])
                out.append(None)  # placeholder patched below
            elif isinstance(stmt, Instr):
                survives = keep(stmt)
                account(survives)
                if survives:
                    out.append(stmt)
                else:
                    changed += 1
            elif isinstance(stmt, WhileLoop):
                account(True)
                out.append(WhileLoop(stmt.cond, visit(stmt.body)))
        cursor = 0
        for index, item in enumerate(out):
            if item is None:
                guard, _, kept = pending[cursor]
                cursor += 1
                # Zero-span guards are kept as no-ops: dropping one
                # would desynchronise enclosing guards' skip counts.
                out[index] = SkipGuard(guard.cond, kept)
        return out

    return visit(stmts), changed
