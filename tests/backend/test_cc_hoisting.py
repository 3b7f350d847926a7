"""CC parameter-slot deduplication and prologue hoisting (codegen v2+).

Identical character classes must collapse to one parameter slot during
canonicalisation, and the generated source must compute each slot's
8-term basis expression exactly once — in the prologue — no matter how
many MATCH_CC consumers (or loop iterations) reference it.
"""

from __future__ import annotations

import pytest

from repro.backend.codegen import CODEGEN_VERSION, generate_source
from repro.backend.fingerprint import canonicalize, fingerprint
from repro.ir.instructions import Instr, Op, WhileLoop
from repro.ir.interpreter import Interpreter
from repro.ir.program import Program
from repro.regex.charclass import CharClass

A = CharClass.of_char("a")
B = CharClass.of_char("b")


def cc_program():
    # Three MATCH_CC of class 'a' (one inside a loop) and one of 'b',
    # written as raw statements because ProgramBuilder value-numbers
    # match_cc calls away at construction time.
    program = Program("t", [
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("y", Op.MATCH_CC, cc=A),
        Instr("z", Op.MATCH_CC, cc=B),
        Instr("c", Op.AND, ("x", "y")),
        WhileLoop("c", [
            Instr("w", Op.MATCH_CC, cc=A),
            Instr("t", Op.SHIFT, ("c",), shift=1),
            Instr("c", Op.AND, ("t", "w")),     # drains to zero
        ]),
        Instr("r", Op.OR, ("c", "z")),
    ], {"R": "r"})
    program.validate()
    return program


def test_identical_classes_share_one_slot():
    canonical = canonicalize(cc_program())
    assert canonical.cc_classes == [A, B]


def test_source_hoists_each_slot_once():
    source = generate_source(canonicalize(cc_program()))
    assert source.count("_cc0 = B[P[0]] &") == 1
    assert source.count("_cc1 = B[P[8]] &") == 1
    # Consumers (including the loop body) only reference the temps.
    assert source.count("B[P[0]]") == 1
    assert source.count("B[P[") == 16


def test_hoisted_kernel_matches_interpreter():
    program = cc_program()
    data = b"aababb aa bb ab"
    reference = Interpreter().run(program, data)
    compiled = Interpreter(backend="compiled").run(program, data)
    assert compiled == reference


def test_slot_count_invariant_under_duplicates():
    # A program with N duplicate classes fingerprints identically to
    # the same structure over distinct variables of one class — both
    # shapes compile to one kernel with one parameter slot.
    single = Program("s", [
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("y", Op.MATCH_CC, cc=A),
        Instr("r", Op.OR, ("x", "y")),
    ], {"R": "r"})
    other = Program("o", [
        Instr("p", Op.MATCH_CC, cc=B),
        Instr("q", Op.MATCH_CC, cc=B),
        Instr("out", Op.OR, ("p", "q")),
    ], {"R": "out"})
    assert fingerprint(single) == fingerprint(other)
    assert len(canonicalize(single).cc_classes) == 1


def test_codegen_version_bumped_for_hoisting():
    assert CODEGEN_VERSION >= 2


def test_dead_streams_are_deleted_after_their_last_read():
    """A kernel frees each stream after its last read (outside loops)
    or after the loop that last reads it; outputs are never freed."""
    program = Program("d", [
        Instr("x", Op.AND, ("b0", "b1")),
        Instr("y", Op.OR, ("x", "b2")),
        Instr("c", Op.COPY, ("y",)),
        WhileLoop("c", [
            Instr("t", Op.SHIFT, ("c",), shift=1),
            Instr("c", Op.AND, ("t", "x")),
        ]),
        Instr("r", Op.OR, ("y", "b3")),
    ], {"R": "r"})
    program.validate()
    canonical = canonicalize(program)
    lines = [line.strip()
             for line in generate_source(canonical).splitlines()]
    x, y, c, t, r = (canonical.var_map[name] for name in "xyctr")

    def freed_after(line: str) -> set:
        following = lines[lines.index(line) + 1]
        assert following.startswith("del ")
        return set(following[len("del "):].split(", "))

    assert freed_after(f"{x} = b0 & b1") == {"b0", "b1"}
    # x, c and t are read inside the loop: they live until it ends.
    assert freed_after("_stats.loop_log.append((0, _n0))") == {x, c, t}
    assert freed_after(f"{r} = {y} | b3") == {y, "b3"}
    assert not any(line.startswith("del ") and r in line[4:].split(", ")
                   for line in lines)
    data = b"abcxyz" * 20
    assert Interpreter(backend="compiled").run(program, data) == \
        Interpreter().run(program, data)
