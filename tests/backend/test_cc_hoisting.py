"""Class streams, parameter slots and the shared class table
(codegen v4).

Identical character classes must collapse to one parameter slot during
canonicalisation, and the generated source must read each slot from
the class table exactly once — in the prologue — no matter how many
consumers (or loop iterations) reference it.  Groups compiled together
share one table entry per class, computed once per input.
"""

from __future__ import annotations

from repro.backend import ClassTable, compile_group
from repro.backend.codegen import CODEGEN_VERSION, generate_source
from repro.backend.fingerprint import canonicalize, fingerprint
from repro.core.engine import BitGenEngine
from repro.ir.instructions import Instr, Op, WhileLoop
from repro.ir.interpreter import Interpreter
from repro.ir.program import Program
from repro.parallel.config import ScanConfig
from repro.regex.charclass import CharClass

from tests.backend.test_compiled_equivalence import kernel_outputs

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
    # A class's key is its truth table: its bytes, cursor slot clear.
    canonical = canonicalize(cc_program())
    assert canonical.slot_keys == [A._mask(), B._mask()]


def test_source_hoists_each_slot_once():
    source = generate_source(canonicalize(cc_program()))
    # One table read per slot; consumers (including the loop body's
    # MATCH_CC) only reference the slot variables.
    assert source.count("c0 = T[P[0]]") == 1
    assert source.count("c1 = T[P[1]]") == 1
    assert source.count("T[P[") == 2
    assert "S.planes" not in source


def test_hoisted_kernel_matches_interpreter():
    program = cc_program()
    data = b"aababb aa bb ab"
    reference = Interpreter().run(program, data)
    compiled, _ = kernel_outputs(program, data)
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
    assert len(canonicalize(single).slot_keys) == 1


def test_codegen_version_bumped_for_hoisting():
    assert CODEGEN_VERSION >= 4


def test_dead_streams_are_deleted_after_their_last_read():
    """A kernel frees each stream after its last read (outside loops)
    or after the loop that last reads it; outputs and class-table
    slots are never freed, and a run of single-byte steps frees what
    its steps read last once the run's call returns."""
    program = Program("d", [
        Instr("s", Op.SHIFT, ("b0",), shift=2),
        Instr("u", Op.SHIFT, ("s",), shift=1),
        Instr("x", Op.AND, ("u", "b1")),        # one step: a _steps call
        Instr("y", Op.OR, ("x", "b2")),
        Instr("c", Op.COPY, ("y",)),
        WhileLoop("c", [
            Instr("t", Op.SHIFT, ("c",), shift=1),
            Instr("c", Op.AND, ("t", "x")),     # x is no class: inline
        ]),
        Instr("r", Op.OR, ("y", "b3")),
    ], {"R": "r"})
    program.validate()
    canonical = canonicalize(program)
    lines = [line.strip()
             for line in generate_source(canonical).splitlines()]
    s, u, x, y, c, t, r, b1, b3 = (
        canonical.var_map[name] for name in
        ("s", "u", "x", "y", "c", "t", "r", "b1", "b3"))

    def freed_after(line: str) -> set:
        following = lines[lines.index(line) + 1]
        assert following.startswith("del ")
        return set(following[len("del "):].split(", "))

    assert freed_after(f"{x} = _steps({s}, S, ({b1},))") == {s}
    # x, c and t are read inside the loop: they live until it ends.
    assert freed_after("_stats.loop_log.append((0, _n0))") == {x, c, t}
    assert freed_after(f"{r} = {y} | {b3}") == {y}
    freed = {name for line in lines if line.startswith("del ")
             for name in line[4:].split(", ")}
    assert r not in freed
    assert not freed & set(canonical.var_map[f"b{k}"] for k in range(4))
    # The step's intermediate is never assigned, so never freed.
    assert u not in freed
    assert not any(line.startswith(f"{u} =") for line in lines)
    data = b"abcxyz" * 20
    assert kernel_outputs(program, data)[0] == \
        Interpreter().run(program, data)


def _engine(patterns, **config):
    return BitGenEngine.compile(
        patterns, config=ScanConfig(backend="compiled", **config))


def test_groups_reading_one_class_share_one_table_entry():
    """Two groups reading class ``a`` bind their slots to the same
    table entry; the table holds each distinct class once."""
    one = Program("one", [
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("r", Op.SHIFT, ("x",), shift=1),
    ], {"R": "r"})
    two = Program("two", [
        Instr("y", Op.MATCH_CC, cc=B),
        Instr("z", Op.MATCH_CC, cc=A),
        Instr("s", Op.SHIFT, ("y",), shift=2),
        Instr("r", Op.AND, ("s", "z")),
    ], {"R": "r"})
    first, second = compile_group([one, two])
    assert first.table is second.table
    assert len(first.table) == 2
    assert first.params == (first.table.index[A._mask()],)
    assert second.params == (first.table.index[B._mask()],
                             first.table.index[A._mask()])


def test_match_runs_the_class_kernel_once(monkeypatch):
    """One class-table evaluation per input, whatever the group count:
    per ``match``, and per stream of a ``match_many``."""
    calls = []
    evaluate = ClassTable.evaluate

    def counting(table, stream):
        calls.append(stream.length)
        return evaluate(table, stream)

    monkeypatch.setattr(ClassTable, "evaluate", counting)
    engine = _engine(["a(bc)*d", "x+y", "cat|dog", "[0-9]{2}z"],
                     cta_count=4)
    assert len(engine.groups) == 4
    data = b"abcbcd xxy cat 12z dog" * 3
    expected = _engine(["a(bc)*d", "x+y", "cat|dog", "[0-9]{2}z"],
                       cta_count=1).match(data).ends
    calls.clear()
    assert engine.match(data).ends == expected
    assert calls == [len(data) + 1]
    calls.clear()
    engine.match_many([data, data[:9], data])
    assert sorted(calls) == sorted([len(data) + 1, 10, len(data) + 1])


def test_every_engine_kernel_reads_classes_from_the_table():
    engine = _engine(["a(bc)*d", "x+y", "[^\\n]+z", "\\x00\\xff"],
                     cta_count=2)
    programs = engine._compiled_programs()
    assert len({id(p.table) for p in programs}) == 1
    for program in programs:
        assert "S.planes" not in program.kernel.source
        assert "B[" not in program.kernel.source
    assert "S.planes" in programs[0].table.kernel.source
