"""Copy propagation and dead-code elimination."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.zeroskip import insert_guards
from repro.ir.instructions import Instr, Op, SkipGuard, iter_instrs
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group, lower_regex
from repro.ir.passes import optimize_pipeline
from repro.ir.program import Program, ProgramBuilder
from repro.regex.parser import parse

from ..conftest import random_text


def count_instrs(program):
    return program.instruction_count()


def optimize_program(program):
    """The opt_level-1 cleanups: copy propagation + DCE to a fixpoint."""
    return optimize_pipeline(program, 1)[0]


def run(program, data, honour_guards=False):
    return Interpreter(honour_guards=honour_guards).run(program, data)


def test_removes_dead_code():
    builder = ProgramBuilder("dead")
    a = builder.match_cc(parse("a").cc)
    b = builder.match_cc(parse("b").cc)   # never used downstream
    live = builder.advance(a, 1)
    builder.mark_output("R", live)
    program = builder.finish()
    optimized = optimize_program(program)
    assert count_instrs(optimized) < count_instrs(program)
    data = b"abab"
    assert run(program, data)["R"] == run(optimized, data)["R"]


def test_propagates_copies():
    builder = ProgramBuilder("copies")
    a = builder.match_cc(parse("a").cc)
    c1 = builder.copy(a)
    # a COPY of an immutable value should disappear entirely
    builder.mark_output("R", builder.advance(c1, 1))
    # never reassigned, so c1 is effectively immutable... but copy()
    # marks it mutable; build the chain manually instead:
    program = builder.finish()
    statements = [s for s in program.statements]
    statements.append(Instr("t_alias", Op.COPY, (a,)))
    statements.append(Instr("t_use", Op.SHIFT, ("t_alias",), shift=1))
    program2 = Program("manual", statements, {"R": "t_use"})
    optimized = optimize_program(program2)
    ops = [i.op for i in iter_instrs(optimized.statements)]
    assert Op.COPY not in ops


def test_loop_carried_copies_survive():
    program = lower_regex(parse("a(bc)*d"))
    optimized = optimize_program(program)
    data = b"abcbcd ad xx"
    assert run(program, data)["R0"] == run(optimized, data)["R0"]
    assert optimized.while_count() == 1


def test_outputs_never_removed():
    program = lower_regex(parse("abc"))
    optimized = optimize_program(program)
    assert set(optimized.outputs) == set(program.outputs)
    optimized.validate()


def test_guard_skip_counts_stay_aligned():
    program = insert_guards(lower_regex(parse("abcdef")), interval=2)
    optimized = optimize_program(program)
    optimized.validate()
    data = b"zz abcdef zz abcde"
    plain = run(optimized, data, honour_guards=False)
    honoured = run(optimized, data, honour_guards=True)
    assert plain["R0"] == honoured["R0"]


def test_idempotent():
    program = optimize_program(lower_regex(parse("a(b|c)*d")))
    again = optimize_program(program)
    assert count_instrs(again) == count_instrs(program)


PATTERNS = ["abc", "a(bc)*d", "(ab|cd)+e", "a{2,4}b", "x?y?z",
            "[ab]c[de]", "a(b(c|d))*e"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PATTERNS), st.integers(min_value=0, max_value=2**32))
def test_optimize_equivalence_property(pattern, seed):
    rng = random.Random(seed)
    data = random_text(rng, rng.randrange(0, 50), "abcdez")
    program = lower_group([parse(pattern)])
    optimized = optimize_program(program)
    assert run(program, data)["R0"] == run(optimized, data)["R0"], \
        f"{pattern!r} on {data!r}"


def test_optimize_shrinks_group_programs():
    nodes = [parse(p) for p in PATTERNS]
    program = lower_group(nodes)
    optimized = optimize_program(program)
    assert count_instrs(optimized) <= count_instrs(program)
