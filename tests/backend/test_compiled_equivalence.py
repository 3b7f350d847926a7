"""Property tests: the compiled backend is bit-identical to the
reference big-integer interpreter.

Random regex groups are lowered exactly as the engine lowers them
(including the Shift Rebalancing and Zero Block Skipping transforms),
then executed by both substrates over random inputs.  Guards are tested
both honoured and ignored — a guard may only skip work, never change a
bit.  Raw kernel outputs are checked for bits at or past the stream
end, which a missing advance or NOT mask would leave behind.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import KernelInput, compile_program
from repro.core.rebalance import rebalance_program
from repro.core.zeroskip import insert_guards
from repro.ir.instructions import Instr, Op, SkipGuard, WhileLoop
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group
from repro.ir.optimize import optimize_program
from repro.ir.program import Program
from repro.regex.charclass import CharClass

from tests.integration.test_differential_fuzz import (random_input,
                                                      random_regex)


def _assert_same_outputs(program, data, honour_guards):
    reference = Interpreter(honour_guards=honour_guards)
    compiled = Interpreter(honour_guards=honour_guards,
                           backend="compiled")
    expected = reference.run(program, data)
    actual = compiled.run(program, data)
    assert set(expected) == set(actual)
    for name in expected:
        assert actual[name].length == expected[name].length
        assert actual[name].bits == expected[name].bits, name
    # Dynamic behaviour must agree too: same loop trip counts.
    assert compiled.loop_iteration_counts == \
        reference.loop_iteration_counts
    # No output bit at or past the stream end (the cursor slot is the
    # last valid bit).
    raw, _ = compile_program(program, honour_guards=honour_guards).run(
        KernelInput.of(data))
    for name, value in raw.items():
        assert value >= 0 and value.bit_length() <= len(data) + 1, name


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64),
       st.booleans(), st.booleans())
def test_compiled_matches_interpreter(seed, transform, honour_guards):
    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2)
             for _ in range(rng.randint(1, 3))]
    program = optimize_program(lower_group(nodes))
    if transform:
        program = insert_guards(rebalance_program(program), interval=4)
    _assert_same_outputs(_with_tail_probes(program, rng),
                         random_input(rng), honour_guards)


def _with_tail_probes(program: Program, rng: random.Random) -> Program:
    """``program`` plus, per output, an output that advances the
    output's complement — which reaches the cursor slot — so a kernel
    that leaks bits past the stream end shows them."""
    statements = list(program.statements)
    outputs = dict(program.outputs)
    for index, var in enumerate(list(program.outputs.values())):
        statements += [
            Instr(f"probe_not{index}", Op.NOT, (var,)),
            Instr(f"probe{index}", Op.SHIFT, (f"probe_not{index}",),
                  shift=rng.choice([1, 2, 63, 64, 65])),
        ]
        outputs[f"P{index}"] = f"probe{index}"
    return Program(program.name, statements, outputs, program.inputs)


def test_compiled_on_empty_input():
    rng = random.Random(7)
    program = _with_tail_probes(
        lower_group([random_regex(rng, depth=2)]), rng)
    _assert_same_outputs(program, b"", honour_guards=False)
    _assert_same_outputs(program, b"", honour_guards=True)


def test_compiled_while_loop_and_guards():
    from repro.regex.parser import parse

    program = lower_group([parse(p)
                           for p in ["a(b|c)*d", "x{2,4}y", "a+b"]])
    program = _with_tail_probes(
        insert_guards(rebalance_program(program), interval=4),
        random.Random(5))
    data = b"abxabcbbd aacd xxy ab aab bbbd " * 9
    _assert_same_outputs(program, data, honour_guards=False)
    _assert_same_outputs(program, data, honour_guards=True)


def test_guard_skip_zeroes_what_a_later_iteration_reads():
    """A skipped guard span zeroes ``x``, which the span itself reads
    before redefining it: the next iteration must see the zero, even
    though nothing outside the span reads ``x``."""
    program = Program("g", [
        Instr("a", Op.MATCH_CC, cc=CharClass.of_char("a")),
        Instr("b", Op.MATCH_CC, cc=CharClass.of_char("b")),
        Instr("c", Op.COPY, ("a",)),
        Instr("g", Op.CONST, const="zero"),
        Instr("x", Op.COPY, ("b",)),
        WhileLoop("c", [
            SkipGuard("g", 2),
            Instr("y", Op.OR, ("x", "a")),
            Instr("x", Op.COPY, ("y",)),
            Instr("g", Op.COPY, ("c",)),
            Instr("t", Op.SHIFT, ("c",), shift=1),
            Instr("c", Op.AND, ("t", "a")),
        ]),
    ], {"R": "y"})
    program.validate()
    _assert_same_outputs(program, b"aaab", honour_guards=True)
    _assert_same_outputs(program, b"aaab", honour_guards=False)


def test_interpreter_rejects_unknown_backend():
    with pytest.raises(ValueError):
        Interpreter(backend="cuda")
