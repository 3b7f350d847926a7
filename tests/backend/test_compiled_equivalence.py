"""Property tests: the compiled backend is bit-identical to the
reference big-integer interpreter.

Random regex groups are lowered and optimized exactly as a compiled
engine compiles them, and optionally also put through the simulate
path's Shift Rebalancing and Zero Block Skipping transforms, then
executed by both substrates over random inputs.  Kernels run every
guarded span, so a guarded program's kernel must equal the
guard-honouring interpreter on outputs (a guard may only skip work,
never change a bit) and the unguarded interpreter on loop trips.  Raw
kernel outputs are checked for bits at or past the stream end, which a
missing advance or NOT mask would leave behind.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import KernelInput, compile_program
from repro.bitstream.bitvector import BitVector
from repro.core.rebalance import rebalance_program
from repro.core.zeroskip import insert_guards
from repro.ir.instructions import Instr, Op
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group
from repro.ir.passes import optimize_pipeline
from repro.ir.program import Program

from tests.integration.test_differential_fuzz import (random_input,
                                                      random_regex)


def kernel_outputs(program, data):
    """``program``'s compiled kernel over ``data``: the outputs as
    :class:`BitVector` — unmasked, so a kernel that leaves a bit at or
    past the stream end (the cursor slot is the last valid bit) fails
    here — and the kernel's stats."""
    raw, stats = compile_program(program).run(KernelInput.of(data))
    return ({name: BitVector(value, len(data) + 1)
             for name, value in raw.items()}, stats)


def _assert_same_outputs(program, data):
    unguarded = Interpreter()
    expected = unguarded.run(program, data)
    honoured = Interpreter(honour_guards=True).run(program, data)
    actual, stats = kernel_outputs(program, data)
    assert set(expected) == set(honoured) == set(actual)
    for name in expected:
        assert actual[name].length == expected[name].length
        assert actual[name].bits == expected[name].bits, name
        assert honoured[name].bits == expected[name].bits, name
    # Dynamic behaviour must agree too: kernels run every guarded
    # span, so their loop trips are the unguarded interpreter's.
    assert [trips for _, trips in stats.loop_log] == \
        unguarded.loop_iteration_counts


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.booleans())
def test_compiled_matches_interpreter(seed, transform):
    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2)
             for _ in range(rng.randint(1, 3))]
    program = optimize_pipeline(lower_group(nodes), 1)[0]
    if transform:
        program = insert_guards(rebalance_program(program), interval=4)
    _assert_same_outputs(_with_tail_probes(program, rng),
                         random_input(rng))


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
    _assert_same_outputs(program, b"")
    _assert_same_outputs(insert_guards(program, interval=1), b"")


def test_compiled_while_loop_and_guards():
    from repro.regex.parser import parse

    program = lower_group([parse(p)
                           for p in ["a(b|c)*d", "x{2,4}y", "a+b"]])
    program = _with_tail_probes(
        insert_guards(rebalance_program(program), interval=4),
        random.Random(5))
    data = b"abxabcbbd aacd xxy ab aab bbbd " * 9
    _assert_same_outputs(program, data)

