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

Markers go sparse as position lists only on streams past
``runtime.SPARSE_MIN_LENGTH``: one property draws inputs that long,
with occurrences planted where a list op could slip (offset 0,
mid-stream, the last byte, ending at the cursor slot), and another
lowers the switch constants so the short inputs run in list form too.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import KernelInput, compile_program, runtime
from repro.backend.runtime import dense
from repro.bitstream.bitvector import BitVector
from repro.core.rebalance import rebalance_program
from repro.core.zeroskip import insert_guards
from repro.ir.instructions import Instr, Op
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group
from repro.ir.passes import optimize_pipeline
from repro.ir.program import Program
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.workloads.generators import sample_match

from tests.integration.test_differential_fuzz import (ALPHABET,
                                                      random_input,
                                                      random_regex)


def kernel_outputs(program, data):
    """``program``'s compiled kernel over ``data``: the outputs as
    :class:`BitVector` — unmasked, so a kernel that leaves a bit or a
    list position at or past the stream end (the cursor slot is the
    last valid one) fails here — and the kernel's stats."""
    raw, stats = compile_program(program).run(KernelInput.of(data))
    return ({name: BitVector(dense(value), len(data) + 1)
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


def _check_random_group(seed: int, transform: bool) -> None:
    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2)
             for _ in range(rng.randint(1, 3))]
    program = optimize_pipeline(lower_group(nodes), 1)[0]
    if transform:
        program = insert_guards(rebalance_program(program), interval=4)
    _assert_same_outputs(_with_tail_probes(program, rng),
                         random_input(rng))


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.booleans())
def test_compiled_matches_interpreter(seed, transform):
    _check_random_group(seed, transform)


@pytest.mark.slow
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.booleans(),
       st.sampled_from([0, 2, 1 << 20]))
def test_list_form_matches_interpreter_on_short_inputs(seed, transform,
                                                       max_bits):
    """Every stream is long enough for lists; a marker switches at the
    first step that leaves it with at most ``max_bits`` bits (0: only
    empty ones; ``1 << 20``: every one)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "SPARSE_MIN_LENGTH", 0)
        patch.setattr(runtime, "SPARSE_MAX_BITS", max_bits)
        _check_random_group(seed, transform)


def _within_alphabet(node) -> bool:
    if isinstance(node, ast.Lit):
        return set(node.cc.bytes()) <= set(ALPHABET.encode())
    children = getattr(node, "parts", None) \
        or getattr(node, "branches", None) or [node.body]
    return all(_within_alphabet(child) for child in children)


def _literal_regex(rng: random.Random):
    """A random regex whose classes all lie inside the alphabet, so a
    background of other bytes leaves its markers sparse.  It starts
    with two single-byte classes, a run of steps that can switch its
    marker to a list before the random part runs."""
    while True:
        node = random_regex(rng, depth=2)
        if _within_alphabet(node):
            break
    head = [ast.Lit(CharClass.of_chars("".join(
        rng.sample(ALPHABET, rng.randint(1, 2))))) for _ in range(2)]
    return ast.seq(*head, node)


def _long_input(rng: random.Random, nodes) -> bytes:
    """Just past the switch length: background bytes outside the
    alphabet, a little alphabet noise, and an occurrence of a pattern
    at offset 0, mid-stream, from the last byte on (cut short), and
    ending at the last byte (its marker on the cursor slot)."""
    size = runtime.SPARSE_MIN_LENGTH + rng.randrange(1, 2048)
    data = bytearray(rng.choices(b"xyz.", k=size))
    for _ in range(size // 256):
        data[rng.randrange(size)] = ord(rng.choice(ALPHABET))
    for start in (0, size // 2, size - 1, None):
        piece = sample_match(rng, rng.choice(nodes)) or b"a"
        if start is None:
            start = max(0, size - len(piece))
        piece = piece[:size - start]
        data[start:start + len(piece)] = piece
    return bytes(data)


@pytest.mark.slow
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**64))
def test_compiled_matches_interpreter_past_the_switch_length(seed):
    rng = random.Random(seed)
    nodes = [_literal_regex(rng) for _ in range(rng.randint(1, 3))]
    _assert_same_outputs(_with_tail_probes(lower_group(nodes), rng),
                         _long_input(rng, nodes))


def test_long_streams_carry_sparse_markers_as_lists():
    """On a stream past the switch length a literal's marker leaves
    the kernel as a position list, equal to the interpreter's ends."""
    from repro.regex.parser import parse

    program = lower_group([parse("abc"), parse("a[bc]+d")])
    size = runtime.SPARSE_MIN_LENGTH + 100
    data = bytearray(b"x" * size)
    for start in (0, 1000, size - 3):
        data[start:start + 3] = b"abc"
    data[5000:5004] = b"abcd"
    raw, _ = compile_program(program).run(KernelInput.of(bytes(data)))
    assert isinstance(raw["R0"], runtime.Positions)
    assert [p - 1 for p in raw["R0"]] == [2, 1002, 5002, size - 1]
    _assert_same_outputs(program, bytes(data))


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

