"""Differential fuzzing: random regex ASTs, random inputs, three
independent matching algorithms that must agree bit-for-bit.

This is the strongest correctness evidence in the suite: the bitstream
path (lowering + interleaved execution), the reference interpreter, and
the Glushkov-NFA simulation share no code beyond the AST, so a bug in
any lowering rule, window computation, or automaton construction shows
up as a disagreement on some generated (pattern, input) pair.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitGenEngine, Scheme
from repro.automata.nfa import match_ends
from repro.gpu.machine import CTAGeometry
from repro.ir.interpreter import run_regexes
from repro.parallel.config import ScanConfig
from repro.regex import ast
from repro.regex.charclass import CharClass

ALPHABET = "abcd"
#: bytes outside the alphabet that some inputs draw: NUL (the byte the
#: cursor slot reads as) and the high-bit extremes
EXTRA_BYTES = "\x00\x80\xff"
BACKENDS = ["simulate", "compiled"]
TINY = CTAGeometry(threads=8, word_bits=4)

pytestmark = pytest.mark.slow


def random_regex(rng: random.Random, depth: int = 3) -> ast.Regex:
    """A random AST over a small alphabet, biased toward the constructs
    that stress cross-block machinery (concatenation, stars, classes)."""
    if depth <= 0:
        return _random_lit(rng)
    roll = rng.random()
    if roll < 0.30:
        return _random_lit(rng)
    if roll < 0.55:
        parts = [random_regex(rng, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        return ast.seq(*parts)
    if roll < 0.72:
        branches = [random_regex(rng, depth - 1)
                    for _ in range(rng.randint(2, 3))]
        return ast.alt(*branches)
    if roll < 0.85:
        return ast.Star(random_regex(rng, depth - 1))
    lo = rng.randint(0, 2)
    hi = lo + rng.randint(0, 2)
    return ast.Rep(random_regex(rng, depth - 1), lo, hi)


def _random_lit(rng: random.Random) -> ast.Regex:
    count = rng.randint(1, len(ALPHABET))
    chars = rng.sample(ALPHABET, count)
    cc = CharClass.of_chars("".join(chars))
    # A negated class also holds NUL and the high bytes.
    return ast.Lit(cc.complement() if rng.random() < 0.1 else cc)


def random_input(rng: random.Random) -> bytes:
    alphabet = ALPHABET + " "
    if rng.random() < 0.5:
        alphabet += EXTRA_BYTES
    return "".join(rng.choice(alphabet) for _ in
                   range(rng.randrange(0, 80))).encode("latin-1")


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**64))
def test_three_way_differential(seed):
    rng = random.Random(seed)
    node = random_regex(rng)
    data = random_input(rng)

    interpreter_ends = run_regexes([node], data)["R0"]
    nfa_ends = match_ends([node], data)[0]
    assert interpreter_ends == nfa_ends, \
        f"bitstream vs NFA disagree: {node!r} on {data!r}"

    engine = BitGenEngine.compile(
        [node], config=ScanConfig(scheme=Scheme.ZBS, geometry=TINY,
                                  loop_fallback=True))
    assert engine.match(data).ends[0] == interpreter_ends, \
        f"interleaved vs interpreter disagree: {node!r} on {data!r}"


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64))
def test_multi_pattern_differential(backend, seed):
    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2) for _ in range(4)]
    data = random_input(rng)
    engine = BitGenEngine.compile(
        nodes, config=ScanConfig(scheme=Scheme.SR, geometry=TINY,
                                 cta_count=2, loop_fallback=True,
                                 backend=backend))
    result = engine.match(data)
    expected = run_regexes(nodes, data)
    for index in range(len(nodes)):
        assert result.ends[index] == expected[f"R{index}"], \
            f"pattern {index}: {nodes[index]!r} on {data!r}"


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64))
def test_prefiltered_factored_differential(backend, seed):
    """The rule-set-scale pipeline (prologue factoring + literal
    prefilter gating, both gate impls, both grouping strategies) must
    be bit-identical to the plain ungated interpreter — on the
    compiled backend, with gated subsets of one shared class table."""
    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2) for _ in range(5)]
    data = random_input(rng)
    expected = run_regexes(nodes, data)
    for grouping in ("balanced", "fingerprint"):
        for impl in ("screen", "ac"):
            engine = BitGenEngine.compile(
                nodes, config=ScanConfig(
                    scheme=Scheme.ZBS, geometry=TINY, cta_count=2,
                    grouping=grouping, prefilter=True,
                    prefilter_impl=impl, loop_fallback=True,
                    backend=backend))
            result = engine.match(data)
            for index in range(len(nodes)):
                assert result.ends[index] == expected[f"R{index}"], \
                    (f"{grouping}/{impl} pattern {index}: "
                     f"{nodes[index]!r} on {data!r}")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**64))
def test_incremental_update_differential(seed):
    """An incrementally updated engine must match exactly what a cold
    compile of the new set matches."""
    from repro.core.incremental import update_engine

    rng = random.Random(seed)
    nodes = [random_regex(rng, depth=2) for _ in range(4)]
    config = ScanConfig(scheme=Scheme.ZBS, geometry=TINY, cta_count=2,
                        grouping="fingerprint", loop_fallback=True)
    engine = BitGenEngine.compile(nodes, config=config)
    new_nodes = nodes[1:] + [random_regex(rng, depth=2)]
    updated, _ = update_engine(engine, new_nodes)
    data = random_input(rng)
    expected = run_regexes(new_nodes, data)
    result = updated.match(data)
    for index in range(len(new_nodes)):
        assert result.ends[index] == expected[f"R{index}"], \
            f"pattern {index}: {new_nodes[index]!r} on {data!r}"
