"""Failure injection and edge behaviour of the interleaved executor."""

import pytest

from repro.core import BitGenEngine, OverlapLimitError, Scheme
from repro.core.interleaved import InterleavedExecutor
from repro.gpu.machine import CTAGeometry
from repro.ir.instructions import Instr, Op, WhileLoop
from repro.ir.interpreter import make_environment, run_regexes
from repro.ir.lower import lower_regex
from repro.ir.program import Program
from repro.parallel.config import ScanConfig
from repro.regex.parser import parse

TINY = CTAGeometry(threads=8, word_bits=4)  # 32-bit blocks


def chain_input(repeats: int) -> bytes:
    return b"x" + b"ab" * repeats + b"c" + b"x"


def test_overlap_limit_raises_without_fallback():
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM, geometry=TINY))
    with pytest.raises(OverlapLimitError):
        engine.match(chain_input(100))


def test_fallback_produces_correct_results():
    data = chain_input(100)
    reference = run_regexes(["x(ab)*c"], data)
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM, geometry=TINY,
                                       loop_fallback=True))
    result = engine.match(data)
    assert result.ends[0] == reference["R0"]
    assert result.metrics.loop_fallbacks == 1


def test_fallback_not_triggered_for_short_chains():
    data = chain_input(2)
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM, geometry=TINY,
                                       loop_fallback=True))
    result = engine.match(data)
    assert result.metrics.loop_fallbacks == 0
    assert result.ends[0] == run_regexes(["x(ab)*c"], data)["R0"]


def test_chain_just_below_limit_still_interleaved():
    # With 32-bit blocks the max overlap is 32 bits: a 10-step chain
    # crossing one boundary fits.
    data = b"x" * 29 + b"x" + b"ab" * 5 + b"c"
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM, geometry=TINY,
                                       loop_fallback=True))
    result = engine.match(data)
    assert result.metrics.loop_fallbacks == 0
    assert result.ends[0] == run_regexes(["x(ab)*c"], data)["R0"]


def test_divergent_loop_detected():
    # A while loop whose condition never clears must be caught, not
    # spin forever.
    program = Program("diverge", [
        Instr("c", Op.CONST, const="ones"),
        WhileLoop("c", [Instr("t", Op.NOT, ("c",))]),
    ], {"R": "c"})
    program.validate()
    executor = InterleavedExecutor(geometry=TINY)
    with pytest.raises(RuntimeError, match="diverged"):
        executor.run(program, make_environment(b"abcdefgh"))


def test_base_scheme_unaffected_by_limit():
    # Sequential execution has no overlap limit at all.
    data = chain_input(200)
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.BASE, geometry=TINY))
    assert engine.match(data).ends[0] == \
        run_regexes(["x(ab)*c"], data)["R0"]


def test_dtm_minus_unaffected_by_limit():
    # DTM- materialises loop streams globally: also immune.
    data = chain_input(200)
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM_MINUS,
                                       geometry=TINY))
    assert engine.match(data).ends[0] == \
        run_regexes(["x(ab)*c"], data)["R0"]


def test_lookahead_rerun_counted():
    # Left shifts come from rebalancing; build one directly.
    from repro.ir.program import ProgramBuilder

    builder = ProgramBuilder("lookahead")
    a = builder.match_cc(parse("a").cc)
    peeked = builder.advance(a, -3)   # needs 3 bits of future
    builder.mark_output("R", builder.and_(a, peeked))
    program = builder.finish()
    executor = InterleavedExecutor(geometry=TINY)
    result = executor.run(program, make_environment(b"aaaaXaaa" * 12))
    from repro.ir.interpreter import Interpreter

    expected = Interpreter().run(program, b"aaaaXaaa" * 12)["R"]
    assert result.outputs["R"] == expected


def test_window_growth_on_match_heavy_input():
    # Every block full of star chains: dynamic overlap grows per block.
    data = b"x" + b"ab" * 12 + b"c" + (b"x" + b"ab" * 3 + b"c") * 10
    engine = BitGenEngine.compile(
        ["x(ab)*c"], config=ScanConfig(scheme=Scheme.DTM, geometry=TINY,
                                       loop_fallback=True))
    result = engine.match(data)
    assert result.ends[0] == run_regexes(["x(ab)*c"], data)["R0"]
    assert result.metrics.dynamic_overlap_max > 0
