"""Bucketed CTA dispatch must be bit-identical to one-at-a-time
execution — grouping programs that share a kernel (or streams that
share a length) is a pure scheduling change.
"""

import numpy as np
import pytest

from repro.backend import (compile_group, dispatch_programs,
                           dispatch_streams, compile_program)
from repro.core.engine import BitGenEngine
from repro.core.schemes import Scheme
from repro.parallel.config import ScanConfig
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group
from repro.regex.parser import parse

from tests.backend.test_cache import _literal_program

DATA = b"abxabcbbd aacd xxy cat dog ac bc qrs " * 20


def _programs(patterns):
    """MATCH_CC cursor matchers: same-shape literals share kernels, so
    buckets hold several CTAs; regex programs lowered via CCCompiler get
    per-structure kernels and single-CTA buckets."""
    return [_literal_program(p) for p in patterns]


def _expected(program, data):
    return Interpreter().run(program, data)


def _as_int(words, length):
    return int.from_bytes(np.asarray(words).tobytes(), "little") \
        & ((1 << length) - 1)


def test_dispatch_programs_matches_interpreter():
    programs = _programs(["abc", "xyz", "qrs"]) + \
        [lower_group([parse(p)]) for p in ["a(b|c)*d", "x{2,4}y"]]
    compiled = compile_group(programs)
    # The three distinct-byte literals share one kernel → one bucket.
    fingerprints = [c.kernel.fingerprint for c in compiled]
    assert len(set(fingerprints[:3])) == 1
    length = len(DATA) + 1
    for program, (raw, _stats) in zip(
            programs, dispatch_programs(compiled, DATA)):
        expected = _expected(program, DATA)
        assert set(raw) == set(expected)
        for name in expected:
            assert _as_int(raw[name], length) == expected[name].bits


def test_dispatch_matches_individual_runs():
    programs = _programs(["abc", "xyz", "qrs"])
    compiled = compile_group(programs)
    batched = dispatch_programs(compiled, DATA)
    for member, (raw, _stats) in zip(compiled, batched):
        solo, _ = member.run_data(DATA)
        for name in solo:
            assert np.array_equal(raw[name], solo[name])


def test_dispatch_streams_matches_interpreter():
    program = lower_group([parse(p) for p in ["ab", "a(b|c)*d"]])
    compiled = compile_program(program)
    streams = [DATA, DATA[:96], b"", DATA[:96], b"dacb" * 40]
    results = dispatch_streams(compiled, streams)
    for stream, (raw, _stats) in zip(streams, results):
        expected = _expected(program, stream)
        length = len(stream) + 1
        for name in expected:
            assert _as_int(raw[name], length) == expected[name].bits


def test_batched_outputs_are_independent_copies():
    compiled = compile_group(_programs(["abc", "xyz"]))
    first, second = dispatch_programs(compiled, DATA)
    first[0]["R0"][:] = 0
    solo, _ = compiled[1].run_data(DATA)
    assert np.array_equal(second[0]["R0"], solo["R0"])


@pytest.mark.parametrize("scheme", [Scheme.BASE, Scheme.DTM, Scheme.ZBS])
def test_engine_backend_equivalence(scheme):
    patterns = ["ab", "a(b|c)*d", "x{2,4}y", "cat", "dog", "[ab]c"]
    simulate = BitGenEngine.compile(patterns,
                                    config=ScanConfig(scheme=scheme))
    compiled = BitGenEngine.compile(
        patterns, config=ScanConfig(scheme=scheme, backend="compiled"))
    assert simulate.match(DATA).ends == compiled.match(DATA).ends


def test_engine_match_many_backend_equivalence():
    patterns = ["ab", "a(b|c)*d", "cat"]
    streams = [DATA, DATA[:100], b"", DATA[:100]]
    simulate = BitGenEngine.compile(patterns)
    compiled = BitGenEngine.compile(
        patterns, config=ScanConfig(backend="compiled"))
    for left, right in zip(simulate.match_many(streams),
                           compiled.match_many(streams)):
        assert left.ends == right.ends


def test_match_many_reports_each_streams_own_metrics():
    """Equal-length streams share a transpose class, not kernel stats:
    each stream's metrics are what scanning it alone reports."""
    engine = BitGenEngine.compile(["a(bc)*d", "x+y"],
                                  config=ScanConfig(backend="compiled"))
    streams = [b"abcd" + b"." * 40, b"a" + b"bc" * 20 + b"d" + b"xy",
               b"." * 44]
    for stream, result in zip(streams, engine.match_many(streams)):
        assert result.metrics == engine.match(stream).metrics


def test_sequential_compiled_metrics_match_simulation():
    from repro.core.sequential import SequentialExecutor

    program = lower_group([parse(p) for p in ["a(b|c)*d", "a+b"]])
    simulate = SequentialExecutor().run(program, DATA)
    compiled = SequentialExecutor(backend="compiled").run(program, DATA)
    for name in simulate.outputs:
        assert compiled.outputs[name].bits == simulate.outputs[name].bits
    for counter in ("thread_word_ops", "loop_iterations", "barriers",
                    "fused_loops", "dram_read_bytes", "dram_write_bytes",
                    "intermediate_streams", "peak_intermediate_bytes",
                    "blocks_processed", "output_bits"):
        assert getattr(compiled.metrics, counter) == \
            getattr(simulate.metrics, counter), counter


def test_cached_word_op_weights_match_a_fresh_walk():
    """The static weights are walked once per program; the per-scan
    loop counts still move thread_word_ops."""
    from repro.backend import estimate_metrics
    from repro.ir.program import Program

    engine = BitGenEngine.compile(["a(bc)*d", "x+y"],
                                  config=ScanConfig(backend="compiled"))
    program = engine.groups[0].program
    compiled = compile_program(
        program, honour_guards=engine.scheme.zero_skipping)
    ops = []
    for data in (b"abcd", b"a" + b"bc" * 50 + b"d"):
        _, stats = compiled.run_data(data)
        cached = estimate_metrics(program, engine.geometry,
                                  len(data) + 1, stats)
        assert program.word_op_weights is not None
        fresh = Program(program.name, program.statements, program.outputs,
                        program.inputs)
        walked = estimate_metrics(fresh, engine.geometry, len(data) + 1,
                                  stats)
        assert cached.thread_word_ops == walked.thread_word_ops
        assert engine.match(data).cta_metrics[0].thread_word_ops \
            == walked.thread_word_ops
        ops.append((cached.loop_iterations, cached.thread_word_ops))
    assert ops[0][0] != ops[1][0]


def test_compiled_zbs_metrics_are_pinned():
    """A ZBS compiled engine's estimated metrics on a fixed input,
    pinned: class streams moving out of guarded spans into the class
    table must not shift the dynamic counters (guard checks and hits,
    loop trips) the kernels report."""
    patterns = ["a(bc)*d", "x+y", "cat|dog", "[0-9]{2,4}z", "ab[^\n]*cd",
                "GET /[a-z]+", "\x00\xff+", "qu[aeiou]te", "zz(top)?s"]
    data = (b"abcbcd cat abqqcd dog\n\x80bd ab\ncd a\xffbd catalog ") * 7
    engine = BitGenEngine.compile(patterns, config=ScanConfig(
        scheme=Scheme.ZBS, backend="compiled", cta_count=3))
    metrics = engine.scan(data).metrics
    assert (metrics.thread_word_ops, metrics.loop_iterations,
            metrics.guard_checks, metrics.guard_hits) == (3780, 14, 60, 7)
