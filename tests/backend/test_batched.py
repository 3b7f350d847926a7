"""Bucketed CTA dispatch must be bit-identical to one-at-a-time
execution — grouping programs that share a kernel is a pure scheduling
change — and one transpose of an input serves every group on both
backends.
"""

import numpy as np
import pytest

from repro.backend import (basis_environment, compile_group,
                           compile_program, dispatch_words, iter_dispatch,
                           runtime)
from repro.core.engine import BitGenEngine
from repro.core.schemes import SCHEME_LADDER, Scheme
from repro.parallel.config import ScanConfig
from repro.ir.interpreter import (Interpreter, make_environment,
                                  words_environment)
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


def _dispatch(compiled, data):
    return dispatch_words(compiled, basis_environment(data), len(data) + 1)


def test_dispatch_programs_matches_interpreter():
    programs = _programs(["abc", "xyz", "qrs"]) + \
        [lower_group([parse(p)]) for p in ["a(b|c)*d", "x{2,4}y"]]
    compiled = compile_group(programs)
    # The three distinct-byte literals share one kernel → one bucket.
    fingerprints = [c.kernel.fingerprint for c in compiled]
    assert len(set(fingerprints[:3])) == 1
    length = len(DATA) + 1
    for program, (raw, _stats) in zip(programs, _dispatch(compiled, DATA)):
        expected = _expected(program, DATA)
        assert set(raw) == set(expected)
        for name in expected:
            assert _as_int(raw[name], length) == expected[name].bits


def test_dispatch_words_derives_the_bytes_list_ops_read():
    """``dispatch_words`` gets only the basis words: on a stream long
    enough for position lists the kernels derive the input bytes from
    them, and every output still equals the interpreter's."""
    data = DATA[:40] + b"." * runtime.SPARSE_MIN_LENGTH + DATA[:40]
    programs = _programs(["abc", "xyz"]) + \
        [lower_group([parse(p)]) for p in ["a(b|c)*d", "cat|dog"]]
    compiled = compile_group(programs)
    length = len(data) + 1
    markers = [value for _, (raw, _stats) in
               iter_dispatch(compiled, basis_environment(data), length)
               for value in raw.values()]
    assert any(isinstance(value, runtime.Positions) for value in markers)
    for program, (raw, _stats) in zip(programs, _dispatch(compiled, data)):
        expected = _expected(program, data)
        for name in expected:
            assert _as_int(raw[name], length) == expected[name].bits


def test_dispatch_matches_individual_runs():
    programs = _programs(["abc", "xyz", "qrs"])
    compiled = compile_group(programs)
    batched = _dispatch(compiled, DATA)
    for member, (raw, _stats) in zip(compiled, batched):
        solo, _ = member.run_data(DATA)
        for name in solo:
            assert np.array_equal(raw[name], solo[name])


def test_dispatch_streams_matches_interpreter():
    """Several streams are several dispatches of the same kernel."""
    program = lower_group([parse(p) for p in ["ab", "a(b|c)*d"]])
    compiled = compile_program(program)
    streams = [DATA, DATA[:96], b"", DATA[:96], b"dacb" * 40]
    results = [_dispatch([compiled], stream)[0] for stream in streams]
    for stream, (raw, _stats) in zip(streams, results):
        expected = _expected(program, stream)
        length = len(stream) + 1
        for name in expected:
            assert _as_int(raw[name], length) == expected[name].bits


def test_batched_outputs_are_independent_copies():
    compiled = compile_group(_programs(["abc", "xyz"]))
    first, second = _dispatch(compiled, DATA)
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
    """On both backends ``match_many(xs)`` is ``[match(x) for x in
    xs]``: each stream's result is what scanning it alone reports."""
    streams = [b"abcd" + b"." * 40, b"a" + b"bc" * 20 + b"d" + b"xy",
               b"." * 44, b""]
    for backend in ("simulate", "compiled"):
        engine = BitGenEngine.compile(["a(bc)*d", "x+y"],
                                      config=ScanConfig(backend=backend))
        for stream, result in zip(streams, engine.match_many(streams)):
            alone = engine.match(stream)
            assert result.ends == alone.ends
            assert result.metrics == alone.metrics
            assert result.cta_metrics == alone.cta_metrics


def test_basis_words_give_the_interpreter_planes():
    """The simulating executors read their planes from the same basis
    words the kernels read: equal to the interpreter's own transpose
    at every tail alignment."""
    data = bytes(range(256)) * 17
    for size in list(range(0, 130)) + [511, 512, 513, 4096, 4097]:
        chunk = data[:size]
        assert words_environment(basis_environment(chunk), size + 1) \
            == make_environment(chunk), size


def test_cached_word_op_weights_match_a_fresh_walk():
    """The static weights are walked once per program; the per-scan
    loop counts still move thread_word_ops."""
    from repro.backend import estimate_metrics
    from repro.ir.program import Program

    engine = BitGenEngine.compile(["a(bc)*d", "x+y"],
                                  config=ScanConfig(backend="compiled"))
    program = engine.groups[0].program
    compiled = compile_program(program)
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


def test_compiled_engines_are_scheme_independent():
    """``scheme`` chooses the simulated schedule only: a compiled engine
    lowers, then stops, under every scheme of the ladder.
    So the five compile to equal programs with no guards and no barrier
    plan, and report equal matches and metrics; the estimated counters
    are pinned."""
    from repro.ir.instructions import SkipGuard, WhileLoop

    def guards(stmts) -> int:
        return sum(1 if isinstance(stmt, SkipGuard)
                   else guards(stmt.body) if isinstance(stmt, WhileLoop)
                   else 0 for stmt in stmts)

    patterns = ["a(bc)*d", "x+y", "cat|dog", "[0-9]{2,4}z", "ab[^\n]*cd",
                "GET /[a-z]+", "\x00\xff+", "qu[aeiou]te", "zz(top)?s"]
    data = (b"abcbcd cat abqqcd dog\n\x80bd ab\ncd a\xffbd catalog ") * 7
    runs = []
    for scheme in SCHEME_LADDER:
        engine = BitGenEngine.compile(patterns, config=ScanConfig(
            scheme=scheme, backend="compiled", cta_count=3))
        assert all(group.barrier_plan is None for group in engine.groups)
        assert not any(guards(group.program.statements)
                       for group in engine.groups)
        report = engine.scan(data)
        runs.append(([group.program for group in engine.groups],
                     report.matches, report.metrics))
    assert all(run == runs[0] for run in runs[1:])
    metrics = runs[0][2]
    assert (metrics.thread_word_ops, metrics.loop_iterations,
            metrics.guard_checks, metrics.guard_hits) == (3920, 14, 0, 0)


def test_compiled_engines_run_no_pass_pipeline():
    """A compiled group runs its members' lowering as is (value-numbered
    from opt_level 1): no optimizer pass runs, so there is no per-pass
    accounting and no ``optimize`` span, and levels 1 and 2 build the
    same programs."""
    from repro import obs

    patterns = ["a(bc)*d", "x+y", "cat|dog", "[0-9]{2,4}z", "ab[^\n]*cd",
                "qu[aeiou]te", "zz(top)?s"]
    programs = {}
    for level in (0, 1, 2):
        tracer = obs.start_tracing()
        try:
            engine = BitGenEngine.compile(patterns, config=ScanConfig(
                backend="compiled", cta_count=3, opt_level=level))
        finally:
            obs.stop_tracing()
        names = {span["name"] for span in tracer.finished()}
        assert "lower" in names
        assert "optimize" not in names
        assert not any(name.startswith("pass:") for name in names)
        for compiled in engine.groups:
            members = [engine._nodes[i] for i in compiled.group.indices]
            assert compiled.program == lower_group(
                members, names=[f"R{k}" for k in range(len(members))],
                value_number=level > 0)
            assert compiled.opt_report is None
        assert engine.optimization_stats()["passes"] == {}
        programs[level] = [compiled.program for compiled in engine.groups]
    assert programs[1] == programs[2] != programs[0]
