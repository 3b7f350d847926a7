"""The opt_level-2 pass pipeline: CSE and algebraic folding — unit
behaviour, guard/loop conservatism, fixpoint idempotence, and
bit-identity across optimization levels."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.zeroskip import insert_guards
from repro.ir.instructions import Instr, Op, SkipGuard, iter_instrs
from repro.ir.interpreter import Interpreter
from repro.ir.lower import lower_group, lower_regex
from repro.ir.passes import (LEVEL1_PASSES, PipelineReport,
                             eliminate_common_subexpressions,
                             optimize_pipeline, simplify_algebraic)
from repro.ir.program import Program
from repro.regex.charclass import CharClass
from repro.regex.parser import parse

from ..conftest import random_text

A = CharClass.of_char("a")
B = CharClass.of_char("b")


def run(program, data, honour_guards=False):
    return Interpreter(honour_guards=honour_guards).run(program, data)


def count_instrs(program):
    return program.instruction_count()


def ops_of(program):
    return [i.op for i in iter_instrs(program.statements)]


def prog(stmts, outputs):
    program = Program("t", list(stmts), dict(outputs))
    program.validate()
    return program


# -- CSE ----------------------------------------------------------------------


def test_cse_rewrites_duplicate_to_copy():
    program = prog([
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("y", Op.MATCH_CC, cc=A),
        Instr("r", Op.AND, ("x", "y")),
    ], {"R": "r"})
    result, changes = eliminate_common_subexpressions(program)
    assert changes == 1
    dup = [i for i in iter_instrs(result.statements) if i.dest == "y"][0]
    assert dup.op is Op.COPY and dup.args == ("x",)
    assert run(program, b"aa")["R"] == run(result, b"aa")["R"]


def test_cse_commutative_operand_order():
    program = prog([
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("y", Op.MATCH_CC, cc=B),
        Instr("p", Op.OR, ("x", "y")),
        Instr("q", Op.OR, ("y", "x")),
        Instr("r", Op.AND, ("p", "q")),
    ], {"R": "r"})
    result, changes = eliminate_common_subexpressions(program)
    assert changes == 1
    q = [i for i in iter_instrs(result.statements) if i.dest == "q"][0]
    assert q.op is Op.COPY and q.args == ("p",)


def test_cse_shift_is_not_commutative_sensitive():
    # Different shift distances must never merge.
    program = prog([
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("p", Op.SHIFT, ("x",), shift=1),
        Instr("q", Op.SHIFT, ("x",), shift=2),
        Instr("r", Op.AND, ("p", "q")),
    ], {"R": "r"})
    _, changes = eliminate_common_subexpressions(program)
    assert changes == 0


def test_cse_keeps_statement_counts_for_guards():
    base = insert_guards(lower_regex(parse("abcdef")), interval=2)
    result, _ = eliminate_common_subexpressions(base)
    result.validate()
    guards = lambda p: [s for s in p.statements
                        if isinstance(s, SkipGuard)]
    assert [g.skip_count for g in guards(result)] \
        == [g.skip_count for g in guards(base)]
    data = b"xx abcdef abcde"
    assert run(result, data, honour_guards=True)["R0"] \
        == run(base, data, honour_guards=False)["R0"]


def test_cse_does_not_register_guarded_defs():
    # d1 sits inside a guard span; a later twin must NOT alias to it,
    # because d1 may be zero-filled when the guard fires.
    program = Program("t", [
        Instr("x", Op.MATCH_CC, cc=A),
        SkipGuard("x", 1),
        Instr("d1", Op.SHIFT, ("x",), shift=1),
        Instr("d2", Op.SHIFT, ("x",), shift=1),
        Instr("r", Op.OR, ("d1", "d2")),
    ], {"R": "r"})
    program.validate()
    result, _ = eliminate_common_subexpressions(program)
    d2 = [i for i in iter_instrs(result.statements)
          if i.dest == "d2"][0]
    assert d2.op is Op.SHIFT        # untouched: no in-span source


def test_cse_loop_scope_does_not_leak():
    # A definition inside a loop body (which may run zero times) must
    # not serve statements after the loop.
    from repro.ir.instructions import WhileLoop
    program = Program("t", [
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("c", Op.COPY, ("x",)),
        WhileLoop("c", [
            Instr("inner", Op.SHIFT, ("x",), shift=1),
            Instr("c", Op.AND, ("c", "inner")),
        ]),
        Instr("after", Op.SHIFT, ("x",), shift=1),
        Instr("r", Op.OR, ("after", "c")),
    ], {"R": "r"})
    program.validate()
    result, _ = eliminate_common_subexpressions(program)
    after = [i for i in iter_instrs(result.statements)
             if i.dest == "after"][0]
    assert after.op is Op.SHIFT     # not rewritten to COPY(inner)


# -- algebraic ----------------------------------------------------------------


def test_algebraic_identities():
    program = prog([
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("z", Op.CONST, const="zero"),
        Instr("o", Op.CONST, const="ones"),
        Instr("a", Op.AND, ("x", "x")),      # -> x
        Instr("b", Op.OR, ("x", "z")),       # -> x
        Instr("c", Op.AND, ("x", "z")),      # -> zero
        Instr("d", Op.XOR, ("x", "x")),      # -> const zero
        Instr("e", Op.ANDN, ("x", "z")),     # -> x
        Instr("f", Op.AND, ("x", "o")),      # -> x
        Instr("n1", Op.NOT, ("x",)),
        Instr("n2", Op.NOT, ("n1",)),        # -> x
        Instr("r1", Op.OR, ("a", "b")),
        Instr("r2", Op.OR, ("c", "d")),
        Instr("r3", Op.OR, ("e", "f")),
        Instr("r4", Op.OR, ("r1", "r2")),
        Instr("r5", Op.OR, ("r4", "n2")),
        Instr("r", Op.OR, ("r5", "r3")),
    ], {"R": "r"})
    result, changes = simplify_algebraic(program)
    assert changes >= 7
    by_dest = {i.dest: i for i in iter_instrs(result.statements)}
    assert by_dest["a"].op is Op.COPY
    assert by_dest["c"].op is Op.COPY and by_dest["c"].args == ("z",)
    assert by_dest["d"].op is Op.CONST and by_dest["d"].const == "zero"
    assert by_dest["n2"].op is Op.COPY and by_dest["n2"].args == ("x",)
    for data in (b"abab", b"", b"zzz"):
        assert run(program, data)["R"] == run(result, data)["R"]


def test_algebraic_folds_cascade_within_one_run():
    # d = x & z -> copy z; then e = d | y should see d as zero via the
    # next round of the pipeline (copy-prop first), but the direct
    # known-const cascade already folds f = z2 & y in one pass.
    program = prog([
        Instr("z", Op.CONST, const="zero"),
        Instr("x", Op.MATCH_CC, cc=A),
        Instr("z2", Op.AND, ("x", "z")),      # rewritten to COPY z
        Instr("f", Op.XOR, ("x", "x")),       # -> CONST zero, registered
        Instr("g", Op.OR, ("x", "f")),        # folds against the new const
        Instr("r", Op.OR, ("z2", "g")),
    ], {"R": "r"})
    result, changes = simplify_algebraic(program)
    by_dest = {i.dest: i for i in iter_instrs(result.statements)}
    assert by_dest["g"].op is Op.COPY and by_dest["g"].args == ("x",)
    assert run(program, b"ab")["R"] == run(result, b"ab")["R"]


def test_algebraic_ignores_guarded_consts():
    # A CONST ones defined inside a guard span is zero-filled when the
    # guard fires — it must not seed folds outside the span.
    program = Program("t", [
        Instr("x", Op.MATCH_CC, cc=A),
        SkipGuard("x", 1),
        Instr("o", Op.CONST, const="ones"),
        Instr("u", Op.AND, ("x", "o")),
        Instr("r", Op.OR, ("u", "x")),
    ], {"R": "r"})
    program.validate()
    result, _ = simplify_algebraic(program)
    u = [i for i in iter_instrs(result.statements) if i.dest == "u"][0]
    assert u.op is Op.AND          # not folded to COPY x


# -- pipeline -----------------------------------------------------------------


TABLE2_PATTERNS = ["abc", "a(bc)*d", "(ab|cd)+e", "a{2,4}b", "x?y?z",
                   "[ab]c[de]", "a(b(c|d))*e", "colou?r", "cat|dog",
                   "[0-9][0-9]", "virus[0-9]+", "GET /[a-z]+"]


def test_pipeline_reports_per_pass_deltas():
    program = lower_group([parse(p) for p in TABLE2_PATTERNS])
    optimized, report = optimize_pipeline(program, level=2)
    assert isinstance(report, PipelineReport)
    assert report.before == count_instrs(program)
    assert report.after == count_instrs(optimized)
    assert report.ops_removed == report.before - report.after
    names = {d.name for d in report.passes}
    assert names == {"copy_prop", "cse", "algebraic", "dce"}
    assert sum(d.ops_removed for d in report.passes) \
        == report.ops_removed


def test_pipeline_idempotent():
    program = lower_group([parse(p) for p in TABLE2_PATTERNS])
    once, _ = optimize_pipeline(program, level=2)
    twice, report = optimize_pipeline(once, level=2)
    assert report.ops_removed == 0
    assert all(d.rewrites == 0 for d in report.passes)
    assert count_instrs(twice) == count_instrs(once)


def test_pipeline_level1_matches_classic_cleanups():
    """Level 1 is copy propagation + DCE, alternated to a fixpoint."""
    program = lower_group([parse(p) for p in TABLE2_PATTERNS])
    classic = program
    changed = True
    while changed:
        changed = False
        for _, cleanup in LEVEL1_PASSES:
            classic, changes = cleanup(classic)
            changed |= changes > 0
    level1, _ = optimize_pipeline(program, level=1)
    assert level1.statements == classic.statements


def test_pipeline_level0_is_identity():
    program = lower_group([parse("a(bc)*d")])
    same, report = optimize_pipeline(program, level=0)
    assert same is program
    assert report.ops_removed == 0 and report.passes == []


def test_pipeline_never_grows_programs():
    for pattern in TABLE2_PATTERNS:
        program = lower_group([parse(pattern)])
        optimized, _ = optimize_pipeline(program, level=2)
        assert count_instrs(optimized) <= count_instrs(program)


def test_pipeline_guard_consistency():
    base = insert_guards(lower_regex(parse("virus[0-9]+")), interval=2)
    optimized, _ = optimize_pipeline(base, level=2)
    optimized.validate()
    data = b"xx virus123 virus zz virus7"
    assert run(optimized, data, honour_guards=True)["R0"] \
        == run(base, data, honour_guards=False)["R0"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TABLE2_PATTERNS), min_size=1,
                max_size=4, unique=True),
       st.integers(min_value=0, max_value=2**32))
def test_opt_levels_bit_identical_property(patterns, seed):
    rng = random.Random(seed)
    data = random_text(rng, rng.randrange(0, 60), "abcdexyz0123 GET/")
    program = lower_group([parse(p) for p in patterns])
    reference = run(program, data)
    for level in (1, 2):
        optimized, _ = optimize_pipeline(program, level)
        assert run(optimized, data) == reference, \
            f"level {level} diverged on {patterns!r} / {data!r}"


# -- engine-level acceptance: opt levels never change matches ----------------


from repro.core import SCHEME_LADDER
from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig

TINY_GEO = CTAGeometry(threads=8, word_bits=4)

ENGINE_PATTERNS = ["a(bc)*d", "cat|dog", "virus[0-9]+", "[ab]c[de]",
                   "colou?r", "x?y?z"]
ENGINE_DATA = (b"abcbcd cat virus42 acd bce colour color xyz yz "
               b"dog abcd catdog virus7 " * 4)


def _engine_matches(scheme, backend, level):
    engine = BitGenEngine.compile(
        ENGINE_PATTERNS,
        config=ScanConfig(scheme=scheme, backend=backend,
                          geometry=TINY_GEO, cta_count=2,
                          loop_fallback=True, opt_level=level))
    return engine.match(ENGINE_DATA).ends, engine


@pytest.mark.parametrize("backend", ["simulate", "compiled"])
@pytest.mark.parametrize("scheme", SCHEME_LADDER, ids=lambda s: s.value)
def test_engine_opt_levels_bit_identical(scheme, backend):
    baseline, _ = _engine_matches(scheme, backend, 0)
    for level in (1, 2):
        ends, _ = _engine_matches(scheme, backend, level)
        assert ends == baseline, \
            f"{scheme.value}/{backend} diverged at opt_level={level}"


def test_engine_reports_optimization_stats():
    _, engine = _engine_matches(SCHEME_LADDER[-1], "simulate", 2)
    stats = engine.optimization_stats()
    assert stats["opt_level"] == 2
    assert stats["ops_removed"] > 0
    assert stats["instrs_after"] \
        == stats["instrs_before"] - stats["ops_removed"]
    assert set(stats["passes"]) == {"copy_prop", "cse", "algebraic",
                                    "dce", "factor"}
    totals = engine.program_stats()
    assert totals["optimized_away"] == stats["ops_removed"]


def test_engine_opt_level0_reports_nothing():
    _, engine = _engine_matches(SCHEME_LADDER[-1], "simulate", 0)
    stats = engine.optimization_stats()
    assert stats["opt_level"] == 0
    assert stats["ops_removed"] == 0
    assert stats["passes"] == {}


def test_engine_opt2_executes_fewer_ops():
    # The acceptance criterion behind BENCH_ir_opt.json, in miniature:
    # level 2 must compile strictly smaller programs than level 0.
    _, at0 = _engine_matches(SCHEME_LADDER[-1], "simulate", 0)
    _, at2 = _engine_matches(SCHEME_LADDER[-1], "simulate", 2)
    assert at2.program_stats()["instrs"] \
        < at0.program_stats()["instrs"]
