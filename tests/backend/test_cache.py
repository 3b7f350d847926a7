"""Kernel cache keying: structural equality shares a code object,
semantic differences (shift distances) do not, and byte constants and
zero guards are not part of the key.
"""

import pytest

from repro.backend import KernelCache, canonicalize, compile_program
from repro.ir.program import ProgramBuilder
from repro.regex.charclass import CharClass

from tests.backend.test_compiled_equivalence import kernel_outputs


def _literal_program(text: str):
    """Cursor-style literal matcher over MATCH_CC primitives — the
    bytes stay parameters, so same-shape literals share a kernel.
    (Programs lowered through CCCompiler expand classes into basis
    boolean ops, baking the bytes into the structure.)"""
    builder = ProgramBuilder()
    cursor = builder.ones()
    for byte in text.encode():
        matched = builder.match_cc(CharClass.single(byte))
        cursor = builder.advance(builder.and_(cursor, matched), 1)
    builder.mark_output("R0", cursor)
    return builder.finish()


def _shift_program(distance: int):
    builder = ProgramBuilder()
    cursor = builder.advance("b0", distance)
    builder.mark_output("R0", builder.and_("b1", cursor))
    return builder.finish()


def test_distinct_bytes_share_one_kernel():
    # Same-length literals with pairwise-distinct bytes lower to
    # structurally identical programs: the bytes become parameters.
    cache = KernelCache()
    kernels = {compile_program(_literal_program(text),
                               cache=cache).kernel.fingerprint
               for text in ("abc", "xyz", "qrs")}
    assert len(kernels) == 1
    assert cache.stats.lookups == 3
    assert cache.stats.misses == 1
    assert cache.stats.hits == 2
    assert cache.stats.hit_rate() == pytest.approx(2 / 3)
    assert len(cache) == 1


def test_repeated_bytes_change_structure():
    # "aaa" CSEs its repeated character class, so its program is a
    # different shape and correctly takes a different kernel.
    cache = KernelCache()
    abc = compile_program(_literal_program("abc"), cache=cache)
    aaa = compile_program(_literal_program("aaa"), cache=cache)
    assert abc.kernel.fingerprint != aaa.kernel.fingerprint


def test_shift_distance_is_structural():
    cache = KernelCache()
    one = compile_program(_shift_program(1), cache=cache)
    two = compile_program(_shift_program(2), cache=cache)
    again = compile_program(_shift_program(1), cache=cache)
    assert one.kernel.fingerprint != two.kernel.fingerprint
    assert again.kernel is one.kernel
    assert cache.stats.misses == 2
    assert cache.stats.hits == 1


def test_variable_names_are_canonicalised():
    from repro.ir.instructions import Instr, Op
    from repro.ir.program import Program

    def build(prefix):
        return Program(
            name=prefix,
            statements=[
                Instr(op=Op.AND, dest=f"{prefix}_a", args=("b0", "b1")),
                Instr(op=Op.OR, dest=f"{prefix}_b",
                      args=(f"{prefix}_a", "b2")),
            ],
            outputs={"R0": f"{prefix}_b"})

    cache = KernelCache()
    left = compile_program(build("left"), cache=cache)
    right = compile_program(build("completely_different"), cache=cache)
    assert left.kernel is right.kernel


def test_guards_are_not_part_of_the_key():
    """Kernels run every guarded span, so canonicalisation drops
    ``SkipGuard``s: a guarded program shares its unguarded form's
    kernel."""
    from repro.core.zeroskip import insert_guards
    from repro.ir.instructions import SkipGuard

    program = _literal_program("abcdef")
    guarded = insert_guards(program, interval=1)
    assert any(isinstance(stmt, SkipGuard) for stmt in guarded.statements)
    assert canonicalize(guarded).digest == canonicalize(program).digest


def test_multibyte_match_cc_matches_interpreter():
    """MATCH_CC of any class compiles — the class table expands it over
    the planes — and equals the interpreter running the class's
    CCCompiler expansion, NUL (the byte the cursor slot reads as)
    included, at top level and inside a loop body."""
    from repro.ir.cc_compiler import CCCompiler
    from repro.ir.instructions import Instr, Op, WhileLoop
    from repro.ir.interpreter import Interpreter
    from repro.ir.program import Program

    def matcher(cc, expand: bool) -> Program:
        builder = ProgramBuilder()
        if expand:
            matched = CCCompiler(builder).compile(cc)
        else:
            matched = builder.match_cc(cc)
        builder.mark_output("R0", matched)
        program = builder.finish()
        # ...and again from a loop body: not a class stream there.
        inner = "inner_" + matched
        program.statements += [
            Instr("go", Op.CONST, const="start"),
            WhileLoop("go", [
                (Instr(inner, Op.MATCH_CC, cc=cc) if not expand
                 else Instr(inner, Op.COPY, (matched,))),
                Instr("go", Op.CONST, const="zero"),
            ]),
        ]
        program.outputs["R1"] = inner
        program.validate()
        return program

    data = bytes(range(256)) + b"abba\x00\x80\xff" * 3
    classes = [CharClass.of_chars("ab"), CharClass.of_chars("\x00a"),
               CharClass.any_byte(), CharClass.dot(),
               CharClass.of_chars("\x80\xff"), CharClass.single(0),
               CharClass.empty()]
    for cc in classes:
        compiled, _ = kernel_outputs(matcher(cc, expand=False), data)
        assert compiled == Interpreter().run(matcher(cc, expand=True),
                                             data), cc


def test_global_cache_reports_hits():
    from repro.backend import kernel_cache

    cache = kernel_cache()
    before = cache.stats.lookups
    compile_program(_literal_program("abc"))
    compile_program(_literal_program("abc"))
    assert cache.stats.lookups == before + 2
