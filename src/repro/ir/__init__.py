"""Bitstream-program IR: instructions, programs, lowering, interpretation."""

from .cc_compiler import CCCompiler
from .dfg import RegionDFG, split_regions
from .instructions import (CONST_END, CONST_ONES, CONST_START, CONST_TEXT,
                           CONST_ZERO, Instr, Op, SkipGuard, Stmt, WhileLoop,
                           count_ops, iter_instrs)
from .interpreter import (ExecutionError, Interpreter, const_stream,
                          make_environment, match_positions, run_regexes)
from .lower import LoweringError, lower_group, lower_regex
from .passes import (PassPipeline, PipelineReport,
                     eliminate_common_subexpressions, optimize_pipeline,
                     simplify_algebraic)
from .program import BASIS_VARS, Program, ProgramBuilder

__all__ = [
    "BASIS_VARS", "CCCompiler", "CONST_END", "CONST_ONES", "CONST_START",
    "CONST_TEXT", "CONST_ZERO", "ExecutionError", "Instr", "Interpreter",
    "LoweringError", "Op", "PassPipeline", "PipelineReport", "Program",
    "ProgramBuilder", "RegionDFG", "SkipGuard", "Stmt", "WhileLoop",
    "const_stream", "count_ops",
    "eliminate_common_subexpressions", "iter_instrs", "lower_group",
    "lower_regex", "make_environment", "match_positions",
    "optimize_pipeline", "run_regexes",
    "simplify_algebraic", "split_regions",
]
