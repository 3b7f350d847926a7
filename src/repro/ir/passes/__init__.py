"""Structural optimization passes over bitstream programs.

:mod:`repro.ir.optimize` holds the cleanup helpers (copy propagation
+ DCE) the passes share.  This package runs them at opt_level 1 and
adds the opt_level-2 pipeline:

* :mod:`repro.ir.passes.cse` — common-subexpression elimination
* :mod:`repro.ir.passes.algebraic` — constant folding / simplification
* :mod:`repro.ir.passes.pipeline` — ``PassPipeline`` running all of the
  above plus the cleanups to a joint fixpoint, with per-pass deltas
  collected in a ``PipelineReport``.
"""

from .algebraic import simplify_algebraic
from .cse import eliminate_common_subexpressions
from .factor import factor_prologue
from .pipeline import (LEVEL1_PASSES, LEVEL2_PASSES,
                       LEVEL2_PREGUARD_PASSES, PassDelta, PassPipeline,
                       PipelineReport, optimize_pipeline)

__all__ = [
    "LEVEL1_PASSES",
    "LEVEL2_PASSES",
    "LEVEL2_PREGUARD_PASSES",
    "PassDelta",
    "PassPipeline",
    "PipelineReport",
    "eliminate_common_subexpressions",
    "factor_prologue",
    "optimize_pipeline",
    "simplify_algebraic",
]
