"""Pass pipeline: run the structural passes to a joint fixpoint.

``optimize_pipeline(program, level)`` is the single entry point the
engine uses, on the simulate backend only (compiled engines lower and
stop):

* ``level 0`` — identity (no pipeline, empty report);
* ``level 1`` — the classic cleanups (copy propagation + DCE);
* ``level 2`` — the full pipeline: copy propagation → CSE → algebraic
  simplification → DCE, rounds repeated until no pass reports a
  change.  (SHIFT chains are merged by Shift Rebalancing,
  :mod:`repro.core.rebalance`, for the schemes that rebalance.)

Pass ordering inside a round matters for convergence speed, not
correctness: copy propagation first exposes structural twins to CSE,
CSE's COPYs feed the next round's propagation, algebraic folds mint
constants that cascade, and DCE sweeps the corpses so later rounds
scan less.  Any order reaches the
same fixpoint because every pass is semantics-preserving on its own.

The :class:`PipelineReport` records per-pass statement rewrites and
static instruction deltas; the engine attaches it to each simulated
group and surfaces it through ``BitGenEngine.optimization_stats()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ... import obs
from ..instructions import iter_instrs
from ..optimize import _eliminate_dead, _mutable_vars, _propagate_copies
from ..program import Program
from .algebraic import simplify_algebraic
from .cse import eliminate_common_subexpressions

_MAX_ROUNDS = 16

_REG = obs.registry()
_PASS_REWRITES = _REG.counter(
    "repro_opt_pass_rewrites_total",
    "Statements rewritten or dropped, per optimizer pass")
_PASS_OPS_REMOVED = _REG.counter(
    "repro_opt_pass_ops_removed_total",
    "Net static instructions removed, per optimizer pass")
_PIPELINE_RUNS = _REG.counter(
    "repro_opt_pipeline_runs_total",
    "Pass-pipeline executions, labelled by opt level")
_PIPELINE_SECONDS = _REG.histogram(
    "repro_opt_pipeline_seconds",
    "Wall time of one pass-pipeline run to fixpoint")

Pass = Callable[[Program], Tuple[Program, int]]


def _instr_count(program: Program) -> int:
    return sum(1 for _ in iter_instrs(program.statements))


def copy_propagation(program: Program) -> Tuple[Program, int]:
    """The cleanup half-passes from :mod:`repro.ir.optimize`, exposed
    under the pipeline's ``(program) -> (program, changes)`` protocol."""
    mutable = _mutable_vars(program.statements)
    stmts, changes = _propagate_copies(
        program.statements, mutable, set(program.outputs.values()))
    return Program(name=program.name, statements=stmts,
                   outputs=dict(program.outputs),
                   inputs=program.inputs), changes


def dead_code_elimination(program: Program) -> Tuple[Program, int]:
    stmts, changes = _eliminate_dead(
        program.statements, set(program.outputs.values()))
    return Program(name=program.name, statements=stmts,
                   outputs=dict(program.outputs),
                   inputs=program.inputs), changes


#: (name, pass) in round order for each opt level.
LEVEL1_PASSES: Tuple[Tuple[str, Pass], ...] = (
    ("copy_prop", copy_propagation),
    ("dce", dead_code_elimination),
)

LEVEL2_PASSES: Tuple[Tuple[str, Pass], ...] = (
    ("copy_prop", copy_propagation),
    ("cse", eliminate_common_subexpressions),
    ("algebraic", simplify_algebraic),
    ("dce", dead_code_elimination),
)

#: Level 2 without CSE, for the engine's zero-skipping path: global CSE
#: merges subexpressions *across* zero paths, interleaving chains that
#: the guard inserter needs contiguous and collapsing the skippable
#: spans (measured on Dotstar: more executed ops despite fewer static
#: instructions).  Zero-skipping schemes therefore run this before
#: ``insert_guards`` and the full pipeline after — CSE never registers
#: facts inside a guard span, so post-guard sharing cannot cross one.
LEVEL2_PREGUARD_PASSES: Tuple[Tuple[str, Pass], ...] = tuple(
    entry for entry in LEVEL2_PASSES if entry[0] != "cse")


@dataclass
class PassDelta:
    """Cumulative effect of one named pass across all rounds."""

    name: str
    rewrites: int = 0      # statements rewritten or dropped
    ops_removed: int = 0   # net static-instruction delta

    def to_dict(self) -> Dict[str, int]:
        return {"rewrites": self.rewrites, "ops_removed": self.ops_removed}


@dataclass
class PipelineReport:
    """Per-pass accounting for one (or a merged pair of) pipeline runs."""

    program: str
    level: int
    before: int
    after: int
    rounds: int = 0
    passes: List[PassDelta] = field(default_factory=list)

    @property
    def ops_removed(self) -> int:
        return self.before - self.after

    def delta(self, name: str) -> PassDelta:
        for entry in self.passes:
            if entry.name == name:
                return entry
        entry = PassDelta(name)
        self.passes.append(entry)
        return entry

    def merged_with(self, other: "PipelineReport") -> "PipelineReport":
        """Combine a pre-rebalance and a post-rebalance run.  ``before``
        comes from the first run and ``after`` from the second, so the
        rebalancer's own additions between them can make the combined
        ``ops_removed`` smaller than the per-pass sum."""
        merged = PipelineReport(program=self.program, level=other.level,
                                before=self.before, after=other.after,
                                rounds=self.rounds + other.rounds)
        for source in (self.passes, other.passes):
            for entry in source:
                target = merged.delta(entry.name)
                target.rewrites += entry.rewrites
                target.ops_removed += entry.ops_removed
        return merged

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "level": self.level,
            "instrs_before": self.before,
            "instrs_after": self.after,
            "ops_removed": self.ops_removed,
            "rounds": self.rounds,
            "passes": {entry.name: entry.to_dict()
                       for entry in self.passes},
        }


class PassPipeline:
    """Runs a pass list round-robin until a full round changes nothing."""

    def __init__(self, passes: Sequence[Tuple[str, Pass]],
                 level: int = 2, max_rounds: int = _MAX_ROUNDS):
        self.passes = tuple(passes)
        self.level = level
        self.max_rounds = max_rounds

    def run(self, program: Program) -> Tuple[Program, PipelineReport]:
        begin = time.perf_counter()
        report = PipelineReport(program=program.name, level=self.level,
                                before=_instr_count(program),
                                after=_instr_count(program))
        with obs.span("optimize", category="compile",
                      program=program.name, level=self.level) as root:
            for _ in range(self.max_rounds):
                round_changes = 0
                for name, fn in self.passes:
                    before = _instr_count(program)
                    with obs.span(f"pass:{name}",
                                  category="compile") as sp:
                        program, changes = fn(program)
                    removed = before - _instr_count(program)
                    if sp.is_recording:
                        sp.set(rewrites=changes, ops_removed=removed)
                    delta = report.delta(name)
                    delta.rewrites += changes
                    delta.ops_removed += removed
                    round_changes += changes
                report.rounds += 1
                if not round_changes:
                    break
            report.after = _instr_count(program)
            if root.is_recording:
                root.set(rounds=report.rounds, before=report.before,
                         after=report.after)
        program.validate()
        # The registry mirrors exactly what the report carries, so the
        # harness rows and a Prometheus scrape can never disagree.
        _PIPELINE_RUNS.inc(level=self.level)
        for delta in report.passes:
            if delta.rewrites or delta.ops_removed:
                _PASS_REWRITES.inc(delta.rewrites, pass_name=delta.name)
                _PASS_OPS_REMOVED.inc(delta.ops_removed,
                                      pass_name=delta.name)
        _PIPELINE_SECONDS.observe(time.perf_counter() - begin)
        return program, report


def optimize_pipeline(program: Program, level: int = 2,
                      passes: Sequence[Tuple[str, Pass]] = None
                      ) -> Tuple[Program, PipelineReport]:
    """Optimize ``program`` at ``level``; returns the program and the
    per-pass report (empty at level 0).  ``passes`` overrides the
    level's default pass list (still gated on ``level > 0``)."""
    if level <= 0:
        count = _instr_count(program)
        return program, PipelineReport(program=program.name, level=0,
                                       before=count, after=count)
    if passes is None:
        passes = LEVEL1_PASSES if level == 1 else LEVEL2_PASSES
    return PassPipeline(passes, level=level).run(program)
