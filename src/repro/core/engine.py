"""BitGenEngine — the public compile-and-match API.

Mirrors the paper's workflow (Figure 4): regexes are partitioned into
balanced groups (Section 7), each group is lowered to one bitstream
program, and at match time each program executes as one CTA,
producing match results plus the kernel metrics the benchmarks report.

The backend decides what a group compiles to.  On the simulate
backend the IR pass pipeline and the per-scheme GPU transforms follow
(Shift Rebalancing, Zero Block Skipping, barrier planning) and each
program runs as one simulated CTA.  A compiled engine stops after
lowering: its kernel is one Python-int function with no barriers to
cut, it could skip only when a whole stream is zero, and the backend's
class table already computes each character class once per input and
shares equal kernel bodies, so those transforms and the pass pipeline
cost compile time and buy nothing.

Tuning knobs follow Section 7's parameter setup: ``scheme`` (the
Table 3 ladder), ``merge_size``, ``interval_size``, ``cta_count``, and
the CTA geometry.  ``scheme``, ``merge_size`` and ``interval_size``
choose the simulated schedule only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..bitstream.bitvector import BitVector
from ..gpu.machine import DEFAULT_GEOMETRY, CTAGeometry
from ..gpu.metrics import KernelMetrics
from ..ir.interpreter import words_environment
from ..ir.lower import lower_group
from ..ir.passes import (LEVEL2_PASSES, LEVEL2_PREGUARD_PASSES,
                         PipelineReport, factor_prologue,
                         optimize_pipeline)
from ..ir.program import Program
from ..parallel.config import ScanConfig, reject_legacy_kwargs
from ..parallel.report import ScanReport, dense_ends
from ..regex import ast
from ..regex.parser import parse
from ..regex.reverse import reverse
from ..engines.base import Engine, MatchResult
from .barriers import BarrierPlan, plan_barriers
from .grouping import RegexGroup, group_regexes
from .interleaved import InterleavedExecutor
from .rebalance import rebalance_program
from .schemes import ExecutionResult, Scheme
from .sequential import SequentialExecutor
from .zeroskip import insert_guards

DEFAULT_CTA_COUNT = 256

_REG = obs.registry()
_COMPILES = _REG.counter(
    "repro_engine_compiles_total",
    "BitGenEngine compilations, labelled by scheme and opt level")
_COMPILE_SECONDS = _REG.histogram(
    "repro_engine_compile_seconds",
    "Wall time of one BitGenEngine compilation")
_SCAN_BYTES = _REG.counter(
    "repro_scan_input_bytes_total", "Bytes scanned, by backend")
_SCAN_MATCHES = _REG.counter(
    "repro_scan_matches_total", "Match positions reported")


@dataclass
class CompiledGroup:
    """One CTA's compiled artefact."""

    group: RegexGroup
    #: what the group runs: on a compiled engine exactly the program its
    #: kernel is generated from
    program: Program
    #: None on compiled engines and unplanned schemes
    barrier_plan: Optional[BarrierPlan] = None
    #: merged per-pass optimizer accounting (pre- and post-rebalance
    #: pipeline runs); None at opt_level 0 and on compiled engines.
    opt_report: Optional[PipelineReport] = None


@dataclass
class BitGenResult(MatchResult):
    """Match result annotated with execution metrics.

    Stores only the patterns that matched: ``found`` maps each to its
    end positions (never an empty list).  ``ends`` is the dense view
    of it, every pattern in order with ``[]`` when unmatched, built on
    each access and never by a scan; assigning ``ends`` (dense or
    sparse) replaces ``found``."""

    #: aggregate over all CTAs
    metrics: KernelMetrics = field(default_factory=KernelMetrics)
    #: per-CTA metrics, aligned with the engine's groups (groups the
    #: prefilter skipped share one empty read-only slot)
    cta_metrics: List[KernelMetrics] = field(default_factory=list)
    input_bytes: int = 0
    #: gate accounting when this match ran prefiltered
    #: (:class:`~repro.core.prefilter.PrefilterReport` of the gate call
    #: over this input), ``None`` for ungated runs
    prefilter: Optional[object] = None

    def __post_init__(self):
        pass    # the ``ends`` setter has filled ``found``

    @property
    def ends(self) -> Dict[int, List[int]]:
        return dense_ends(self.found, self.pattern_count)

    @ends.setter
    def ends(self, ends: Dict[int, List[int]]) -> None:
        self.found = {pattern: positions
                      for pattern, positions in ends.items() if positions}

    def match_count(self) -> int:
        return sum(map(len, self.found.values()))

    def matched_patterns(self) -> List[int]:
        return sorted(self.found)

    def report(self, stream_offset: int = 0) -> ScanReport:
        """This result as the unified :class:`ScanReport` view —
        the same type streaming scans return."""
        return ScanReport.from_result(self, stream_offset=stream_offset)


class BitGenEngine(Engine):
    """Compiled multi-pattern BitGen matcher."""

    name = "BitGen"

    def __init__(self, groups: List[CompiledGroup], pattern_count: int,
                 nodes: Optional[List[ast.Regex]] = None,
                 config: Optional[ScanConfig] = None,
                 texts: Optional[List[Optional[str]]] = None, **legacy):
        reject_legacy_kwargs("BitGenEngine", legacy)
        if config is None:
            config = ScanConfig()
        self.groups = groups
        self.pattern_count = pattern_count
        self.config = config
        self._nodes = nodes
        #: the source text each of ``_nodes`` was parsed from (None for
        #: patterns given as ASTs): incremental updates reuse the node
        #: of every unchanged text instead of parsing it again
        self._texts = texts
        #: gate accounting of the most recent prefiltered match
        #: (:class:`~repro.core.prefilter.PrefilterReport`), None until
        #: a prefiltered scan ran
        self.last_prefilter = None
        self._reversed_engine: Optional["BitGenEngine"] = None
        self._compiled_group_cache: Optional[list] = None
        self._prefilter_cache = None

    # -- config-backed views (the pre-ScanConfig attribute surface) --------

    @property
    def scheme(self) -> Scheme:
        return self.config.scheme

    @property
    def geometry(self) -> CTAGeometry:
        geometry = self.config.geometry
        return geometry if geometry is not None else DEFAULT_GEOMETRY

    @property
    def merge_size(self) -> int:
        return self.config.merge_size

    @property
    def interval_size(self) -> int:
        return self.config.interval_size

    @property
    def loop_fallback(self) -> bool:
        return self.config.loop_fallback

    @property
    def backend(self) -> str:
        return self.config.backend

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(cls, patterns: Sequence[Union[str, ast.Regex]],
                config: Optional[ScanConfig] = None,
                **legacy) -> "BitGenEngine":
        """Compile ``patterns`` (strings or ASTs).

        Pass a :class:`~repro.parallel.ScanConfig` to configure the
        scheme ladder, geometry, backend, and prefilter in one
        object (the pre-ScanConfig scattered keyword arguments were
        removed after their one-release deprecation window; passing
        one raises :class:`TypeError` with a migration hint).

        ``backend="compiled"`` executes matches through the cached
        int kernels of :mod:`repro.backend` — bit-identical match sets,
        estimated metrics.
        """
        reject_legacy_kwargs("BitGenEngine.compile", legacy)
        return cls._compile_config(
            patterns, config if config is not None else ScanConfig())

    @classmethod
    def _compile_config(cls, patterns: Sequence[Union[str, ast.Regex]],
                        config: ScanConfig) -> "BitGenEngine":
        """The warning-free compile path (internal call sites)."""
        begin = time.perf_counter()
        level = config.opt_level
        with obs.span("compile", category="compile",
                      patterns=len(patterns),
                      scheme=config.scheme.value, opt_level=level,
                      backend=config.backend):
            with obs.span("parse", category="compile"):
                nodes = [parse(p) if isinstance(p, str) else p
                         for p in patterns]
            cta_count = config.cta_count
            if cta_count is None:
                cta_count = min(DEFAULT_CTA_COUNT, max(1, len(nodes)))
            with obs.span("group", category="compile",
                          cta_count=cta_count):
                groups = group_regexes(nodes, cta_count,
                                       strategy=config.grouping)

            compiled: List[CompiledGroup] = []
            for index, group in enumerate(groups):
                members = [nodes[i] for i in group.indices]
                compiled.append(cls._compile_group(members, group,
                                                   config, index))
        _COMPILES.inc(scheme=config.scheme.value, opt_level=level)
        _COMPILE_SECONDS.observe(time.perf_counter() - begin)
        texts = [p if isinstance(p, str) else None for p in patterns]
        return cls(compiled, len(nodes), nodes=nodes, config=config,
                   texts=texts)

    @classmethod
    def _compile_group(cls, members: List[ast.Regex], group: RegexGroup,
                       config: ScanConfig,
                       index: int = 0) -> CompiledGroup:
        """Compile one group's members into its program artefact.

        Outputs are named by *local* position (``R0..Rk-1``); match
        paths map them back to global pattern ids through
        ``group.indices``.  Local naming makes a compiled group
        position-independent — the same member multiset produces the
        same program wherever the patterns sit in the rule set, which
        is what incremental recompilation
        (:mod:`repro.core.incremental`) reuses across set diffs.

        A compiled engine's group is lowered, then it stops: no pass
        pipeline, no rebalancing, no guards, no barrier plan, whatever
        the scheme (see the module docstring).
        """
        level = config.opt_level
        names = [f"R{local}" for local in range(len(members))]
        # opt_level=0 compiles the raw syntax-directed
        # translation: no construction-time value numbering, no
        # passes.  Levels >= 1 keep value-numbered lowering
        # (the historical baseline); the simulate backend layers
        # the pass pipeline on top.
        with obs.span("lower", category="compile", cta=index,
                      regexes=len(members)):
            program = lower_group(members, names=names,
                                  value_number=level > 0)
        if config.backend == "compiled":
            program.validate()
            return CompiledGroup(group, program)
        scheme = config.scheme
        geometry = config.geometry if config.geometry is not None \
            else DEFAULT_GEOMETRY
        program, report = cls._transform(
            program, scheme, level, config.interval_size)
        with obs.span("plan_barriers", category="compile",
                      cta=index):
            plan = cls._plan(program, scheme,
                             config.merge_size, geometry)
        return CompiledGroup(group, program, plan, report)

    @staticmethod
    def _transform(program: Program, scheme: Scheme, level: int,
                   interval_size: int
                   ) -> "tuple[Program, Optional[PipelineReport]]":
        """The simulate backend's per-scheme transformation pipeline.
        The optimizer runs twice — on the lowered program and again
        after Shift Rebalancing (whose region restructuring mints fresh
        names the builder never value-numbered) — and always before
        guard insertion, so no pass has to reason about live
        ``SkipGuard`` spans on this path.

        Zero-skipping schemes defer CSE until after guard insertion:
        global CSE merges subexpressions across zero paths, which
        interleaves the chains the guard planner needs contiguous and
        shrinks the skippable spans (a measured net loss on zero-heavy
        workloads).  Post-guard CSE never registers facts inside a
        guard span, so sharing cannot cross a skip region.

        At level 2 the pre-guard rounds add cross-pattern prologue
        factoring (:func:`~repro.ir.passes.factor_prologue`); the pass
        refuses guarded programs, so the post-guard run never includes
        it.  Below level 2 every round runs the level's default roster."""
        pre = None
        if level >= 2:
            pre = (LEVEL2_PREGUARD_PASSES if scheme.zero_skipping
                   else LEVEL2_PASSES) + (("factor", factor_prologue),)
        program, report = optimize_pipeline(program, level, passes=pre)
        if scheme.rebalanced:
            program = rebalance_program(program)
            program, post = optimize_pipeline(program, level, passes=pre)
            report = report.merged_with(post)
        if scheme.zero_skipping:
            program = insert_guards(program, interval=interval_size)
            if level >= 2:
                program, post = optimize_pipeline(program, level)
                report = report.merged_with(post)
        return program, (report if level > 0 else None)

    @staticmethod
    def _plan(program: Program, scheme: Scheme, merge_size: int,
              geometry: CTAGeometry) -> Optional[BarrierPlan]:
        if not scheme.interleaved:
            return None
        # Without Shift Rebalancing there is nothing to merge: every
        # SHIFT keeps its own barrier pair.
        effective = merge_size if scheme.rebalanced else 1
        return plan_barriers(program, merge_size=effective,
                             block_bytes=geometry.block_bytes)

    # -- prefiltered dispatch ----------------------------------------------

    def prefilter_index(self):
        """The lazily built literal-gate index
        (:class:`~repro.core.prefilter.PrefilterIndex`), or ``None``
        for engines built without pattern ASTs, which always execute
        ungated."""
        if self._prefilter_cache is None:
            if self._nodes is None:
                return None
            from .prefilter import PrefilterIndex

            self._prefilter_cache = PrefilterIndex.build(
                self._nodes, [c.group for c in self.groups])
        return self._prefilter_cache

    def gate(self, data: bytes, config: Optional[ScanConfig] = None
             ) -> Tuple[Optional[List[int]], Optional[object]]:
        """``(active group indices, gate report)`` for ``data``, or
        ``(None, None)`` for "every group" (prefilter off, or no gate
        index available).  Each call returns its own report, so
        concurrent scans never read each other's;
        ``last_prefilter`` keeps the most recent one."""
        effective = config if config is not None else self.config
        if not effective.prefilter:
            return None, None
        index = self.prefilter_index()
        if index is None:
            return None, None
        active, report = index.active_groups(data,
                                             effective.prefilter_impl)
        self.last_prefilter = report
        return active, report

    # -- matching -----------------------------------------------------------

    def match(self, data: bytes,
              config: Optional[ScanConfig] = None) -> BitGenResult:
        from ..backend import basis_environment

        active, report = self.gate(data, config)
        result = self.match_words(basis_environment(data), len(data),
                                  active=active, data=data)
        result.prefilter = report
        return result

    def match_words(self, basis, input_bytes: int,
                    active: Optional[Iterable[int]] = None,
                    data: Optional[bytes] = None) -> BitGenResult:
        """The one unit of execution: one input's ``(8, W)`` basis
        words (padded to ``input_bytes + 1`` bits) and the groups to
        run go in, per-group match ends and metrics come out.  Every
        scan runs through here, in the calling thread; the backend
        decides only how one group runs (:meth:`_run_groups`).
        Bit-identical to :meth:`match` because the basis fully
        determines every group's inputs.

        ``active`` (group indices) restricts execution to the
        prefilter-activated groups; skipped groups share one empty
        metrics slot and match nothing (their outputs are provably
        all-zero).  The work after dispatch is O(active groups +
        matches): the result stores matched patterns only.  ``data``,
        the input the basis holds, spares compiled kernels deriving it
        from the basis when a marker goes sparse."""
        indices = range(len(self.groups)) if active is None \
            else sorted(active)
        with obs.span("exec", category="exec", backend=self.backend,
                      input_bytes=input_bytes, ctas=len(self.groups)):
            result = BitGenResult(pattern_count=self.pattern_count,
                                  input_bytes=input_bytes)
            result.cta_metrics = [KernelMetrics()] * len(self.groups)
            matches = self._run_groups(basis, input_bytes + 1, indices,
                                       result, data)
        _SCAN_BYTES.inc(input_bytes, backend=self.backend)
        _SCAN_MATCHES.inc(matches)
        return result

    def _run_groups(self, basis, length: int, indices: Sequence[int],
                    result: BitGenResult, data: Optional[bytes]) -> int:
        """Run each group in ``indices`` over one input's basis words,
        recording it in ``result`` as soon as it ran; returns the match
        count.  The one place the backend is decided: compiled groups
        run their cached kernels through
        :func:`~repro.backend.iter_dispatch`, simulated groups the
        scheme's executor over the planes of the same basis words."""
        matches = 0
        if self.backend == "compiled":
            from ..backend import estimate_metrics, iter_dispatch
            from ..backend.runtime import output_ends

            programs = self._compiled_programs()
            for position, (outputs, stats) in iter_dispatch(
                    [programs[i] for i in indices], basis, length, data):
                index = indices[position]
                metrics = estimate_metrics(self.groups[index].program,
                                           self.geometry, length, stats)
                matches += self._record(result, index, metrics, outputs,
                                        output_ends)
            return matches
        planes = words_environment(basis, length)
        for index in indices:
            with obs.span("exec.cta", category="exec", cta=index):
                execution = self._run_group(self.groups[index], planes)
            matches += self._record(result, index, execution.metrics,
                                    execution.outputs, BitVector.match_ends)
        return matches

    def _record(self, result: BitGenResult, index: int,
                metrics: KernelMetrics, outputs: Dict[str, object],
                read) -> int:
        """Store group ``index``'s metrics and the match ends ``read``
        finds in each of its output streams (kernel ints on the
        compiled backend); returns their count.  Only patterns with
        ends are stored."""
        result.cta_metrics[index] = metrics
        result.metrics.merge(metrics)
        patterns = self.groups[index].group.indices
        matches = 0
        for out, stream in outputs.items():
            ends = read(stream)
            if ends:
                result.found[patterns[int(out[1:])]] = ends
                matches += len(ends)
        return matches

    def _compiled_programs(self) -> list:
        """Group programs lowered to cached compiled kernels
        (memoised)."""
        if self._compiled_group_cache is None:
            from ..backend import compile_group

            self._compiled_group_cache = compile_group(
                [c.program for c in self.groups])
        return self._compiled_group_cache

    def build_kernels(self) -> None:
        """Build every group's compiled kernel and class-table kernel
        now (nothing to build on the simulate backend), so no later
        scan generates code.  With a disk cache attached, the
        artefacts are written there too."""
        if self.backend == "compiled":
            for table in {p.table for p in self._compiled_programs()}:
                table.kernel  # looked up (or generated) on first access

    def _run_group(self, compiled: CompiledGroup,
                   planes) -> ExecutionResult:
        if self.scheme is Scheme.BASE:
            executor = SequentialExecutor(self.geometry)
            return executor.run(compiled.program, planes)
        executor = InterleavedExecutor(
            geometry=self.geometry,
            barrier_plan=compiled.barrier_plan,
            honour_guards=self.scheme.zero_skipping,
            segmented=(self.scheme is Scheme.DTM_MINUS),
            loop_fallback=self.loop_fallback)
        return executor.run(compiled.program, planes)

    def match_many(self, streams: Sequence[bytes],
                   config: Optional[ScanConfig] = None
                   ) -> List[BitGenResult]:
        """Match several input streams with one compiled engine.

        Section 3.1: with multiple concurrent input streams the
        execution model becomes MIMD-style — every (group, stream) pair
        is an independent simulated CTA.  Results are returned per
        stream, each exactly what :meth:`match` of that stream returns
        (gated on its own bytes when the prefilter is on).
        """
        effective = config if config is not None else self.config
        total_bytes = sum(len(stream) for stream in streams)
        with obs.span("scan.match_many", category="scan",
                      streams=len(streams), input_bytes=total_bytes):
            return [self.match(stream, config=effective)
                    for stream in streams]

    def scan(self, data: bytes,
             config: Optional[ScanConfig] = None) -> ScanReport:
        """One input through the unified report API: :meth:`match`
        as a :class:`ScanReport`, whose ``trace`` holds the scan's
        spans when a tracer is recording."""
        with obs.span("scan", category="scan",
                      input_bytes=len(data)) as sp:
            report = self.match(data, config=config).report()
        tracer = obs.current_tracer()
        if sp.is_recording and tracer is not None:
            # The report's trace view: the scan span plus everything
            # recorded beneath it.
            report.trace = tracer.subtree(sp.span_id)
        return report

    def match_starts(self, data: bytes) -> BitGenResult:
        """All-match *start* positions per pattern.

        Runs the reversed patterns over the reversed input: a match of
        ``R`` over data[s..e] is a match of ``reverse(R)`` over the
        reversal ending at position ``n - 1 - s`` (the paper reports
        end positions only; this recovers the other extent).
        """
        if self._nodes is None:
            raise ValueError("engine was built without pattern ASTs")
        if self._reversed_engine is None:
            self._reversed_engine = BitGenEngine._compile_config(
                [reverse(node) for node in self._nodes], self.config)
        mirrored = self._reversed_engine.match(data[::-1])
        length = len(data)
        return BitGenResult(
            pattern_count=self.pattern_count,
            ends={index: sorted(length - 1 - pos for pos in ends)
                  for index, ends in mirrored.found.items()},
            input_bytes=length, metrics=mirrored.metrics,
            cta_metrics=mirrored.cta_metrics)

    # -- introspection ---------------------------------------------------------

    def program_stats(self) -> Dict[str, int]:
        """Aggregate instruction mix over all groups (Table 1 columns),
        plus the optimizer's net effect: ``instrs`` is the static
        instruction count actually compiled and ``optimized_away`` what
        the pass pipeline removed relative to raw lowering."""
        totals = {"and": 0, "or": 0, "not": 0, "shift": 0, "while": 0}
        instrs = 0
        removed = 0
        for compiled in self.groups:
            for key, value in compiled.program.op_counts().items():
                totals[key] += value
            instrs += compiled.program.instruction_count()
            if compiled.opt_report is not None:
                removed += compiled.opt_report.ops_removed
        totals["instrs"] = instrs
        totals["optimized_away"] = removed
        return totals

    def optimization_stats(self) -> Dict[str, object]:
        """Per-pass optimizer accounting, merged over all groups: what
        each pass rewrote and removed at this engine's ``opt_level``."""
        level = self.config.opt_level
        merged: Dict[str, object] = {
            "opt_level": level,
            "instrs_before": 0,
            "instrs_after": 0,
            "ops_removed": 0,
            "passes": {},
        }
        passes: Dict[str, Dict[str, int]] = merged["passes"]
        for compiled in self.groups:
            report = compiled.opt_report
            if report is None:
                count = compiled.program.instruction_count()
                merged["instrs_before"] += count
                merged["instrs_after"] += count
                continue
            merged["instrs_before"] += report.before
            merged["instrs_after"] += report.after
            merged["ops_removed"] += report.ops_removed
            for delta in report.passes:
                entry = passes.setdefault(
                    delta.name, {"rewrites": 0, "ops_removed": 0})
                entry["rewrites"] += delta.rewrites
                entry["ops_removed"] += delta.ops_removed
        return merged

    def render_kernels(self) -> str:
        """CUDA-like source of every group's kernel."""
        from .codegen import render_kernel

        parts = []
        for index, compiled in enumerate(self.groups):
            parts.append(render_kernel(compiled.program, cta_index=index,
                                       plan=compiled.barrier_plan,
                                       geometry=self.geometry))
        return "\n\n".join(parts)
