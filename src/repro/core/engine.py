"""BitGenEngine — the public compile-and-match API.

Mirrors the paper's workflow (Figure 4): regexes are partitioned into
balanced groups (Section 7), each group is lowered to one bitstream
program, the per-scheme transformation pipeline is applied (Shift
Rebalancing, Zero Block Skipping, barrier planning), and at match time
each program executes as one simulated CTA, producing match results
plus the kernel metrics the benchmarks report.

Tuning knobs follow Section 7's parameter setup: ``scheme`` (the
Table 3 ladder), ``merge_size``, ``interval_size``, ``cta_count``, and
the CTA geometry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .. import obs
from ..gpu.machine import DEFAULT_GEOMETRY, CTAGeometry
from ..gpu.metrics import KernelMetrics
from ..ir.lower import lower_group
from ..ir.passes import (LEVEL2_PASSES, LEVEL2_PREGUARD_PASSES,
                         PipelineReport, factor_prologue,
                         optimize_pipeline)
from ..ir.program import Program
from ..parallel.config import ScanConfig, reject_legacy_kwargs
from ..parallel.report import ScanReport
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
_SCAN_DISPATCH = _REG.counter(
    "repro_scan_dispatch_total",
    "Scan dispatch decisions: serial, parallel, serial-small-input")
_SCAN_BYTES = _REG.counter(
    "repro_scan_input_bytes_total", "Bytes scanned, by backend")
_SCAN_MATCHES = _REG.counter(
    "repro_scan_matches_total", "Match positions reported")


@dataclass
class CompiledGroup:
    """One CTA's compiled artefact."""

    group: RegexGroup
    program: Program
    barrier_plan: Optional[BarrierPlan] = None
    #: merged per-pass optimizer accounting (pre- and post-rebalance
    #: pipeline runs); None when compiled at opt_level 0.
    opt_report: Optional[PipelineReport] = None


@dataclass
class BitGenResult(MatchResult):
    """Match result annotated with execution metrics."""

    #: aggregate over all CTAs
    metrics: KernelMetrics = field(default_factory=KernelMetrics)
    #: per-CTA metrics, aligned with the engine's groups (on the
    #: compiled backend, groups the prefilter skipped share one empty
    #: read-only slot)
    cta_metrics: List[KernelMetrics] = field(default_factory=list)
    input_bytes: int = 0
    #: gate accounting when this match ran prefiltered
    #: (:class:`~repro.core.prefilter.PrefilterReport`; for a batched
    #: ``match_many`` every stream carries the one union-gated
    #: evaluation), ``None`` for ungated runs
    prefilter: Optional[object] = None

    def report(self, stream_offset: int = 0) -> ScanReport:
        """This result as the unified :class:`ScanReport` view —
        the same type streaming and parallel scans return."""
        return ScanReport.from_result(self, stream_offset=stream_offset)


class BitGenEngine(Engine):
    """Compiled multi-pattern BitGen matcher."""

    name = "BitGen"

    def __init__(self, groups: List[CompiledGroup], pattern_count: int,
                 nodes: Optional[List[ast.Regex]] = None,
                 config: Optional[ScanConfig] = None, **legacy):
        reject_legacy_kwargs("BitGenEngine", legacy)
        if config is None:
            config = ScanConfig()
        self.groups = groups
        self.pattern_count = pattern_count
        self.config = config
        self._nodes = nodes
        #: faults of the most recent parallel dispatch (always empty
        #: after a serial scan)
        self.last_scan_faults: list = []
        #: how the most recent scan/match_many dispatched: "serial",
        #: "parallel", or "serial-small-input" (workers requested but
        #: the input was below ``min_parallel_bytes``)
        self.last_dispatch: str = "serial"
        #: how the most recent parallel dispatch got its executor:
        #: "none" (no parallel dispatch yet), "inline", "warm"
        #: (persistent pool reused), or "cold" (pool built)
        self.last_pool_state: str = "none"
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

    # -- pickling (pool workers) -------------------------------------------

    def __getstate__(self):
        """Engines cross process boundaries for sharded dispatch; the
        memoised compiled kernels hold exec'd functions and are
        rebuilt worker-side through the shared on-disk cache."""
        state = dict(self.__dict__)
        state["_compiled_group_cache"] = None
        state["_reversed_engine"] = None
        state["_prefilter_cache"] = None
        state["last_scan_faults"] = []
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(cls, patterns: Sequence[Union[str, ast.Regex]],
                config: Optional[ScanConfig] = None,
                **legacy) -> "BitGenEngine":
        """Compile ``patterns`` (strings or ASTs).

        Pass a :class:`~repro.parallel.ScanConfig` to configure the
        scheme ladder, geometry, backend, and parallel dispatch in one
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
        level = config.effective_opt_level()
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
        return cls(compiled, len(nodes), nodes=nodes, config=config)

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
        """
        level = config.effective_opt_level()
        scheme = config.scheme
        geometry = config.geometry if config.geometry is not None \
            else DEFAULT_GEOMETRY
        names = [f"R{local}" for local in range(len(members))]
        # opt_level=0 compiles the raw syntax-directed
        # translation: no construction-time value numbering, no
        # passes.  Levels >= 1 keep value-numbered lowering
        # (the historical baseline) and layer the pass pipeline
        # on top.
        with obs.span("lower", category="compile", cta=index,
                      regexes=len(members)):
            program = lower_group(members, names=names,
                                  value_number=level > 0)
        program, report = cls._transform(
            program, scheme, level, config.interval_size,
            factor=config.factor)
        with obs.span("plan_barriers", category="compile",
                      cta=index):
            plan = cls._plan(program, scheme,
                             config.merge_size, geometry)
        return CompiledGroup(group, program, plan, report)

    @staticmethod
    def _transform(program: Program, scheme: Scheme, level: int,
                   interval_size: int, factor: bool = True
                   ) -> "tuple[Program, Optional[PipelineReport]]":
        """The per-scheme transformation pipeline.  The optimizer runs
        twice — on the lowered program and again after Shift
        Rebalancing (whose region restructuring mints fresh names the
        builder never value-numbered) — and always before guard
        insertion, so no pass has to reason about live ``SkipGuard``
        spans on this path.

        Zero-skipping schemes defer CSE until after guard insertion:
        global CSE merges subexpressions across zero paths, which
        interleaves the chains the guard planner needs contiguous and
        shrinks the skippable spans (a measured net loss on zero-heavy
        workloads).  Post-guard CSE never registers facts inside a
        guard span, so sharing cannot cross a skip region.

        ``factor`` adds cross-pattern prologue factoring
        (:func:`~repro.ir.passes.factor_prologue`) to the pre-guard
        rounds at level >= 2; the pass refuses guarded programs, so the
        post-guard run never includes it."""
        pre = None
        if level >= 2:
            pre = LEVEL2_PREGUARD_PASSES if scheme.zero_skipping \
                else LEVEL2_PASSES
            if factor:
                pre = pre + (("factor", factor_prologue),)
            elif not scheme.zero_skipping:
                pre = None  # the default roster, unmodified
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
        for engines without pattern ASTs (worker sub-engines), which
        always execute ungated."""
        if self._prefilter_cache is None:
            if self._nodes is None:
                return None
            from .prefilter import PrefilterIndex

            self._prefilter_cache = PrefilterIndex.build(
                self._nodes, [c.group for c in self.groups])
        return self._prefilter_cache

    def _prefilter_active(self, data: bytes,
                          effective: ScanConfig) -> Optional[set]:
        """Group indices that must execute on ``data``, or ``None``
        for "all" (prefilter off, or no gate index available)."""
        if not effective.prefilter:
            return None
        index = self.prefilter_index()
        if index is None:
            return None
        active, report = index.active_groups(data,
                                             effective.prefilter_impl)
        self.last_prefilter = report
        return set(active)

    # -- matching -----------------------------------------------------------

    def match(self, data: bytes,
              config: Optional[ScanConfig] = None) -> BitGenResult:
        effective = config if config is not None else self.config
        active = self._prefilter_active(data, effective)
        if self.backend == "compiled":
            result = self._match_compiled(data, active=active)
            if active is not None:
                result.prefilter = self.last_prefilter
            return result
        with obs.span("exec", category="exec", backend="simulate",
                      input_bytes=len(data), ctas=len(self.groups)):
            result = BitGenResult(pattern_count=self.pattern_count,
                                  input_bytes=len(data))
            for index, compiled in enumerate(self.groups):
                if active is not None and index not in active:
                    # Skipped by the literal gate: every output of
                    # this group is provably all-zero; an empty
                    # metrics slot keeps cta_metrics aligned.
                    result.cta_metrics.append(KernelMetrics())
                    continue
                with obs.span("exec.cta", category="exec", cta=index):
                    execution = self._run_group(compiled, data)
                result.cta_metrics.append(execution.metrics)
                result.metrics.merge(execution.metrics)
                for out, ends in execution.match_ends().items():
                    result.ends[compiled.group.indices[int(out[1:])]] \
                        = ends
        _SCAN_BYTES.inc(len(data), backend="simulate")
        _SCAN_MATCHES.inc(result.match_count())
        if active is not None:
            result.prefilter = self.last_prefilter
        return result

    def _compiled_programs(self) -> list:
        """Group programs lowered to cached compiled kernels
        (memoised)."""
        if self._compiled_group_cache is None:
            from ..backend import compile_group

            self._compiled_group_cache = compile_group(
                [c.program for c in self.groups],
                honour_guards=self.scheme.zero_skipping)
        return self._compiled_group_cache

    def _match_compiled(self, data: bytes,
                        active: Optional[set] = None) -> BitGenResult:
        """Compiled CTA dispatch: one transpose, one conversion to
        kernel ints, then every group's kernel in turn."""
        from ..backend import basis_environment

        return self.match_words(basis_environment(data), len(data),
                                active=active)

    def match_words(self, basis, input_bytes: int,
                    active: Optional[set] = None) -> BitGenResult:
        """Compiled match over an already-transposed ``(8, W)`` basis
        word array (padded to ``input_bytes + 1`` bits).  This is the
        zero-copy shard entry point: the parent transposes once into
        shared memory and every group-shard worker executes on views
        of the same words.  Bit-identical to :meth:`match` because the
        basis fully determines the kernels' inputs.

        ``active`` (a set of group indices) restricts execution to the
        prefilter-activated groups; skipped groups share one empty
        metrics slot and keep their (provably all-zero) empty match
        lists.  The work after dispatch is O(active groups)."""
        from ..backend import dispatch_words, estimate_metrics
        from ..bitstream.npvector import NPBitVector

        with obs.span("exec", category="exec", backend="compiled",
                      input_bytes=input_bytes, ctas=len(self.groups)):
            length = input_bytes + 1
            result = BitGenResult(pattern_count=self.pattern_count,
                                  input_bytes=input_bytes)
            result.cta_metrics = [KernelMetrics()] * len(self.groups)
            programs = self._compiled_programs()
            indices = range(len(self.groups)) if active is None \
                else sorted(active)
            matches = 0
            for index, (raw, stats) in zip(indices, dispatch_words(
                    [programs[i] for i in indices], basis, length)):
                compiled = self.groups[index]
                metrics = estimate_metrics(compiled.program,
                                           self.geometry, length, stats)
                result.cta_metrics[index] = metrics
                result.metrics.merge(metrics)
                for out in compiled.program.outputs:
                    ends = NPBitVector(raw[out], length).match_ends()
                    result.ends[compiled.group.indices[int(out[1:])]] = ends
                    matches += len(ends)
        _SCAN_BYTES.inc(input_bytes, backend="compiled")
        _SCAN_MATCHES.inc(matches)
        return result

    def _run_group(self, compiled: CompiledGroup,
                   data: bytes) -> ExecutionResult:
        if self.scheme is Scheme.BASE:
            executor = SequentialExecutor(self.geometry)
            return executor.run(compiled.program, data)
        executor = InterleavedExecutor(
            geometry=self.geometry,
            barrier_plan=compiled.barrier_plan,
            honour_guards=self.scheme.zero_skipping,
            segmented=(self.scheme is Scheme.DTM_MINUS),
            loop_fallback=self.loop_fallback)
        return executor.run(compiled.program, data)

    def match_many(self, streams: Sequence[bytes],
                   config: Optional[ScanConfig] = None
                   ) -> List[BitGenResult]:
        """Match several input streams with one compiled engine.

        Section 3.1: with multiple concurrent input streams the
        execution model becomes MIMD-style — every (group, stream) pair
        is an independent simulated CTA.  Results are returned per
        stream, each carrying its own metrics.  With the compiled
        backend, equal-length streams are transposed as one class
        (:func:`~repro.backend.dispatch_streams`).

        When the effective config requests ``workers > 1`` and the
        combined input clears ``min_parallel_bytes``, streams are
        sharded across a worker pool (:mod:`repro.parallel`); results
        are bit-identical to the serial path.  Below the threshold the
        scan silently runs serial (``last_dispatch`` records why).
        """
        effective = config if config is not None else self.config
        total_bytes = sum(len(stream) for stream in streams)
        with obs.span("scan.match_many", category="scan",
                      streams=len(streams), input_bytes=total_bytes):
            if effective.parallel_enabled():
                if effective.parallel_for_bytes(total_bytes):
                    from ..parallel.scan import parallel_match_many

                    results = parallel_match_many(self, streams,
                                                  effective)
                    # Set after the call: worker fallbacks re-enter
                    # match_many on this engine with a serial config
                    # and would otherwise clobber the top-level
                    # decision.
                    self.last_dispatch = "parallel"
                    _SCAN_DISPATCH.inc(dispatch="parallel")
                    return results
                self.last_dispatch = "serial-small-input"
            else:
                self.last_dispatch = "serial"
            _SCAN_DISPATCH.inc(dispatch=self.last_dispatch)
            if self.backend == "compiled":
                return self._match_many_compiled(streams,
                                                 config=effective)
            return [self.match(stream, config=effective)
                    for stream in streams]

    def scan(self, data: bytes,
             config: Optional[ScanConfig] = None) -> ScanReport:
        """One input through the unified report API.  With
        ``workers > 1`` the engine's CTA groups are sharded across a
        worker pool (whole kernel-fingerprint buckets per shard, so
        batched dispatch survives); the merged report is bit-identical
        to a serial :meth:`match`.  Inputs below
        ``min_parallel_bytes`` skip the pool: the report's ``dispatch``
        field records ``"serial-small-input"``."""
        effective = config if config is not None else self.config
        with obs.span("scan", category="scan",
                      input_bytes=len(data)) as sp:
            if effective.parallel_enabled():
                if effective.parallel_for_bytes(len(data)):
                    from ..parallel.scan import parallel_match

                    result = parallel_match(self, data, effective)
                    self.last_dispatch = "parallel"
                    report = ScanReport.from_result(
                        result, faults=list(self.last_scan_faults),
                        dispatch="parallel")
                else:
                    self.last_dispatch = "serial-small-input"
                    report = ScanReport.from_result(
                        self.match(data, config=effective),
                        dispatch="serial-small-input")
            else:
                self.last_dispatch = "serial"
                report = self.match(data, config=effective).report()
            if sp.is_recording:
                sp.set(dispatch=self.last_dispatch)
        _SCAN_DISPATCH.inc(dispatch=self.last_dispatch)
        tracer = obs.current_tracer()
        if sp.is_recording and tracer is not None:
            # The report's trace view: the scan span plus everything
            # recorded (or adopted from workers) beneath it.
            report.trace = tracer.subtree(sp.span_id)
        return report

    def _match_many_compiled(self, streams: Sequence[bytes],
                             config: Optional[ScanConfig] = None
                             ) -> List[BitGenResult]:
        from ..backend import transpose_stream_classes

        effective = config if config is not None else self.config
        active = None
        if effective.prefilter:
            index = self.prefilter_index()
            if index is not None:
                # One gate evaluation over all streams: a group
                # executes if its literals fired in *any* stream, so
                # equal-length batching survives (per-stream results
                # for over-activated groups are still all-zero).
                actives, report = index.active_groups_many(
                    streams, effective.prefilter_impl)
                self.last_prefilter = report
                active = set(actives)
        results = self.match_many_words([len(s) for s in streams],
                                        transpose_stream_classes(streams),
                                        active=active)
        if active is not None:
            for result in results:
                result.prefilter = self.last_prefilter
        return results

    def match_many_words(self, sizes: Sequence[int], classes,
                         active: Optional[set] = None
                         ) -> List[BitGenResult]:
        """Compiled multi-stream match over pre-transposed length
        classes (:func:`~repro.backend.transpose_stream_classes`
        layout).  The transpose is paid once for all groups — and, on
        the zero-copy shard path, once in the *parent*, with workers
        executing on shared-memory views.  ``active`` restricts
        execution to prefilter-activated group indices."""
        from ..backend import dispatch_stream_classes, estimate_metrics
        from ..bitstream.npvector import NPBitVector

        results = [BitGenResult(pattern_count=self.pattern_count,
                                input_bytes=size)
                   for size in sizes]
        for result in results:
            result.cta_metrics = [KernelMetrics()] * len(self.groups)
        programs = self._compiled_programs()
        for index in (range(len(self.groups)) if active is None
                      else sorted(active)):
            compiled = self.groups[index]
            for size, result, (raw, stats) in zip(
                    sizes, results,
                    dispatch_stream_classes(programs[index], classes,
                                            len(results))):
                length = size + 1
                metrics = estimate_metrics(compiled.program,
                                           self.geometry, length, stats)
                result.cta_metrics[index] = metrics
                result.metrics.merge(metrics)
                for out in compiled.program.outputs:
                    result.ends[compiled.group.indices[int(out[1:])]] \
                        = NPBitVector(raw[out], length).match_ends()
        return results

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
        result = BitGenResult(pattern_count=self.pattern_count,
                              input_bytes=length,
                              metrics=mirrored.metrics,
                              cta_metrics=mirrored.cta_metrics)
        for index in range(self.pattern_count):
            result.ends[index] = sorted(length - 1 - pos
                                        for pos in mirrored.ends[index])
        return result

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
        level = self.config.effective_opt_level()
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
