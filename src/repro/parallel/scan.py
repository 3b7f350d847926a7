"""The sharded parallel scan dispatcher.

``repro.parallel``'s tentpole: fan :meth:`BitGenEngine.match_many`,
single-input multi-CTA matches, multi-chunk streaming sessions, and
:meth:`Harness.run_all` grids out across a :class:`WorkerPool`, while
keeping every result **bit-identical to serial execution** — match
positions, aggregated metrics and the prefilter's gate report alike.

The identity guarantee comes from running the serial unit of work in
every shard: :meth:`~repro.core.engine.BitGenEngine.match_words` — one
input's ``(8, W)`` basis words plus the groups to run on it — is what a
serial scan executes too, and the paper's unit (one group's fused
program over one input, Section 3.1) never spans shards.

* **Stream sharding** distributes single streams.  The parent gates
  every stream before dispatch; each shard carries its streams' bytes
  and active groups.
* **Group sharding** distributes single groups, planned over the
  prefilter-active groups only.  The parent gates the input once;
  every group shard carries the input's bytes.

Shard payloads are plain input bytes, as session payloads are: the
worker transposes its input itself, exactly as a serial scan does (a
transpose is about 1% of a scan; DESIGN.md, *Shard payloads*).
Shards never gate, so each result carries the report of the parent's
gate call over its own input.

Degradation: any worker fault re-runs that shard in-process through
the identical shard task (see :class:`~repro.parallel.pool.WorkerPool`)
and is recorded as a :class:`ShardFault`; a parallel scan therefore
never fails, and never returns different results, because of the pool.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..backend.runtime import basis_environment
from ..resilience.deadline import Deadline
from .config import ScanConfig
from .pool import WorkerPool
from .report import ScanReport, ShardFault
from . import worker as worker_mod

_SHARDS_DISPATCHED = obs.registry().counter(
    "repro_parallel_shards_total",
    "Shards handed to the worker pool, by plan kind")


# -- shard planning ----------------------------------------------------------


def _distribute(units: Sequence[Tuple[List[int], int]],
                shards: int) -> List[List[int]]:
    """Deterministic LPT bin-packing of ``(members, weight)`` units
    into at most ``shards`` bins; members keep ascending order inside
    each bin so merged results preserve the serial ordering."""
    shards = max(1, min(shards, len(units)))
    order = sorted(range(len(units)),
                   key=lambda i: (-units[i][1], i))
    loads = [0] * shards
    bins: List[List[int]] = [[] for _ in range(shards)]
    for index in order:
        members, weight = units[index]
        target = min(range(shards), key=lambda s: (loads[s], s))
        bins[target].extend(members)
        loads[target] += weight
    packed = [sorted(b) for b in bins if b]
    packed.sort(key=lambda b: b[0])
    return packed


def plan_stream_shards(streams: Sequence[bytes],
                       workers: int) -> List[List[int]]:
    """Shard stream indices, one unit per stream weighted by its
    length."""
    units = [([index], max(1, len(stream)))
             for index, stream in enumerate(streams)]
    return _distribute(units, workers)


def plan_group_shards(engine, workers: int,
                      groups: Optional[Sequence[int]] = None
                      ) -> List[List[int]]:
    """Shard group (CTA) indices — every group, or the
    prefilter-active ``groups`` — one unit per group weighted by its
    pattern count."""
    if groups is None:
        groups = range(len(engine.groups))
    units = [([index], len(engine.groups[index].group) or 1)
             for index in groups]
    return _distribute(units, workers)


# -- the dispatcher ----------------------------------------------------------


class ParallelScanner:
    """Sharded dispatch of one engine's scans across a worker pool."""

    def __init__(self, engine, config: Optional[ScanConfig] = None):
        self.engine = engine
        self.config = config if config is not None else engine.config
        #: faults of the most recent dispatch (empty on a clean run)
        self.faults: List[ShardFault] = []
        self._cache_dir = self._prepare_cache()
        self.pool = WorkerPool(self.config, cache_dir=self._cache_dir)

    def _prepare_cache(self) -> Optional[str]:
        """Attach (and pre-seed) the shared on-disk kernel cache when
        process workers will need to rebuild compiled kernels."""
        if self.config.executor != "process":
            return self.config.cache_dir
        from .diskcache import DiskKernelCache, default_cache_dir

        cache_dir = self.config.cache_dir or default_cache_dir()
        try:
            DiskKernelCache(cache_dir)
        except OSError:
            return None
        worker_mod.attach_disk_cache(cache_dir)
        # Parent-side compilation now writes the artefacts the
        # workers will load instead of recompiling.
        self.engine.build_kernels()
        return cache_dir

    # -- many streams, whole engine per shard -----------------------------

    def match_many(self, streams: Sequence[bytes]) -> List:
        plan = plan_stream_shards(streams, self.config.workers)
        if len(plan) <= 1:
            self.faults = []
            return self.engine.match_many(streams,
                                          config=self.config.serial())
        _SHARDS_DISPATCHED.inc(len(plan), kind="stream")
        # The deadline starts *before* the gate: ScanConfig.deadline_s
        # bounds the whole dispatch, not just the worker waits.
        deadline = Deadline.start(self.config.deadline_s)
        active, reports = zip(*(self.engine.gate(stream, self.config)
                                for stream in streams))
        payloads = [(self.engine,
                     tuple((streams[i], active[i]) for i in shard),
                     self._cache_dir)
                    for shard in plan]
        with obs.span("scan.parallel", category="scan", kind="stream",
                      shards=len(plan), workers=self.config.workers,
                      executor=self.config.executor):
            shard_results, self.faults = self.pool.map_shards(
                worker_mod.scan_streams, payloads, deadline=deadline)
        results = [None] * len(streams)
        for shard, shard_result in zip(plan, shard_results):
            for index, result in zip(shard, shard_result):
                result.prefilter = reports[index]
                results[index] = result
        return results

    # -- one stream, groups sharded ---------------------------------------

    def match(self, data: bytes):
        """Group-sharded single-input match; merged result is
        bit-identical (positions, per-CTA and aggregate metrics, gate
        report) to ``engine.match(data)``."""
        deadline = Deadline.start(self.config.deadline_s)
        active, report = self.engine.gate(data, self.config)
        plan = plan_group_shards(self.engine, self.config.workers, active)
        if len(plan) <= 1:
            self.faults = []
            result = self.engine.match_words(basis_environment(data),
                                             len(data), active=active)
            result.prefilter = report
            return result
        _SHARDS_DISPATCHED.inc(len(plan), kind="group")
        with obs.span("scan.parallel", category="scan", kind="group",
                      shards=len(plan), workers=self.config.workers,
                      executor=self.config.executor):
            payloads = [(self.engine, shard, data, self._cache_dir)
                        for shard in plan]
            shard_results, self.faults = self.pool.map_shards(
                worker_mod.scan_groups, payloads, deadline=deadline)
        result = self._merge_group_results(shard_results, len(data))
        result.prefilter = report
        return result

    def _merge_group_results(self, shard_results, input_bytes: int):
        from ..core.engine import BitGenResult
        from ..gpu.metrics import KernelMetrics

        merged = BitGenResult(pattern_count=self.engine.pattern_count,
                              input_bytes=input_bytes)
        merged.cta_metrics = [KernelMetrics()] * len(self.engine.groups)
        for group_indices, result in shard_results:
            for row, group_index in enumerate(group_indices):
                merged.cta_metrics[group_index] = \
                    result.cta_metrics[row]
            # shards run disjoint groups, so their patterns never meet
            merged.found.update(result.found)
        # Aggregate in serial (group) order so max/sum folds agree.
        for metrics in merged.cta_metrics:
            merged.metrics.merge(metrics)
        return merged

    # -- streaming sessions ------------------------------------------------

    def sessions(self, chunk_lists: Sequence[Sequence[bytes]]
                 ) -> List[ScanReport]:
        """Run one full multi-chunk streaming session per logical
        stream, sessions fanned across the pool.  Each session feeds
        its whole stream, gating every window as a serial session
        does."""
        _SHARDS_DISPATCHED.inc(len(chunk_lists), kind="session")
        deadline = Deadline.start(self.config.deadline_s)
        with obs.span("scan.parallel", category="scan",
                      kind="session", shards=len(chunk_lists),
                      workers=self.config.workers,
                      executor=self.config.executor):
            payloads = [(self.engine, list(chunks), self.config,
                         self._cache_dir) for chunks in chunk_lists]
            reports, self.faults = self.pool.map_shards(
                worker_mod.run_session, payloads, deadline=deadline)
        for fault in self.faults:
            reports[fault.shard].faults.append(fault)
        return reports


# -- module-level conveniences ----------------------------------------------


def parallel_match_many(engine, streams: Sequence[bytes],
                        config: Optional[ScanConfig] = None) -> List:
    scanner = ParallelScanner(engine, config)
    results = scanner.match_many(streams)
    engine.last_scan_faults = scanner.faults
    engine.last_pool_state = scanner.pool.last_pool_state
    return results


def parallel_match(engine, data: bytes,
                   config: Optional[ScanConfig] = None):
    scanner = ParallelScanner(engine, config)
    result = scanner.match(data)
    engine.last_scan_faults = scanner.faults
    engine.last_pool_state = scanner.pool.last_pool_state
    return result


def parallel_sessions(engine, chunk_lists: Sequence[Sequence[bytes]],
                      config: Optional[ScanConfig] = None
                      ) -> List[ScanReport]:
    scanner = ParallelScanner(engine, config)
    reports = scanner.sessions(chunk_lists)
    engine.last_scan_faults = scanner.faults
    engine.last_pool_state = scanner.pool.last_pool_state
    return reports


def parallel_run_all(harness, apps: Sequence[str],
                     engines: Sequence[str],
                     config: ScanConfig) -> List:
    """Fan the harness's (app, engine) grid across a pool; one cell per
    task, results in the serial grid order, faults recovered by running
    the cell in the parent harness."""
    cells = [(app, engine) for app in apps for engine in engines]
    cache_dir = None
    if config.executor == "process":
        from .diskcache import default_cache_dir

        cache_dir = config.cache_dir or default_cache_dir()
        worker_mod.attach_disk_cache(cache_dir)
    spec = (harness.config.serial(), harness.scale,
            harness.input_bytes, harness.seed)
    payloads = [(spec, app, engine, cache_dir)
                for app, engine in cells]
    pool = WorkerPool(config, cache_dir=cache_dir)
    _SHARDS_DISPATCHED.inc(len(cells), kind="grid")
    with obs.span("scan.parallel", category="scan", kind="grid",
                  shards=len(cells), workers=config.workers,
                  executor=config.executor):
        results, faults = pool.map_shards(
            worker_mod.run_cell, payloads,
            serial_fn=lambda payload: harness.run(payload[1],
                                                  payload[2]))
    harness.last_scan_faults = faults
    return results
