"""The sharded parallel scan dispatcher.

``repro.parallel``'s tentpole: fan :meth:`BitGenEngine.match_many`,
single-input multi-CTA matches, multi-chunk streaming sessions, and
:meth:`Harness.run_all` grids out across a :class:`WorkerPool`, while
keeping every result **bit-identical to serial execution** — match
positions and aggregated metrics both.

The identity guarantee comes from the shard planner: shards are built
from the same batching units the serial compiled backend uses, so the
kernel calls inside a shard are literally the calls serial execution
would have made.

* **Stream sharding** distributes whole *length classes* — the unit
  :func:`~repro.backend.executor.dispatch_streams` transposes together
  and a shard's shared-memory payload lays out as one array.
* **Group sharding** distributes whole *kernel-fingerprint buckets* —
  the units :func:`~repro.backend.executor.dispatch_words` runs under
  one ``exec.batch`` span.

Process dispatch is **zero-copy**: instead of pickling word arrays and
input batches into each worker, the parent packs them into one
:class:`~repro.parallel.shm.SharedArena` segment per dispatch and
ships only descriptors.  For the compiled backend the parent also
*pre-transposes* every shard's length classes into the arena — paying
the transpose once for all kernel groups — and shard preparation runs
interleaved with execution (``WorkerPool.map_shards(prepare=...)``):
shard N transposes in the parent while shard N-1 executes in a
worker.  The arena is ref-counted and unlinked on every exit path
(clean, worker fault, timeout, exception).

Degradation: any worker fault re-runs that shard in-process through
the identical serial path (see :class:`~repro.parallel.pool.WorkerPool`)
and is recorded as a :class:`ShardFault`; a parallel scan therefore
never fails, and never returns different results, because of the pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..resilience.deadline import Deadline
from .config import ScanConfig
from .pool import WorkerPool
from .report import ScanReport, ShardFault
from .shm import SharedArena
from . import worker as worker_mod
from .worker import GroupShardSpec, StreamShardSpec

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


def plan_stream_shards(streams: Sequence[bytes], workers: int,
                       preserve_batches: bool) -> List[List[int]]:
    """Shard stream indices.  With ``preserve_batches`` (the compiled
    backend), each equal-length class stays whole inside one shard."""
    if preserve_batches:
        classes: Dict[int, List[int]] = {}
        for index, stream in enumerate(streams):
            classes.setdefault(len(stream), []).append(index)
        units = [(members, max(1, size) * len(members))
                 for size, members in sorted(classes.items())]
    else:
        units = [([index], max(1, len(stream)))
                 for index, stream in enumerate(streams)]
    return _distribute(units, workers)


def plan_group_shards(engine, workers: int) -> List[List[int]]:
    """Shard group (CTA) indices.  For the compiled backend each
    kernel-fingerprint bucket stays whole inside one shard."""
    if engine.backend == "compiled":
        buckets: Dict[str, List[int]] = {}
        for index, compiled in enumerate(engine._compiled_programs()):
            buckets.setdefault(compiled.kernel.fingerprint,
                               []).append(index)
        units = [(members, sum(len(engine.groups[i].group) or 1
                               for i in members))
                 for members in buckets.values()]
    else:
        units = [([index], len(compiled.group) or 1)
                 for index, compiled in enumerate(engine.groups)]
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
        if self.engine.backend == "compiled":
            # Parent-side compilation now writes the artefacts the
            # workers will load instead of recompiling.
            self.engine._compiled_programs()
        return cache_dir

    def _zero_copy(self) -> bool:
        """Whether shard data should ride in shared memory: only
        process workers live in another address space."""
        return (self.config.executor == "process"
                and self.config.shared_memory)

    # -- many streams, whole engine per shard -----------------------------

    def match_many(self, streams: Sequence[bytes]) -> List:
        compiled = self.engine.backend == "compiled"
        plan = plan_stream_shards(streams, self.config.workers,
                                  preserve_batches=compiled)
        if len(plan) <= 1:
            self.faults = []
            return self.engine.match_many(streams,
                                          config=self.config.serial())
        _SHARDS_DISPATCHED.inc(len(plan), kind="stream")
        # The deadline starts *before* arena sizing and shard prep:
        # ScanConfig.deadline_s bounds the whole dispatch, not just
        # the worker waits.
        deadline = Deadline.start(self.config.deadline_s)
        zero_copy = self._zero_copy()
        arena = self._stream_arena(streams, plan, compiled) \
            if zero_copy else None
        try:
            with obs.span("scan.parallel", category="scan",
                          kind="stream", shards=len(plan),
                          workers=self.config.workers,
                          executor=self.config.executor,
                          zero_copy=zero_copy):
                if arena is not None:
                    prepare = self._stream_prepare(streams, arena,
                                                   compiled)
                    shard_results, self.faults = self.pool.map_shards(
                        worker_mod.scan_streams, plan,
                        serial_fn=self._serial_streams,
                        prepare=prepare, deadline=deadline)
                else:
                    payloads = [(self.engine,
                                 [streams[i] for i in shard],
                                 self._cache_dir) for shard in plan]
                    shard_results, self.faults = self.pool.map_shards(
                        worker_mod.scan_streams, payloads,
                        serial_fn=self._serial_streams,
                        deadline=deadline)
        finally:
            if arena is not None:
                arena.release()
        results = [None] * len(streams)
        for shard, shard_result in zip(plan, shard_results):
            for index, result in zip(shard, shard_result):
                results[index] = result
        return results

    def _stream_arena(self, streams, plan, compiled: bool
                      ) -> SharedArena:
        """One arena sized for every shard's payload, up front — the
        per-shard prepare stage then bump-allocates into it."""
        from ..backend.runtime import word_count

        capacity = 0
        for shard in plan:
            if compiled:
                sizes: Dict[int, int] = {}
                for i in shard:
                    size = len(streams[i])
                    sizes[size] = sizes.get(size, 0) + 1
                for size, k in sizes.items():
                    capacity += 8 * k * word_count(size + 1) * 8 + 64
            else:
                for i in shard:
                    capacity += len(streams[i]) + 64
        return SharedArena(capacity, tag="streams")

    def _stream_prepare(self, streams, arena: SharedArena,
                        compiled: bool):
        """The overlap stage: pack (and for the compiled backend,
        pre-transpose) one shard's payload into the arena.  Called by
        the pool's submission loop, so shard N packs while shard N-1
        already executes."""
        from ..backend.executor import stream_length_classes
        from ..backend.runtime import basis_environment, word_count

        def prepare(shard: List[int]):
            shard_streams = [streams[i] for i in shard]
            with obs.span("shard.prepare", category="scan",
                          streams=len(shard_streams),
                          compiled=compiled):
                sizes = tuple(len(s) for s in shard_streams)
                if not compiled:
                    spec = StreamShardSpec(
                        sizes=sizes,
                        raw=tuple(arena.put_bytes(s)
                                  for s in shard_streams))
                    return (self.engine, spec, self._cache_dir)
                classes = []
                for size, members in \
                        stream_length_classes(shard_streams):
                    words = word_count(size + 1)
                    if len(members) == 1:
                        view, ref = arena.alloc_array((8, words))
                        view[...] = basis_environment(
                            shard_streams[members[0]])
                    else:
                        view, ref = arena.alloc_array(
                            (8, len(members), words))
                        for row, member in enumerate(members):
                            view[:, row, :] = basis_environment(
                                shard_streams[member])
                    classes.append((size, tuple(members), ref))
                spec = StreamShardSpec(sizes=sizes,
                                       classes=tuple(classes))
            return (self.engine, spec, self._cache_dir)

        return prepare

    def _serial_streams(self, payload) -> List:
        """In-process recovery: identical maths whether the shard's
        payload is inline streams or shared-memory descriptors (the
        parent resolves its own arena without re-attaching)."""
        engine, shard, _ = payload
        if isinstance(shard, StreamShardSpec):
            if shard.classes is not None:
                return engine.match_many_words(list(shard.sizes),
                                               shard.resolve_classes())
            shard = shard.resolve_streams()
        return engine.match_many(shard, config=self.config.serial())

    # -- one stream, groups sharded ---------------------------------------

    def match(self, data: bytes):
        """Group-sharded single-input match; merged result is
        bit-identical (positions, per-CTA and aggregate metrics) to
        ``engine.match(data)``."""
        plan = plan_group_shards(self.engine, self.config.workers)
        if len(plan) <= 1:
            self.faults = []
            return self.engine.match(data)
        _SHARDS_DISPATCHED.inc(len(plan), kind="group")
        deadline = Deadline.start(self.config.deadline_s)
        compiled = self.engine.backend == "compiled"
        zero_copy = self._zero_copy() and compiled
        arena = None
        payload_data: object = data
        if zero_copy:
            from ..backend.runtime import basis_environment, word_count

            words = word_count(len(data) + 1)
            arena = SharedArena(8 * words * 8 + 64, tag="groups")
            # One transpose, shared by every group shard — serial
            # transposes once too, so the parallel path no longer
            # multiplies that cost by the worker count.
            view, ref = arena.alloc_array((8, words))
            view[...] = basis_environment(data)
            payload_data = GroupShardSpec(len(data), ref)
        try:
            with obs.span("scan.parallel", category="scan",
                          kind="group", shards=len(plan),
                          workers=self.config.workers,
                          executor=self.config.executor,
                          zero_copy=zero_copy):
                payloads = [(self.engine, shard, payload_data,
                             self._cache_dir) for shard in plan]
                shard_results, self.faults = self.pool.map_shards(
                    worker_mod.scan_groups, payloads,
                    serial_fn=self._serial_groups, deadline=deadline)
        finally:
            if arena is not None:
                arena.release()
        return self._merge_group_results(shard_results, len(data))

    def _serial_groups(self, payload) -> Tuple:
        from ..core.engine import BitGenEngine

        engine, group_indices, data, _ = payload
        sub = BitGenEngine([engine.groups[i] for i in group_indices],
                           engine.pattern_count,
                           config=self.config.serial())
        if isinstance(data, GroupShardSpec):
            return group_indices, sub.match_words(data.basis.resolve(),
                                                  data.input_bytes)
        return group_indices, sub.match(data)

    def _merge_group_results(self, shard_results, input_bytes: int):
        from ..core.engine import BitGenResult

        merged = BitGenResult(pattern_count=self.engine.pattern_count,
                              input_bytes=input_bytes)
        merged.cta_metrics = [None] * len(self.engine.groups)
        for group_indices, result in shard_results:
            for row, group_index in enumerate(group_indices):
                merged.cta_metrics[group_index] = \
                    result.cta_metrics[row]
                for pattern in self.engine.groups[group_index] \
                        .group.indices:
                    merged.ends[pattern] = result.ends[pattern]
        # Aggregate in serial (group) order so max/sum folds agree.
        for metrics in merged.cta_metrics:
            merged.metrics.merge(metrics)
        return merged

    # -- streaming sessions ------------------------------------------------

    def sessions(self, chunk_lists: Sequence[Sequence[bytes]]
                 ) -> List[ScanReport]:
        """Run one full multi-chunk streaming session per logical
        stream, sessions fanned across the pool."""
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
