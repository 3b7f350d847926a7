"""Worker-side shard execution.

Every function here is a plain module-level callable (picklable by
reference for process pools) taking one payload tuple and returning one
shard result.  Workers always run their shard **serially**
(``config.serial()``) — parallel-in-parallel recursion is forbidden by
construction — and attach the shared on-disk kernel cache before
compiling anything, so a kernel the parent (or a sibling) already
built is loaded from its marshalled artefact instead of being
re-generated.  Persistent pools attach the cache once at spawn via
:func:`init_worker` (the executor initializer), so even a worker's
first shard starts warm.

Shard payloads stay small: the engine's programs/plans pickle cheaply
(compiled kernels are dropped by :meth:`BitGenEngine.__getstate__` and
rebuilt through the disk cache — or inherited outright under the
``fork`` start method), while the *bulk* — input byte batches and
pre-transposed basis word arrays — crosses as
:class:`~repro.parallel.shm.ShmBytes` / :class:`ShmArray` descriptors
resolved zero-copy out of the parent's :class:`SharedArena` segment
(:class:`StreamShardSpec`, :class:`GroupShardSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..resilience import chaos
from ..resilience.chaos import InjectedFault  # noqa: F401  (back-compat)
from .report import ScanReport
from .shm import ShmArray, ShmBytes

#: Legacy all-sites fault hook, still honoured as a shim by the chaos
#: framework; new code should use ``$REPRO_CHAOS`` / a ChaosPlan
#: (:mod:`repro.resilience.chaos`) for site/probability/count control.
FAULT_ENV = chaos.LEGACY_FAULT_ENV

_CELLS_RUN = obs.registry().counter(
    "repro_worker_cells_total",
    "Harness grid cells executed worker-side, by engine")


def attach_disk_cache(cache_dir: Optional[str]) -> None:
    """Back the process-wide kernel cache with ``cache_dir``."""
    if not cache_dir:
        return
    from ..backend import kernel_cache
    from .diskcache import DiskKernelCache

    cache = kernel_cache()
    disk = getattr(cache, "disk", None)
    if disk is None or disk.path != cache_dir:
        cache.attach_disk(DiskKernelCache(cache_dir))


def init_worker(cache_dir: Optional[str] = None) -> None:
    """Persistent-pool initializer: pre-seed the worker at spawn so
    its first shard is as warm as its hundredth.  Failures are
    swallowed — the cache is an accelerator, and an initializer that
    raises would poison the whole pool."""
    try:
        attach_disk_cache(cache_dir)
    except Exception:
        pass


# -- zero-copy shard payloads ------------------------------------------------


@dataclass(frozen=True)
class StreamShardSpec:
    """One stream shard's data, resident in shared memory.

    ``sizes`` are the per-stream byte lengths in shard-local order.
    Exactly one of the two carriers is set: ``classes`` holds
    pre-transposed basis word arrays per length class (compiled
    backend — workers skip the transpose entirely), ``raw`` holds the
    input byte ranges (simulating backend)."""

    sizes: Tuple[int, ...]
    classes: Optional[Tuple[Tuple[int, Tuple[int, ...], ShmArray],
                            ...]] = None
    raw: Optional[Tuple[ShmBytes, ...]] = None

    def resolve_classes(self) -> List[Tuple[int, List[int], object]]:
        return [(size, list(indices), ref.resolve())
                for size, indices, ref in self.classes]

    def resolve_streams(self) -> List[bytes]:
        return [bytes(ref.resolve()) for ref in self.raw]


@dataclass(frozen=True)
class GroupShardSpec:
    """One group shard's input: the whole input's basis words,
    transposed once by the parent and shared by every shard."""

    input_bytes: int
    basis: ShmArray


# -- shard tasks -------------------------------------------------------------


def scan_streams(payload) -> List:
    """One stream-shard: ``engine.match_many`` over a subset of the
    dispatch's streams, serial inside the worker (shards hold whole
    length classes, the serial transpose unit).  Shared-
    memory shards execute straight on the parent's transposed words."""
    engine, shard, cache_dir = payload
    chaos.maybe_inject("worker.stream")
    attach_disk_cache(cache_dir)
    if isinstance(shard, StreamShardSpec):
        if shard.classes is not None:
            return engine.match_many_words(list(shard.sizes),
                                           shard.resolve_classes())
        return engine.match_many(shard.resolve_streams(),
                                 config=engine.config.serial())
    return engine.match_many(shard, config=engine.config.serial())


def scan_groups(payload) -> Tuple:
    """One group-shard: a sub-engine over a subset of the engine's
    compiled groups (whole kernel-fingerprint buckets, so the batched
    2D dispatch inside the shard equals the serial bucket), run over
    one input.  Returns ``(group_indices, result)``."""
    from ..core.engine import BitGenEngine

    engine, group_indices, data, cache_dir = payload
    chaos.maybe_inject("worker.group")
    attach_disk_cache(cache_dir)
    sub = BitGenEngine([engine.groups[i] for i in group_indices],
                       engine.pattern_count,
                       config=engine.config.serial())
    if isinstance(data, GroupShardSpec):
        return group_indices, sub.match_words(data.basis.resolve(),
                                              data.input_bytes)
    return group_indices, sub.match(data)


def run_session(payload) -> ScanReport:
    """One streaming session: all chunks of one logical stream fed
    through a fresh :class:`StreamingMatcher`, in order."""
    from ..core.streaming import StreamingMatcher

    engine, chunks, config, cache_dir = payload
    chaos.maybe_inject("worker.session")
    attach_disk_cache(cache_dir)
    matcher = StreamingMatcher(engine, config=config.serial())
    return matcher.feed_all(chunks)


#: Per-process memo of harness instances, keyed by their build spec —
#: one worker serving many (app, engine) cells builds each workload
#: and each compiled engine once, like the parent's harness does.
_HARNESS_MEMO: Dict[Tuple, object] = {}


def run_cell(payload):
    """One harness cell: ``Harness(...).run(app, engine_name)``."""
    from ..perf.harness import Harness

    spec, app, engine_name, cache_dir = payload
    chaos.maybe_inject("worker.cell")
    attach_disk_cache(cache_dir)
    config, scale, input_bytes, seed = spec
    key = (config, scale, input_bytes, seed)
    harness = _HARNESS_MEMO.get(key)
    if harness is None:
        harness = Harness(config=config, scale=scale,
                          input_bytes=input_bytes, seed=seed)
        _HARNESS_MEMO[key] = harness
    _CELLS_RUN.inc(engine=engine_name)
    with obs.span("cell", category="scan", app=app,
                  engine=engine_name):
        return harness.run(app, engine_name)
