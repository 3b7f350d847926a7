"""Worker-side shard execution.

Every function here is a plain module-level callable (picklable by
reference for process pools) taking one payload tuple and returning one
shard result.  Workers always run their shard **serially** and never
gate — the parent already ran the prefilter — and attach the shared
on-disk kernel cache before compiling anything, so a kernel the parent
(or a sibling) already built is loaded from its marshalled artefact
instead of being re-generated.  Persistent pools attach the cache once
at spawn via :func:`init_worker` (the executor initializer), so even a
worker's first shard starts warm.  A faulted shard is re-run in the
parent through the same function.

Stream, group and session payloads share one shape: the engine, the
shard's input bytes (with each stream's active groups, the group
indices, or the session config) and the disk-cache directory.  The
engine's programs/plans pickle cheaply (compiled kernels are dropped
by :meth:`BitGenEngine.__getstate__` and rebuilt through the disk
cache — or inherited outright under the ``fork`` start method), and
the worker transposes each input itself
(:func:`~repro.backend.basis_environment`) before
:meth:`~repro.core.engine.BitGenEngine.match_words`, exactly as a
serial scan does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs
from ..resilience import chaos
from .report import ScanReport

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


# -- shard tasks -------------------------------------------------------------


def scan_streams(payload) -> List:
    """One stream shard: each of its ``(data, active)`` inputs through
    ``engine.match_words`` on the groups the parent's gate left
    active (``None``: every group)."""
    from ..backend import basis_environment

    engine, inputs, cache_dir = payload
    chaos.maybe_inject("worker.stream")
    attach_disk_cache(cache_dir)
    return [engine.match_words(basis_environment(data), len(data),
                               active=active)
            for data, active in inputs]


def scan_groups(payload) -> Tuple:
    """One group shard: a sub-engine over some of the engine's
    (prefilter-active) groups, run over the whole input.  Returns
    ``(group_indices, result)``."""
    from ..backend import basis_environment
    from ..core.engine import BitGenEngine

    engine, group_indices, data, cache_dir = payload
    chaos.maybe_inject("worker.group")
    attach_disk_cache(cache_dir)
    sub = BitGenEngine([engine.groups[i] for i in group_indices],
                       engine.pattern_count,
                       config=engine.config.serial())
    return group_indices, sub.match_words(basis_environment(data),
                                          len(data))


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
