"""Worker-side harness grid cells.

Every function here is a plain module-level callable (picklable by
reference for process pools).  :func:`run_cell` runs one
``(app, engine)`` cell of a :meth:`~repro.perf.harness.Harness.run_all`
grid from a plain build spec, and attaches the shared on-disk kernel
cache before compiling anything, so a kernel the parent (or a sibling)
already built is loaded from its marshalled artefact instead of being
re-generated.  Persistent pools attach the cache once at spawn via
:func:`init_worker` (the executor initializer), so even a worker's
first cell starts warm.  A faulted cell is re-run in the parent.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import obs
from ..resilience import chaos

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
    its first cell is as warm as its hundredth.  Failures are
    swallowed — the cache is an accelerator, and an initializer that
    raises would poison the whole pool."""
    try:
        attach_disk_cache(cache_dir)
    except Exception:
        pass


# -- grid cells ------------------------------------------------------------


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
