"""repro.parallel — the scan configuration, the scan report, and the
worker pool.

Every public entry point accepts one :class:`ScanConfig` and returns
:class:`ScanReport` results.  Scans always run in the calling thread;
the :class:`WorkerPool` (with its fault handling and the shared
on-disk kernel cache) fans the cells of a
:meth:`~repro.perf.harness.Harness.run_all` grid across processes or
threads, the one parallel path measured faster than serial (DESIGN.md,
*Parallelism*).

Light by design: importing the package only loads the config and
report types; the pool and disk cache load on first use.
"""

from .config import (BACKENDS, EXECUTORS, ON_FAULT_POLICIES,
                     START_METHOD_ENV, START_METHODS, ScanConfig,
                     default_start_method, reject_legacy_kwargs)
from .report import ScanReport, ShardFault

__all__ = [
    "BACKENDS",
    "DiskKernelCache",
    "EXECUTORS",
    "ON_FAULT_POLICIES",
    "START_METHODS",
    "START_METHOD_ENV",
    "ScanConfig",
    "ScanReport",
    "ShardFault",
    "WorkerPool",
    "breaker",
    "default_cache_dir",
    "default_start_method",
    "pool_stats",
    "reject_legacy_kwargs",
    "shutdown",
]

_LAZY = {
    "DiskKernelCache": ("diskcache", "DiskKernelCache"),
    "default_cache_dir": ("diskcache", "default_cache_dir"),
    "WorkerPool": ("pool", "WorkerPool"),
    "breaker": ("pool", "breaker"),
    "pool_stats": ("pool", "pool_stats"),
    "shutdown": ("pool", "shutdown"),
}


def __getattr__(name):
    entry = _LAZY.get(name)
    if entry is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{entry[0]}", __name__)
    value = getattr(module, entry[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
