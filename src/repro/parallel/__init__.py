"""repro.parallel — host-side sharded scan dispatch.

The paper earns its throughput from massive device-side parallelism;
this package supplies the missing host half: a sharded dispatcher that
fans streams, CTA groups, streaming sessions, and harness grids across
a worker pool while staying bit-identical to serial execution, plus the
unified :class:`ScanConfig` / :class:`ScanReport` API every public
entry point now accepts and returns.

Light by design: importing the package only loads the config and
report types; the pool, dispatcher, and disk cache load on first use.
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
    "ParallelScanner",
    "START_METHODS",
    "START_METHOD_ENV",
    "ScanConfig",
    "ScanReport",
    "ShardFault",
    "WorkerPool",
    "breaker",
    "default_cache_dir",
    "default_start_method",
    "parallel_match",
    "parallel_match_many",
    "parallel_run_all",
    "parallel_sessions",
    "plan_group_shards",
    "plan_stream_shards",
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
    "ParallelScanner": ("scan", "ParallelScanner"),
    "parallel_match": ("scan", "parallel_match"),
    "parallel_match_many": ("scan", "parallel_match_many"),
    "parallel_run_all": ("scan", "parallel_run_all"),
    "parallel_sessions": ("scan", "parallel_sessions"),
    "plan_group_shards": ("scan", "plan_group_shards"),
    "plan_stream_shards": ("scan", "plan_stream_shards"),
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
