"""The unified scan configuration.

Every public entry point — :func:`repro.compile`, :func:`repro.scan`,
:meth:`repro.core.engine.BitGenEngine.compile`,
:class:`repro.core.streaming.StreamingMatcher`,
:class:`repro.perf.harness.Harness`, and the ``python -m repro scan``
CLI — accepts one :class:`ScanConfig` carrying the compile-time knobs
(scheme ladder, merge/interval sizes, CTA geometry, backend), the
scan-time knobs (prefilter, streaming tail), and the worker-pool knobs
that configure :meth:`Harness.run_all <repro.perf.harness.Harness.run_all>`
grids (worker count, executor kind, fault policy, kernel cache
directory).  Scans ignore the pool knobs: every scan runs in the
calling thread.  The scattered positional kwargs those entry points
grew over PRs 0–2 were deprecated for one release and are now
rejected with a migration hint (:func:`reject_legacy_kwargs`).

Fields default to ``None`` where the right default depends on the
consumer (the engine resolves ``geometry=None`` to the paper's 512x32
CTAs, the harness to its scaled-down 32x32 benchmark geometry), so one
config object moves between entry points without silently pinning a
consumer-specific default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from ..core.schemes import Scheme
from ..gpu.config import CPUConfig, GPUConfig
from ..gpu.machine import CTAGeometry

BACKENDS = ("simulate", "compiled")
#: grouping strategies (see :func:`repro.core.grouping.group_regexes`)
GROUPINGS = ("balanced", "round_robin", "fingerprint")
#: literal-gate implementations (see :mod:`repro.core.prefilter`)
PREFILTER_IMPLS = ("screen", "ac")
EXECUTORS = ("process", "thread")
START_METHODS = ("fork", "spawn", "forkserver")
#: fault-handling policy vocabulary (see :mod:`repro.resilience`)
ON_FAULT_POLICIES = ("degrade", "retry", "fail")

#: Environment override for :meth:`ScanConfig.resolved_start_method`.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheapest, and warm
    workers inherit the parent's in-memory kernel cache), else
    ``spawn``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ScanConfig:
    """One object describing how to compile and run a scan, and how a
    harness grid uses its worker pool."""

    # -- compilation (Section 7 parameter setup) --------------------------
    scheme: Scheme = Scheme.ZBS
    geometry: Optional[CTAGeometry] = None
    cta_count: Optional[int] = None
    merge_size: int = 8
    interval_size: int = 8
    loop_fallback: bool = False
    #: 0 = raw lowering, >= 1 = value-numbered lowering; on the
    #: simulate backend also the pass pipeline: 1 = copy-prop + DCE,
    #: 2 = full (CSE, algebraic folding, prologue factoring).
    opt_level: int = 2
    grouping: str = "balanced"
    backend: str = "simulate"

    # -- prefiltered dispatch (repro.core.prefilter) -----------------------
    #: gate compiled groups behind their mandatory literal factors: one
    #: literal scan per input activates only the groups whose factors
    #: fired (groups with factor-free patterns stay always-on).  A
    #: dispatch-time knob — results are bit-identical either way, so
    #: the same compiled engine serves both settings.
    prefilter: bool = False
    #: gate implementation: "screen" (sorted-window prefix screen: one
    #: big-endian 8-byte key per input offset, sorted in place, a
    #: vectorised searchsorted over every literal's prefix range, then
    #: exact substring confirm of the survivors — exact because padding
    #: and shared prefixes only add candidates; transient cost one
    #: uint64 per input byte) or "ac" (one Aho–Corasick pass, the oracle)
    prefilter_impl: str = "screen"

    # -- device models (perf harness pricing) -----------------------------
    gpu: Optional[GPUConfig] = None
    cpu: Optional[CPUConfig] = None

    # -- streaming ---------------------------------------------------------
    max_tail_bytes: int = 4096

    # -- harness grid worker pool (repro.parallel.pool) -------------------
    # These fields configure Harness.run_all's worker pool; scans
    # ignore them and always run in the calling thread.
    #: grid cells run at once (1 = the grid runs serially)
    workers: int = 1
    executor: str = "process"
    #: process-pool start method; ``None`` resolves through
    #: ``$REPRO_PARALLEL_START_METHOD`` and then the platform default
    #: (:func:`default_start_method`).  Persistent warm pools are keyed
    #: by the resolved value, so two configs differing only here get
    #: separate pools.
    start_method: Optional[str] = None
    #: seconds a grid cell may run in a worker before it is re-run in
    #: the parent as a ``timeout`` fault
    worker_timeout: Optional[float] = None
    cache_dir: Optional[str] = None

    # -- grid fault handling (repro.resilience) ----------------------------
    #: what a worker fault does to the grid: ``"degrade"`` reruns the
    #: cell inline in the parent (the always-safe default),
    #: ``"retry"`` retries on a fresh pool with backoff before
    #: degrading, ``"fail"`` aborts the grid with
    #: :class:`~repro.resilience.ScanAbortedError`.
    on_fault: str = "degrade"
    #: bounded retries per faulted cell (``on_fault="retry"`` only)
    max_retries: int = 2
    #: base backoff before the first retry; attempt ``n`` waits
    #: ``retry_backoff * 2**(n-1)`` plus jitter
    retry_backoff: float = 0.05
    #: grid deadline in seconds: one budget shared by every blocking
    #: wait of a pool dispatch, so a hung worker can never stall the
    #: grid past it (expired cells degrade inline and are reported as
    #: ``ShardFault(kind="deadline")``).  ``None`` = no deadline.
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {BACKENDS}")
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"expected one of {EXECUTORS}")
        if (self.start_method is not None
                and self.start_method not in START_METHODS):
            raise ValueError(
                f"unknown start_method {self.start_method!r}; "
                f"expected one of {START_METHODS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.opt_level not in (0, 1, 2):
            raise ValueError("opt_level must be 0, 1, or 2")
        if self.merge_size < 1 or self.interval_size < 1:
            raise ValueError("merge_size and interval_size must be >= 1")
        if self.max_tail_bytes < 1:
            raise ValueError("max_tail_bytes must be >= 1")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.on_fault not in ON_FAULT_POLICIES:
            raise ValueError(f"unknown on_fault {self.on_fault!r}; "
                             f"expected one of {ON_FAULT_POLICIES}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.prefilter_impl not in PREFILTER_IMPLS:
            raise ValueError(
                f"unknown prefilter_impl {self.prefilter_impl!r}; "
                f"expected one of {PREFILTER_IMPLS}")
        if self.grouping not in GROUPINGS:
            raise ValueError(f"unknown grouping {self.grouping!r}; "
                             f"expected one of {GROUPINGS}")

    # -- derived views -----------------------------------------------------

    def replace(self, **changes) -> "ScanConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def serial(self) -> "ScanConfig":
        """The same configuration with the worker pool disabled — what
        a grid worker runs its cell with."""
        if self.workers == 1:
            return self
        return self.replace(workers=1)

    def parallel_enabled(self) -> bool:
        """Whether a harness grid fans its cells across the pool."""
        return self.workers > 1

    def resolved_start_method(self) -> str:
        """The process-pool start method actually used: the explicit
        field, else ``$REPRO_PARALLEL_START_METHOD``, else the
        platform default.  Read at dispatch time, so the environment
        override reaches long-lived processes too."""
        import os

        if self.start_method is not None:
            return self.start_method
        env = os.environ.get(START_METHOD_ENV)
        if env:
            if env not in START_METHODS:
                raise ValueError(
                    f"${START_METHOD_ENV}={env!r}: expected one of "
                    f"{START_METHODS}")
            return env
        return default_start_method()

    def compile_key(self) -> Tuple:
        """The fields that change what ``BitGenEngine.compile`` builds
        (scan-time and pool knobs excluded) — a cache key for compiled
        engines."""
        return (self.scheme, self.geometry, self.cta_count,
                self.merge_size, self.interval_size, self.loop_fallback,
                self.opt_level, self.grouping, self.backend)


def reject_legacy_kwargs(api: str, legacy: Mapping[str, object]) -> None:
    """Refuse the pre-ScanConfig scattered keyword arguments.

    PR 2 kept them working for one release behind a
    ``DeprecationWarning``; that window has closed.  Any legacy
    keyword now raises :class:`TypeError` with the migration spelled
    out, so old call sites fail loudly at the call, not with a bare
    "unexpected keyword argument".
    """
    if not legacy:
        return
    listed = ", ".join(sorted(legacy))
    raise TypeError(
        f"{api}: keyword argument(s) {listed} were removed; pass "
        f"config=ScanConfig({listed.replace(', ', '=..., ')}=...) "
        f"instead, or use the repro.compile()/repro.scan() facade "
        f"(ScanConfig fields are accepted there as plain keywords)")
