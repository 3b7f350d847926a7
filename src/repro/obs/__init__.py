"""repro.obs — unified tracing + metrics for the whole pipeline.

One observability substrate spanning compile → optimize → codegen →
dispatch → scan:

* a span-based tracer (:mod:`repro.obs.trace`) with wall/CPU timing,
  thread-aware nesting, and cross-process context propagation
  (:mod:`repro.obs.propagate`), so per-shard spans from pool workers
  (harness grid cells) stitch under the dispatching span;
* a metrics registry (:mod:`repro.obs.metrics`) — counters, gauges,
  histograms — that is the single sink for kernel-cache hit/miss,
  optimizer pass deltas, and fault recoveries;
* exporters (:mod:`repro.obs.export`) — JSON lines, Chrome
  ``trace_event`` (Perfetto-loadable), Prometheus text exposition —
  wired to ``python -m repro trace`` and the ``REPRO_TRACE=<path>``
  environment hook.

Tracing is **off by default** and the disabled path is near-free:
:func:`span` returns the one shared :data:`~repro.obs.trace.NULL_SPAN`
when no tracer is installed (a global read and a ``None`` check;
``benchmarks/bench_obs_overhead.py`` keeps it under 2% of wall time).
Metrics are always on but only touched at coarse aggregation points.

Usage::

    import repro.obs as obs

    tracer = obs.start_tracing()
    engine = BitGenEngine.compile(patterns)         # compile spans
    report = engine.scan(data)                      # scan/exec spans
    obs.export.write_chrome(tracer.finished(), "trace.json")
    obs.stop_tracing()

Environment hook: ``REPRO_TRACE=<path>`` enables tracing in any entry
point and writes the trace at interpreter exit — ``*.json`` as a
Chrome trace, ``*.prom`` as Prometheus metrics, anything else as JSON
lines.
"""

from __future__ import annotations

import os
from typing import Optional

from . import export  # noqa: F401  (public submodule)
from . import log  # noqa: F401  (public submodule)
from .log import RingLogWriter
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      registry)
from .trace import NULL_SPAN, NullSpan, Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "RingLogWriter",
    "Span",
    "TraceContext",
    "Tracer",
    "current_context",
    "current_tracer",
    "enabled",
    "export",
    "install_tracer",
    "log",
    "registry",
    "span",
    "start_tracing",
    "stop_tracing",
    "uninstall_tracer",
]

#: The installed tracer; ``None`` means tracing is disabled.
_TRACER: Optional[Tracer] = None


def span(name: str, category: str = "repro", **attrs):
    """Open a span on the installed tracer — THE instrumentation entry
    point.  Returns the shared no-op span when tracing is disabled, so
    call sites are a ``with`` statement away from free."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **attrs)


def enabled() -> bool:
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def current_context() -> Optional[TraceContext]:
    """The calling thread's innermost span as a picklable pointer,
    for handing to pool workers (``None`` when disabled / no span)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_context()


def start_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a recording tracer.  Idempotent when one
    is already installed and no explicit tracer is passed."""
    global _TRACER
    if tracer is None:
        if _TRACER is not None:
            return _TRACER
        tracer = Tracer()
    _TRACER = tracer
    return tracer


def stop_tracing() -> list:
    """Uninstall the tracer; returns its finished spans."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    return tracer.finished() if tracer is not None else []


def install_tracer(tracer: Tracer) -> Optional[Tracer]:
    """Swap ``tracer`` in, returning the previous one (worker-side
    span collection; pair with :func:`uninstall_tracer`)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def uninstall_tracer(tracer: Tracer,
                     previous: Optional[Tracer] = None) -> None:
    """Remove ``tracer`` if still installed, restoring ``previous``."""
    global _TRACER
    if _TRACER is tracer:
        _TRACER = previous


# -- REPRO_TRACE environment hook --------------------------------------------

TRACE_ENV = "REPRO_TRACE"


def _export_env_trace(tracer: Tracer, path: str, pid: int) -> None:
    if os.getpid() != pid:
        # Forked pool workers inherit this atexit hook; their spans
        # are marshalled back to the parent, which owns the file.
        return
    try:
        if path.endswith(".prom"):
            export.write_prometheus(registry(), path)
        elif path.endswith(".json"):
            export.write_chrome(tracer.finished(), path)
        else:
            export.write_jsonl(tracer.finished(), path)
    except OSError:  # pragma: no cover - diagnostics must never crash
        pass


def configure_from_env(environ=os.environ) -> Optional[Tracer]:
    """Arm tracing from ``REPRO_TRACE=<path>`` (no-op when unset):
    installs a recording tracer now and registers an atexit exporter.
    Called once at import, so every entry point — CLI, benchmarks,
    plain scripts — gets tracing without code changes."""
    path = environ.get(TRACE_ENV)
    if not path:
        return None
    import atexit

    tracer = start_tracing()
    atexit.register(_export_env_trace, tracer, path, os.getpid())
    return tracer


configure_from_env()
