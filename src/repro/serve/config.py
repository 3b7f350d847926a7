"""Gateway configuration and error vocabulary.

One frozen :class:`ServeConfig` describes a gateway the way
:class:`~repro.parallel.ScanConfig` describes a scan: engine-registry
capacity, per-tenant admission limits, default deadlines, and the
circuit-breaker tuning, all validated at construction.  The ``scan``
field carries the default :class:`ScanConfig` engines are compiled
with when a request doesn't bring its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..parallel.config import ScanConfig

#: wire / exception error codes, stable for clients and dashboards
OVERLOADED = "overloaded"
DEADLINE = "deadline"
UNKNOWN_SESSION = "unknown-session"
SESSION_LIMIT = "session-limit"
BAD_REQUEST = "bad-request"
INTERNAL = "internal"


class GatewayError(Exception):
    """Base of every request-level gateway failure; ``code`` is the
    stable wire identifier clients branch on."""

    code = INTERNAL

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class OverloadedError(GatewayError):
    """Admission control shed the request: the tenant's queue was at
    its high-water mark.  Back off and retry."""

    code = OVERLOADED


class DeadlineExceededError(GatewayError):
    """The request's deadline expired before (or while) serving it."""

    code = DEADLINE


class UnknownSessionError(GatewayError):
    """``feed``/``close`` named a session this gateway doesn't hold."""

    code = UNKNOWN_SESSION


class SessionLimitError(GatewayError):
    """The gateway-wide concurrent-session cap was reached."""

    code = SESSION_LIMIT


class BadRequestError(GatewayError):
    """Malformed request (unknown op, missing field, undecodable
    payload)."""

    code = BAD_REQUEST


@dataclass(frozen=True)
class ServeConfig:
    """One object describing how a gateway admits, queues, and serves."""

    #: engine-registry capacity: compiled engines resident across all
    #: tenants before LRU eviction (:class:`~repro.serve.host.EngineHost`)
    max_engines: int = 8
    #: per-tenant queue high-water mark — requests past this depth are
    #: shed with :class:`OverloadedError` instead of queued
    queue_depth: int = 64
    #: queue depth that bumps the warning counter (operators alert on
    #: it before the shed point); ``None`` = 3/4 of ``queue_depth``
    warn_depth: Optional[int] = None
    #: gateway-wide cap on concurrently open streaming sessions
    max_sessions: int = 4096
    #: default per-request deadline (seconds) when the request doesn't
    #: carry one; ``None`` = no deadline
    deadline_s: Optional[float] = None
    #: consecutive request failures that open the circuit and degrade
    #: execution to inline serial scans
    breaker_threshold: int = 3
    #: seconds the circuit stays open before a half-open probe
    breaker_cooldown_s: float = 5.0
    #: TCP port for the live ``/metrics`` Prometheus scrape endpoint
    #: served beside the gateway front (``0`` = ephemeral, ``None`` =
    #: no endpoint)
    metrics_port: Optional[int] = None
    #: per-request latency SLO target (seconds): requests slower than
    #: this — or failed — count against the error budget
    slo_target_s: float = 0.25
    #: sliding window (seconds) behind the rolling p50/p99 and
    #: SLO-burn gauges
    slo_window_s: float = 60.0
    #: allowed violation fraction inside the window; the burn gauge is
    #: ``violation_ratio / slo_error_budget`` (> 1 = burning budget
    #: faster than the SLO allows)
    slo_error_budget: float = 0.01
    #: idle seconds after which an open streaming session is evicted
    #: (``None`` = sessions live until closed)
    session_idle_s: Optional[float] = None
    #: JSONL per-request access-log path (``None`` = no access log)
    access_log_path: Optional[str] = None
    #: ring capacity of the non-blocking access-log writer; overflow
    #: drops oldest records, never blocks the gateway loop
    access_log_capacity: int = 4096
    #: execute requests on the shared warm thread pool
    #: (:func:`repro.parallel.pool.offload_pool`) instead of the event
    #: loop's own thread, so one slow tenant cannot stall the loop
    offload: bool = True
    #: width of the offload thread pool
    offload_workers: int = 4
    #: default compile/dispatch configuration for hosted engines: the
    #: compiled backend, since a gateway needs matches, not the
    #: simulator's schedule accounting
    scan: ScanConfig = field(
        default_factory=lambda: ScanConfig(backend="compiled"))

    def __post_init__(self):
        if self.max_engines < 1:
            raise ValueError("max_engines must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.warn_depth is not None and \
                not (0 < self.warn_depth <= self.queue_depth):
            raise ValueError(
                "warn_depth must be in (0, queue_depth]")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        if self.metrics_port is not None and \
                not (0 <= self.metrics_port <= 65535):
            raise ValueError("metrics_port must be in [0, 65535]")
        if self.slo_target_s <= 0:
            raise ValueError("slo_target_s must be positive")
        if self.slo_window_s <= 0:
            raise ValueError("slo_window_s must be positive")
        if not (0 < self.slo_error_budget <= 1):
            raise ValueError("slo_error_budget must be in (0, 1]")
        if self.session_idle_s is not None and self.session_idle_s <= 0:
            raise ValueError("session_idle_s must be positive")
        if self.access_log_capacity < 1:
            raise ValueError("access_log_capacity must be >= 1")
        if self.offload_workers < 1:
            raise ValueError("offload_workers must be >= 1")

    def effective_warn_depth(self) -> int:
        """The depth that trips the warning counter."""
        if self.warn_depth is not None:
            return self.warn_depth
        return max(1, (self.queue_depth * 3) // 4)

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)
