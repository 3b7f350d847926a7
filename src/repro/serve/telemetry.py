"""Live serving telemetry: ``/metrics``, per-tenant SLOs, access logs.

PR 8 made the gateway benchmarkable; this module makes it *operable*.
Three pieces, all fed from one hook (:meth:`ServeTelemetry.record`,
called once per request by the gateway's drain loop):

* **Per-tenant request series.**  ``repro_serve_tenant_requests_total
  {tenant, outcome}`` and the ``repro_serve_tenant_request_seconds
  {tenant}`` latency histogram sit beside the existing aggregate
  series, so a dashboard can tell *which* tenant is slow, shedding,
  or degraded.  Tenant label cardinality is capped
  (:data:`MAX_TENANT_SERIES`); overflow tenants aggregate under
  ``tenant="_other"`` so one tenant-id-per-request client cannot
  explode the registry.

* **Rolling SLO tracking** (:class:`SloTracker`).  A sliding window
  per tenant holds ``(when, latency, violated)`` triples; a request
  violates when it failed or exceeded ``ServeConfig.slo_target_s``.
  :meth:`SloTracker.refresh` — called on every scrape and on
  ``Gateway.stats()`` — recomputes and exports window p50/p99
  (``repro_serve_slo_p50_seconds`` / ``..p99..``), the violation
  ratio, and the **error-budget burn**
  (``violation_ratio / slo_error_budget``; > 1 means the tenant is
  burning budget faster than the SLO allows).  Observation is O(1);
  the quantile sort happens only at scrape frequency.

* **Structured access logs.**  One JSONL record per request — tenant,
  session, engine fingerprint, queue delay, scan wall/CPU seconds,
  outcome code, and the request's trace/span ids, so a log line joins
  its ``serve.request`` span in a Chrome trace — emitted through the
  bounded non-blocking :class:`~repro.obs.log.RingLogWriter`; logging
  can never stall the gateway loop.

:class:`MetricsServer` is the scrape front: a dependency-free asyncio
HTTP listener serving ``GET /metrics`` (Prometheus text exposition
0.0.4, the whole process registry) and ``GET /healthz``.  It runs on
the same event loop as the gateway but does no scanning work — a
scrape renders a registry snapshot, which ``bench_serve_openloop.py``
bounds at <1% of serving throughput.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..obs.export import prometheus_text
from ..obs.log import RingLogWriter
from .config import ServeConfig

_REG = obs.registry()
_TENANT_REQUESTS = _REG.counter(
    "repro_serve_tenant_requests_total",
    "Gateway requests by tenant and outcome (ok / error code)")
_TENANT_SECONDS = _REG.histogram(
    "repro_serve_tenant_request_seconds",
    "End-to-end request latency by tenant")
_SLO_P50 = _REG.gauge(
    "repro_serve_slo_p50_seconds",
    "Rolling-window request latency p50, per tenant")
_SLO_P99 = _REG.gauge(
    "repro_serve_slo_p99_seconds",
    "Rolling-window request latency p99, per tenant")
_SLO_RATIO = _REG.gauge(
    "repro_serve_slo_violation_ratio",
    "Fraction of window requests violating the latency SLO, per tenant")
_SLO_BURN = _REG.gauge(
    "repro_serve_slo_burn",
    "Error-budget burn rate (violation ratio / budget); > 1 means the "
    "tenant burns budget faster than the SLO allows")
_SLO_VIOLATIONS = _REG.counter(
    "repro_serve_slo_violations_total",
    "Requests that violated the latency SLO (slow or failed), per tenant")
_SCRAPES = _REG.counter(
    "repro_serve_metrics_scrapes_total",
    "HTTP requests served by the /metrics endpoint, by path")

#: distinct tenant label values before overflow aggregation
MAX_TENANT_SERIES = 64

#: the overflow tenant label
OTHER_TENANT = "_other"


def quantile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class SloTracker:
    """Sliding-window latency/violation accounting per tenant.

    ``observe`` is the per-request hot path: append one triple, prune
    the window head, bump the violation counter.  Quantiles and burn
    are computed in :meth:`refresh`, at scrape frequency.
    """

    def __init__(self, target_s: float, window_s: float,
                 error_budget: float,
                 max_tenants: int = MAX_TENANT_SERIES,
                 clock: Callable[[], float] = time.monotonic):
        self.target_s = target_s
        self.window_s = window_s
        self.error_budget = error_budget
        self.max_tenants = max_tenants
        self._clock = clock
        self._windows: Dict[str, "deque[Tuple[float, float, bool]]"] = {}
        self._lock = threading.Lock()

    def _slot(self, tenant: str) -> str:
        """The label value ``tenant`` aggregates under (caller holds
        the lock)."""
        if tenant in self._windows or \
                len(self._windows) < self.max_tenants:
            return tenant
        return OTHER_TENANT

    def _prune(self, window: "deque", now: float) -> None:
        horizon = now - self.window_s
        while window and window[0][0] < horizon:
            window.popleft()

    def observe(self, tenant: str, latency_s: float, ok: bool) -> bool:
        """Record one finished request; returns whether it violated
        the SLO (failed, or slower than the target)."""
        violated = (not ok) or latency_s > self.target_s
        now = self._clock()
        with self._lock:
            slot = self._slot(tenant)
            window = self._windows.get(slot)
            if window is None:
                window = self._windows[slot] = deque()
            window.append((now, latency_s, violated))
            self._prune(window, now)
        if violated:
            _SLO_VIOLATIONS.inc(tenant=slot)
        return violated

    def refresh(self) -> None:
        """Recompute and export every tenant's window gauges."""
        for tenant, row in self.snapshot().items():
            _SLO_P50.set(row["p50_s"], tenant=tenant)
            _SLO_P99.set(row["p99_s"], tenant=tenant)
            _SLO_RATIO.set(row["violation_ratio"], tenant=tenant)
            _SLO_BURN.set(row["burn"], tenant=tenant)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant window summary (also the ``stats()`` view)."""
        now = self._clock()
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            views = {tenant: list(window)
                     for tenant, window in self._windows.items()}
        horizon = now - self.window_s
        for tenant, rows in views.items():
            live = [(t, lat, bad) for t, lat, bad in rows
                    if t >= horizon]
            latencies = sorted(lat for _, lat, _ in live)
            violations = sum(1 for _, _, bad in live if bad)
            count = len(live)
            ratio = (violations / count) if count else 0.0
            out[tenant] = {
                "count": count,
                "p50_s": quantile(latencies, 0.50),
                "p99_s": quantile(latencies, 0.99),
                "violations": violations,
                "violation_ratio": ratio,
                "burn": ratio / self.error_budget,
                "target_s": self.target_s,
                "window_s": self.window_s,
            }
        return out


class ServeTelemetry:
    """One per-gateway bundle: per-tenant series, the SLO tracker, and
    the (optional) ring-buffered access log."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.slo = SloTracker(config.slo_target_s, config.slo_window_s,
                              config.slo_error_budget)
        self.access_log: Optional[RingLogWriter] = None
        if config.access_log_path:
            self.access_log = RingLogWriter(
                config.access_log_path,
                capacity=config.access_log_capacity)

    def record(self, *, op: str, tenant: str, outcome: str,
               latency_s: float, queue_delay_s: float,
               info: Optional[Dict[str, object]] = None) -> None:
        """One finished (or shed) request.  ``info`` carries what the
        execution path learned: fingerprint, session, payload bytes,
        wall/CPU seconds, trace/span ids, and whether it ran off the
        event loop (``offloaded``, false for a request that never ran)."""
        info = info or {}
        _TENANT_REQUESTS.inc(tenant=tenant, outcome=outcome)
        _TENANT_SECONDS.observe(latency_s, tenant=tenant)
        self.slo.observe(tenant, latency_s, ok=(outcome == "ok"))
        if self.access_log is not None:
            record: Dict[str, object] = {
                "ts": round(time.time(), 6),
                "op": op,
                "tenant": tenant,
                "outcome": outcome,
                "latency_s": round(latency_s, 6),
                "queue_delay_s": round(queue_delay_s, 6),
                "offloaded": bool(info.get("offloaded")),
            }
            for field in ("fingerprint", "session", "bytes",
                          "wall_s", "cpu_s", "trace", "span"):
                value = info.get(field)
                if value is not None:
                    record[field] = value
            self.access_log.log(record)

    def refresh(self) -> None:
        """Export the rolling SLO gauges (scrape / stats hook)."""
        self.slo.refresh()

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "slo": self.slo.snapshot(),
            "slo_target_s": self.config.slo_target_s,
            "slo_window_s": self.config.slo_window_s,
            "slo_error_budget": self.config.slo_error_budget,
        }
        if self.access_log is not None:
            out["access_log"] = self.access_log.stats()
        return out

    def close(self) -> None:
        if self.access_log is not None:
            self.access_log.close()


# -- the scrape endpoint ------------------------------------------------------

_CONTENT_TYPES = {
    "/metrics": "text/plain; version=0.0.4; charset=utf-8",
    "/healthz": "application/json",
}


class MetricsServer:
    """Stdlib-only asyncio HTTP front for the metrics registry.

    Serves ``GET /metrics`` (Prometheus 0.0.4 text) and ``GET
    /healthz``; anything else is a 404.  ``refresh`` (usually
    ``ServeTelemetry.refresh``) runs before each render so rolling
    gauges are current at scrape time.  One response per connection
    (``Connection: close``) — exactly what Prometheus, curl, and the
    open-loop bench speak.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 registry: Optional[obs.MetricsRegistry] = None,
                 refresh: Optional[Callable[[], None]] = None,
                 health: Optional[Callable[[], Dict[str, object]]] = None):
        self.host = host
        self.port = port
        self.registry = registry if registry is not None \
            else obs.registry()
        self.refresh = refresh
        self.health = health
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "MetricsServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    # -- request handling ---------------------------------------------------

    def _render(self, path: str) -> Tuple[str, str, bytes]:
        """(status, content type, body) for one GET path."""
        if path == "/metrics":
            if self.refresh is not None:
                self.refresh()
            body = prometheus_text(self.registry).encode("utf-8")
            return "200 OK", _CONTENT_TYPES[path], body
        if path == "/healthz":
            payload: Dict[str, object] = {"ok": True}
            if self.health is not None:
                payload.update(self.health())
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            return "200 OK", _CONTENT_TYPES[path], body
        return ("404 Not Found", "text/plain; charset=utf-8",
                b"not found; try /metrics or /healthz\n")

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            # drain headers to the blank line so the socket is clean
            while True:
                line = await reader.readline()
                if not line or not line.strip():
                    break
            parts = request_line.split()
            if len(parts) < 2 or parts[0] not in (b"GET", b"HEAD"):
                status, ctype, body = ("405 Method Not Allowed",
                                       "text/plain; charset=utf-8",
                                       b"GET only\n")
                path = "*"
            else:
                path = parts[1].decode("latin-1").split("?", 1)[0]
                status, ctype, body = self._render(path)
            _SCRAPES.inc(path=path if path in _CONTENT_TYPES else "other")
            head = (f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode("latin-1")
            writer.write(head if parts and parts[0] == b"HEAD"
                         else head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def scrape_metrics(host: str, port: int,
                         path: str = "/metrics",
                         timeout_s: float = 5.0) -> Tuple[int, str]:
    """Minimal asyncio HTTP GET against a :class:`MetricsServer` —
    ``(status_code, body)``.  Used by the CLI self-test and the
    open-loop bench; avoids pulling an HTTP client dependency."""

    async def fetch() -> Tuple[int, str]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write((f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                          f"Connection: close\r\n\r\n").encode())
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].split()
        status = int(status_line[1]) if len(status_line) > 1 else 0
        return status, body.decode("utf-8", "replace")

    return await asyncio.wait_for(fetch(), timeout_s)
