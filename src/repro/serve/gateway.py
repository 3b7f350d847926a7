"""The asyncio gateway.

:class:`Gateway` is the long-lived serving core: it owns the
persistent engine registry (:class:`~repro.serve.host.EngineHost`),
the open streaming sessions, and one *lane* per tenant — an asyncio
queue drained by a dedicated task.  A lane serializes its tenant's
requests, which is exactly the ordering guarantee streaming sessions
need (feeds of one session never reorder or interleave mid-chunk),
while different tenants proceed concurrently.

Request lifecycle::

    admit (shed at high-water)  ->  enqueue on tenant lane
        ->  dequeue (queue delay observed)
        ->  deadline check (expired requests answered without scanning)
        ->  place: registry lookup, or the session's engine
        ->  execute (on the loop thread, or on the off-loop pool)
        ->  resolve the caller's future  ->  telemetry + access log

**Placement.**  A request runs on the event-loop thread when it cannot
compile — ``scan``, ``open`` and ``compile`` whose engine is resident
(a :meth:`~repro.serve.host.EngineHost.lookup` hit, taken at dequeue),
``feed`` and ``close`` on an open session — its engine runs the
compiled backend, its payload is shorter than
:data:`INLINE_LIMIT_BYTES` (64 KiB), and no other request is running
off the loop.  Every other request — a registry miss (it compiles), a
simulated engine (its scans take milliseconds to seconds), a large
payload, or any request that arrives while one of those runs — runs
on the persistent off-loop thread pool
(:func:`repro.parallel.pool.offload_pool`).  The pool buys a small
warm request nothing: kernel ops hold the GIL, so a pool thread scans
no faster than the loop, and the hand-off each way costs more than a
sub-millisecond scan.  While anything runs off the loop, though, the
loop must idle for it to get the GIL: a loop that never idles releases
and retakes the lock at every ``select()``, and CPython then rarely
hands it to the waiting thread.  An inline request holds the loop for
at most one compiled scan below :data:`INLINE_LIMIT_BYTES`; compiles never
run on it, and a hosted engine generates no code once resident.  A
request refused at placement (an unknown session, an open past the
session cap) is answered on the loop.  The lane awaits each result
before dequeuing its next item either way, so per-tenant ordering is
unchanged and results stay bit-identical.

Fault policy reuses :mod:`repro.resilience`: every request carries an
optional :class:`~repro.resilience.Deadline` (per-request ``deadline_s``
falling back to ``ServeConfig.deadline_s``), checked when the request
is dequeued.  A gateway-level :class:`~repro.resilience.CircuitBreaker`
counts request failures and reports its state in :meth:`Gateway.stats`
and ``/healthz``; it does not change where or how any request runs.

Every finished (or shed) request is recorded through
:class:`~repro.serve.telemetry.ServeTelemetry`: per-tenant
request/latency series, rolling SLO windows, and — when
``ServeConfig.access_log_path`` is set — one JSONL access-log line
carrying the request's trace/span ids so it joins its
``serve.request`` span in a Chrome trace, and whether it ran off the
loop (``offloaded``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .. import obs
from ..parallel.config import ScanConfig
from ..parallel.pool import offload_pool
from ..parallel.report import ScanReport
from ..resilience import CircuitBreaker, Deadline
from .admission import AdmissionController, Ticket
from .config import (DEADLINE, GatewayError, DeadlineExceededError,
                     ServeConfig, SessionLimitError, UnknownSessionError)
from .host import EngineHost, EngineKey, HostedEngine
from .session import Session, next_session_id
from .telemetry import ServeTelemetry

_REG = obs.registry()
_REQUESTS = _REG.counter(
    "repro_serve_requests_total",
    "Gateway requests by op and outcome (ok / error code)")
_REQUEST_SECONDS = _REG.histogram(
    "repro_serve_request_seconds",
    "End-to-end gateway request latency (admission to response)")
_SESSIONS = _REG.gauge(
    "repro_serve_sessions",
    "Currently open streaming sessions")
_OFFLOADED = _REG.counter(
    "repro_serve_loop_offload_total",
    "Requests executed on the off-loop thread pool (registry misses, "
    "simulated engines, large payloads, and requests that arrived "
    "while one of those ran) instead of the gateway's event-loop "
    "thread")
_EVICTED = _REG.counter(
    "repro_serve_sessions_evicted_total",
    "Streaming sessions closed by the gateway, by reason "
    "(idle, shutdown)")

#: sentinel that stops a lane's drain task
_STOP = object()

#: sentinel distinguishing "no deadline" from "use the config default"
_DEFAULT = object()

#: width of the off-loop thread pool: compiles, and whatever else
#: placement sends off the loop
OFFLOAD_WORKERS = 4

#: a warm compiled request whose payload is shorter than this may run
#: on the event-loop thread; a longer one runs on the off-loop pool
INLINE_LIMIT_BYTES = 65536


class _Lane:
    """One tenant's serialized execution lane."""

    __slots__ = ("queue", "task")

    def __init__(self, queue: "asyncio.Queue", task: "asyncio.Task"):
        self.queue = queue
        self.task = task


@dataclass
class _Request:
    """One gateway request: ``run(hosted, info)`` and what
    placement weighs — the pattern set and config an engine op (scan,
    open, compile) runs on, or the session a session op (feed, close)
    runs on, and the payload size.  ``_submit`` adds the admission
    ticket, the deadline and the caller's future."""

    tenant: str
    op: str
    run: Callable
    patterns: Optional[Sequence[Union[str, object]]] = None
    config: Optional[ScanConfig] = None
    session: Optional[str] = None
    size: int = 0
    ticket: Optional[Ticket] = None
    deadline: Optional[Deadline] = None
    future: Optional["asyncio.Future"] = None


class Gateway:
    """Multiplexes tenants' scans and streaming sessions over a
    registry of persistent compiled engines."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 host: Optional[EngineHost] = None):
        self.config = config if config is not None else ServeConfig()
        self.host = host if host is not None else EngineHost(self.config)
        self.admission = AdmissionController(self.config)
        self.breaker = CircuitBreaker(
            "serve", threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s)
        self.telemetry = ServeTelemetry(self.config)
        self._sessions: Dict[str, Tuple[Session, HostedEngine]] = {}
        #: guards the session map — opens, feeds and closes run on the
        #: loop thread or on an offload thread, by placement
        self._session_lock = threading.Lock()
        #: requests running off the loop right now; while any does,
        #: every request does (the loop idles so they get the GIL).
        #: Read and written on the loop thread only.
        self._off_loop = 0
        self._lanes: Dict[str, _Lane] = {}
        self._reaper: Optional["asyncio.Task"] = None
        self._closed = False
        self.started_at = time.monotonic()

    # -- public ops ---------------------------------------------------------

    async def ping(self) -> Dict[str, object]:
        """Liveness, no lane, no admission."""
        return {"ok": True,
                "uptime_s": round(time.monotonic() - self.started_at, 6)}

    async def compile(self, tenant: str,
                      patterns: Sequence[Union[str, object]],
                      config: Optional[ScanConfig] = None,
                      deadline_s=_DEFAULT) -> Dict[str, object]:
        """Warm the tenant's engine for ``patterns``; returns its
        registry entry (fingerprint, compile time, use counts)."""

        def run(hosted: HostedEngine,
                info: Dict[str, object]) -> Dict[str, object]:
            return hosted.stats()

        return await self._submit(_Request(tenant, "compile", run,
                                           patterns=patterns,
                                           config=config), deadline_s)

    async def scan(self, tenant: str,
                   patterns: Sequence[Union[str, object]], data: bytes,
                   config: Optional[ScanConfig] = None,
                   deadline_s=_DEFAULT) -> ScanReport:
        """One-shot scan on the tenant's (cached) compiled engine."""

        def run(hosted: HostedEngine,
                info: Dict[str, object]) -> ScanReport:
            info["bytes"] = len(data)
            return hosted.matcher.scan(data)

        return await self._submit(_Request(tenant, "scan", run,
                                           patterns=patterns,
                                           config=config,
                                           size=len(data)), deadline_s)

    async def open_session(self, tenant: str,
                           patterns: Sequence[Union[str, object]],
                           config: Optional[ScanConfig] = None,
                           deadline_s=_DEFAULT) -> Dict[str, object]:
        """Open a streaming session; returns its id and engine
        fingerprint."""

        def run(hosted: HostedEngine,
                info: Dict[str, object]) -> Dict[str, object]:
            session = Session(next_session_id(tenant), tenant, hosted)
            with self._session_lock:
                self._check_session_room()
                self._sessions[session.id] = (session, hosted)
                open_count = len(self._sessions)
            self.host.session_opened(hosted)
            _SESSIONS.set(open_count)
            info["session"] = session.id
            return {"session": session.id,
                    "fingerprint": hosted.fingerprint,
                    "guaranteed_span": session.matcher.guaranteed_span}

        return await self._submit(_Request(tenant, "open", run,
                                           patterns=patterns,
                                           config=config), deadline_s)

    async def feed(self, tenant: str, session_id: str, chunk: bytes,
                   deadline_s=_DEFAULT) -> ScanReport:
        """Feed one chunk to an open session; new match ends in global
        stream coordinates.  Feeds of one session are serialized by
        the tenant's lane, so chunk order is preserved."""

        def run(hosted: HostedEngine,
                info: Dict[str, object]) -> ScanReport:
            session = self._session_for(tenant, session_id)
            info["session"] = session_id
            info["bytes"] = len(chunk)
            return session.feed(chunk)

        return await self._submit(_Request(tenant, "feed", run,
                                           session=session_id,
                                           size=len(chunk)), deadline_s)

    async def close_session(self, tenant: str,
                            session_id: str) -> Dict[str, object]:
        """Close a session; returns its final summary."""

        def run(hosted: HostedEngine,
                info: Dict[str, object]) -> Dict[str, object]:
            with self._session_lock:
                entry = self._sessions.get(session_id)
                if entry is None or entry[0].tenant != tenant:
                    raise UnknownSessionError(
                        f"no open session {session_id!r} for tenant "
                        f"{tenant!r}")
                del self._sessions[session_id]
                open_count = len(self._sessions)
            self.host.session_closed(hosted)
            _SESSIONS.set(open_count)
            info["session"] = session_id
            return entry[0].close()

        return await self._submit(_Request(tenant, "close", run,
                                           session=session_id), None)

    def stats(self) -> Dict[str, object]:
        self.telemetry.refresh()
        return {"uptime_s": round(time.monotonic() - self.started_at, 6),
                "sessions": len(self._sessions),
                "tenants": len(self._lanes),
                "breaker": self.breaker.state(),
                "admission": self.admission.stats(),
                "host": self.host.stats(),
                "telemetry": self.telemetry.stats()}

    # -- session eviction ---------------------------------------------------

    def evict_idle_sessions(self) -> int:
        """Close every session idle past ``ServeConfig.session_idle_s``
        (no-op when unset).  Runs opportunistically on session opens
        and periodically from the idle reaper; a feed to an evicted
        session answers ``unknown-session``."""
        idle_s = self.config.session_idle_s
        if idle_s is None:
            return 0
        victims = []
        with self._session_lock:
            for session_id, (session, hosted) in \
                    list(self._sessions.items()):
                if session.idle_s() >= idle_s:
                    victims.append((session, hosted))
                    del self._sessions[session_id]
            open_count = len(self._sessions)
        for session, hosted in victims:
            session.close()
            self.host.session_closed(hosted)
            _EVICTED.inc(reason="idle")
        if victims:
            _SESSIONS.set(open_count)
        return len(victims)

    async def _reap_idle(self) -> None:
        """Periodic idle-session sweep (started lazily with the first
        request once ``session_idle_s`` is configured)."""
        interval = max(self.config.session_idle_s / 4, 0.05)
        while not self._closed:
            await asyncio.sleep(interval)
            self.evict_idle_sessions()

    async def close(self) -> None:
        """Stop every lane and drop open sessions."""
        self._closed = True
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        lanes = list(self._lanes.values())
        self._lanes.clear()
        for lane in lanes:
            lane.queue.put_nowait(_STOP)
        for lane in lanes:
            await lane.task
        with self._session_lock:
            entries = list(self._sessions.values())
            self._sessions.clear()
        for session, hosted in entries:
            session.close()
            self.host.session_closed(hosted)
            _EVICTED.inc(reason="shutdown")
        _SESSIONS.set(0)
        self.telemetry.close()

    # -- internals ----------------------------------------------------------

    def _session_for(self, tenant: str, session_id: str) -> Session:
        with self._session_lock:
            entry = self._sessions.get(session_id)
        if entry is None or entry[0].tenant != tenant:
            raise UnknownSessionError(
                f"no open session {session_id!r} for tenant {tenant!r}")
        return entry[0]

    def _check_session_room(self) -> None:
        """Caller holds the session lock: refuse a session past the
        gateway-wide cap."""
        if len(self._sessions) >= self.config.max_sessions:
            raise SessionLimitError(
                f"session limit {self.config.max_sessions} reached")

    async def _submit(self, request: _Request, deadline_s=_DEFAULT):
        if self._closed:
            raise GatewayError("gateway is closed")
        budget = self.config.deadline_s if deadline_s is _DEFAULT \
            else deadline_s
        try:
            request.ticket = self.admission.try_admit(request.tenant)
        except GatewayError as exc:
            _REQUESTS.inc(op=request.op, outcome=exc.code)
            self.telemetry.record(op=request.op, tenant=request.tenant,
                                  outcome=exc.code, latency_s=0.0,
                                  queue_delay_s=0.0)
            raise
        request.deadline = Deadline.start(budget)
        loop = asyncio.get_running_loop()
        if self._reaper is None and self.config.session_idle_s is not None:
            self._reaper = loop.create_task(self._reap_idle())
        request.future = loop.create_future()
        self._lane(request.tenant).queue.put_nowait(request)
        return await request.future

    def _lane(self, tenant: str) -> _Lane:
        lane = self._lanes.get(tenant)
        if lane is None:
            queue: "asyncio.Queue" = asyncio.Queue()
            task = asyncio.get_running_loop().create_task(
                self._drain(queue))
            lane = _Lane(queue, task)
            self._lanes[tenant] = lane
        return lane

    def _place(self, request: _Request
               ) -> Tuple[Optional[HostedEngine], Optional[EngineKey]]:
        """At dequeue, on the loop thread: the resident engine the
        request runs on (its open session's, or a registry hit, counted
        once) and, for an engine op, the key a miss compiles under.
        Raises nothing: a feed or close of an unknown session, or an
        open past the session cap, gets neither, and
        :meth:`_run_request` refuses it under its span."""
        if request.session is not None:
            with self._session_lock:
                entry = self._sessions.get(request.session)
            return (None if entry is None else entry[1]), None
        if request.op == "open":
            # refuse a session past the cap before a miss compiles
            self.evict_idle_sessions()
            with self._session_lock:
                if len(self._sessions) >= self.config.max_sessions:
                    return None, None
        key = self.host.key(request.tenant, request.patterns,
                            request.config)
        return self.host.lookup(key), key

    def _runs_inline(self, request: _Request,
                     hosted: Optional[HostedEngine],
                     key: Optional[EngineKey]) -> bool:
        """The placement rule (module docstring): a refusal, or a
        short compiled request on a resident engine while nothing else
        runs off the loop."""
        if hosted is None:
            return key is None
        return (self._off_loop == 0
                and hosted.matcher.config.backend == "compiled"
                and request.size < INLINE_LIMIT_BYTES)

    def _run_request(self, request: _Request,
                     hosted: Optional[HostedEngine],
                     key: Optional[EngineKey], info: Dict[str, object]):
        """Execute one request (loop thread or offload thread) under a
        ``serve.request`` span, recording wall/CPU seconds and the
        trace/span ids the access log joins on.  A miss (a ``key`` but
        no ``hosted``) compiles its engine here, which only an offload
        thread does; a request with neither is refused here."""
        tracer = obs.current_tracer()
        if tracer is not None:
            info["trace"] = tracer.trace_id
        begin_wall = time.perf_counter()
        begin_cpu = time.thread_time()
        try:
            with obs.span("serve.request", category="serve",
                          op=request.op, tenant=request.tenant,
                          offloaded=info["offloaded"]) as request_span:
                if request_span.is_recording:
                    info["span"] = request_span.span_id
                if hosted is None:
                    hosted = self._obtain(request, key)
                info["fingerprint"] = hosted.fingerprint
                return request.run(hosted, info)
        finally:
            info["wall_s"] = round(time.perf_counter() - begin_wall, 6)
            info["cpu_s"] = round(time.thread_time() - begin_cpu, 6)

    def _obtain(self, request: _Request,
                key: Optional[EngineKey]) -> HostedEngine:
        """The engine placement did not find.  A miss compiles it; a
        request without a key was refused at placement, and raises its
        refusal here."""
        if key is not None:
            return self.host.obtain(key)
        if request.session is not None:
            return self._session_for(request.tenant,
                                     request.session).hosted
        raise SessionLimitError(
            f"session limit {self.config.max_sessions} reached")

    async def _drain(self, queue: "asyncio.Queue") -> None:
        """One tenant's worker: pop, account, place, execute, resolve."""
        loop = asyncio.get_running_loop()
        while True:
            request = await queue.get()
            if request is _STOP:
                return
            ticket, future = request.ticket, request.future
            self.admission.started(ticket)
            if future.cancelled():
                continue
            info: Dict[str, object] = {"offloaded": False}
            outcome = "ok"
            # The breaker refuses nothing; asking it lets an open
            # circuit go half-open once its cooldown has passed, so
            # this request's outcome closes or re-opens it.
            self.breaker.allow()
            try:
                deadline = request.deadline
                if deadline is not None and deadline.expired():
                    raise DeadlineExceededError(
                        f"deadline expired after "
                        f"{ticket.queue_delay_s:.3f}s in queue")
                hosted, key = self._place(request)
                if self._runs_inline(request, hosted, key):
                    result = self._run_request(request, hosted, key, info)
                else:
                    info["offloaded"] = True
                    _OFFLOADED.inc()
                    self._off_loop += 1
                    try:
                        result = await loop.run_in_executor(
                            offload_pool(OFFLOAD_WORKERS),
                            self._run_request, request, hosted, key, info)
                    finally:
                        self._off_loop -= 1
            except GatewayError as exc:
                outcome = exc.code
                _REQUESTS.inc(op=request.op, outcome=exc.code)
                if exc.code == DEADLINE:
                    self.breaker.record_failure()
                future.set_exception(exc)
            except Exception as exc:
                outcome = "internal"
                _REQUESTS.inc(op=request.op, outcome="internal")
                self.breaker.record_failure()
                future.set_exception(exc)
            else:
                _REQUESTS.inc(op=request.op, outcome="ok")
                self.breaker.record_success()
                future.set_result(result)
            finally:
                latency = time.monotonic() - ticket.enqueued_at
                _REQUEST_SECONDS.observe(latency)
                self.telemetry.record(
                    op=request.op, tenant=ticket.tenant, outcome=outcome,
                    latency_s=latency,
                    queue_delay_s=max(ticket.queue_delay_s, 0.0),
                    info=info)
                # yield so a same-loop client can observe the result
                # between back-to-back jobs
                await asyncio.sleep(0)
