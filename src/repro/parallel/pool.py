"""Worker pools with graceful degradation — persistent and warm.

:class:`WorkerPool` is the only executor abstraction: a process pool
or a thread pool, with inline execution in the parent as the universal
fallback.  It runs the cells of a
:meth:`~repro.perf.harness.Harness.run_all` grid (scans themselves
always run in the calling thread).  The contract the grid relies on:

* results come back **in submission order** — merging stays trivial;
* a worker crash, a timeout, or a broken/unstartable pool never loses
  a shard: the shard re-runs **in-process through the serial
  function**, and the incident is recorded as a
  :class:`~repro.parallel.report.ShardFault`;
* ``workers=1`` bypasses pools entirely, so the serial path stays the
  single source of truth for results.

Executors are no longer built per dispatch.  A module-level registry
keeps one **persistent pool** per ``(executor, workers, start_method)``
key, reused across dispatches: a fresh ``ProcessPoolExecutor`` per
dispatch costs a worker start-up every time.
Process pools are created with an initializer that pre-attaches the
shared on-disk kernel cache, so even a cold pool's workers start with
the parent's compiled artefacts (and, under ``fork``, its entire
in-memory kernel cache).  The registry is fork-aware — a pool created
before ``os.fork()`` is silently abandoned in the child, never joined —
and torn down via ``atexit`` or an explicit
:func:`repro.parallel.shutdown`.  A pool poisoned by a timeout or a
crash is discarded (the next dispatch pays one cold start) rather than
reused; warm/cold acquisitions and discards are counted in
:mod:`repro.obs`.
"""

from __future__ import annotations

import atexit
import concurrent.futures as futures
import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.propagate import run_traced, unwrap
from ..resilience import chaos
from ..resilience.breaker import CircuitBreaker
from ..resilience.deadline import Deadline
from ..resilience.policy import RetryPolicy, ScanAbortedError
from .config import ScanConfig
from .report import ShardFault, format_fault_traceback
from . import worker as worker_mod

_REG = obs.registry()
_SHARD_FAULTS = _REG.counter(
    "repro_shard_faults_total",
    "Worker faults the pool degraded around, by kind")
_POOL_REUSE = _REG.counter(
    "repro_parallel_pool_reuse_total",
    "Executor acquisitions by the worker pool: state=warm "
    "reused a persistent pool, state=cold built one")
_POOL_DISCARDS = _REG.counter(
    "repro_parallel_pool_discards_total",
    "Persistent pools discarded, by reason "
    "(timeout, broken, fork, shutdown)")
_POOLS_ACTIVE = _REG.gauge(
    "repro_parallel_pools_active",
    "Persistent worker pools currently alive in the registry")
_RETRY_ATTEMPTS = _REG.counter(
    "repro_retry_attempts_total",
    "Per-shard retry attempts under on_fault='retry', by outcome")
_DEADLINE_EXCEEDED = _REG.counter(
    "repro_deadline_exceeded_total",
    "Shard waits cut short because the dispatch deadline expired")
_BREAKER_INLINE = _REG.counter(
    "repro_breaker_inline_total",
    "Dispatches forced inline because the pool circuit was open")

#: The circuit breaker guarding the persistent-pool registry: K
#: consecutive *pool-level* faults (broken executor, hung worker, an
#: executor that would not start) open it, and dispatch goes inline
#: for a cooldown instead of paying a cold-start storm against a
#: broken start method.  Shard-level faults (a worker exception) never
#: trip it.  Tests monkeypatch the module attribute.
_BREAKER = CircuitBreaker(
    name="pool",
    threshold=int(os.environ.get("REPRO_BREAKER_THRESHOLD", "3")),
    cooldown_s=float(os.environ.get("REPRO_BREAKER_COOLDOWN", "30")))

#: jitter source for retry backoff (never affects results)
_RETRY_RNG = random.Random()

#: sentinel: every retry attempt faulted (or the deadline ran out)
_RETRY_FAILED = object()


def breaker() -> CircuitBreaker:
    """The pool registry's circuit breaker (one per process)."""
    return _BREAKER

#: (executor kind, workers, start method or None) → live pool
PoolKey = Tuple[str, int, Optional[str]]


class _PoolEntry:
    __slots__ = ("executor", "pid", "dispatches")

    def __init__(self, executor, pid: int):
        self.executor = executor
        self.pid = pid
        self.dispatches = 0


_POOLS: Dict[PoolKey, _PoolEntry] = {}
_POOLS_LOCK = threading.RLock()


def _acquire_persistent(key: PoolKey, build: Callable
                        ) -> Tuple[object, str]:
    """The registry's get-or-create: ``(executor, "warm"|"cold")``.

    The executor is built outside the lock — worker start-up must
    never fork/spawn while registry state is held.
    """
    with _POOLS_LOCK:
        entry = _POOLS.get(key)
        if entry is not None and entry.pid != os.getpid():
            # Fork-awareness: the child inherited the registry dict
            # but not the pool's worker processes/threads.  Abandon
            # the entry (never join another process's children).
            _POOLS.pop(key, None)
            _POOLS_ACTIVE.set(len(_POOLS))
            _POOL_DISCARDS.inc(reason="fork")
            entry = None
        if entry is not None:
            entry.dispatches += 1
            _POOL_REUSE.inc(state="warm")
            return entry.executor, "warm"
    executor = build()
    with _POOLS_LOCK:
        entry = _POOLS.get(key)
        if entry is not None and entry.pid == os.getpid():
            # Lost a (rare) build race; keep the registered pool.
            entry.dispatches += 1
            _POOL_REUSE.inc(state="warm")
            racing = executor
        else:
            new_entry = _PoolEntry(executor, os.getpid())
            new_entry.dispatches = 1
            _POOLS[key] = new_entry
            _POOLS_ACTIVE.set(len(_POOLS))
            _POOL_REUSE.inc(state="cold")
            return executor, "cold"
    racing.shutdown(wait=False, cancel_futures=True)
    return entry.executor, "warm"


def _discard(executor, reason: str) -> None:
    """Drop ``executor`` from the registry and stop it without
    waiting — a pool that timed out or broke must not poison the next
    dispatch, and a hung worker must not block this one."""
    with _POOLS_LOCK:
        for key, entry in list(_POOLS.items()):
            if entry.executor is executor:
                _POOLS.pop(key, None)
        _POOLS_ACTIVE.set(len(_POOLS))
    _POOL_DISCARDS.inc(reason=reason)
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def shutdown(wait: bool = True) -> None:
    """Tear down every persistent pool.  Long-lived processes (servers,
    notebooks) should call :func:`repro.parallel.shutdown` when done
    scanning; short-lived ones are covered by ``atexit``."""
    with _POOLS_LOCK:
        entries = [entry for entry in _POOLS.values()
                   if entry.pid == os.getpid()]
        count = len(_POOLS)
        _POOLS.clear()
        _POOLS_ACTIVE.set(0)
    if count:
        _POOL_DISCARDS.inc(count, reason="shutdown")
    for entry in entries:
        try:
            entry.executor.shutdown(wait=wait, cancel_futures=True)
        except Exception:
            pass


#: registry key kind for the serve gateway's loop-offload thread pool.
#: Its own key — never shared with a grid's thread executor — so a
#: saturated offload pool can never deadlock waiting on its own
#: threads.
OFFLOAD_KIND = "serve-offload"


def offload_pool(workers: int) -> futures.ThreadPoolExecutor:
    """The persistent gateway-offload thread pool (get-or-create).

    Lives in the same registry as the grid pools — fork-aware,
    covered by :func:`shutdown` and atexit — but under its own key, and
    without touching the warm/cold dispatch counters the parallel
    speedup guard asserts on."""
    key: PoolKey = (OFFLOAD_KIND, workers, None)
    with _POOLS_LOCK:
        entry = _POOLS.get(key)
        if entry is not None and entry.pid != os.getpid():
            _POOLS.pop(key, None)
            _POOL_DISCARDS.inc(reason="fork")
            entry = None
        if entry is None:
            # Thread pools spawn lazily: building one under the lock
            # forks/spawns nothing.
            executor = futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve")
            entry = _PoolEntry(executor, os.getpid())
            _POOLS[key] = entry
            _POOLS_ACTIVE.set(len(_POOLS))
        entry.dispatches += 1
        return entry.executor


def pool_stats() -> Dict[str, float]:
    """Warm/cold acquisition counters plus live-pool count — what the
    bench records per row."""
    return {
        "warm": _POOL_REUSE.value(state="warm"),
        "cold": _POOL_REUSE.value(state="cold"),
        "active": _POOLS_ACTIVE.value() or 0,
    }


atexit.register(shutdown, wait=False)


class WorkerPool:
    """Runs one payload list through a pool, falling back per shard."""

    def __init__(self, config: ScanConfig,
                 cache_dir: Optional[str] = None):
        self.config = config
        self.workers = max(1, config.workers)
        self.executor = config.executor
        self.timeout = config.worker_timeout
        #: resolved kernel-cache directory handed to the process-pool
        #: initializer, so warm workers pre-attach it at spawn
        self.cache_dir = cache_dir if cache_dir is not None \
            else config.cache_dir
        #: how the last dispatch got its executor:
        #: "inline" | "warm" | "cold"
        self.last_pool_state = "inline"

    # -- the one entry point ----------------------------------------------

    def map_shards(self, fn: Callable, payloads: Sequence,
                   serial_fn: Optional[Callable] = None,
                   deadline: Optional[Deadline] = None
                   ) -> Tuple[List, List[ShardFault]]:
        """``[fn(p) for p in payloads]`` through the pool.

        Returns ``(results, faults)`` with results in payload order.
        ``serial_fn`` (default ``fn``) recovers any shard whose worker
        faulted; a fault in the serial fallback itself propagates —
        at that point the failure is the workload's, not the pool's.

        Fault handling follows ``config.on_fault``: ``"degrade"``
        recovers inline (the historical behaviour), ``"retry"`` first
        retries the shard on a fresh pool with backoff
        (:class:`RetryPolicy`), ``"fail"`` raises
        :class:`ScanAbortedError` on the first fault.  ``deadline``
        (or ``config.deadline_s``) caps every blocking wait of the
        dispatch with one shared monotonic budget; expired shards are
        reported as ``ShardFault(kind="deadline")`` and recovered
        inline, never retried.
        """
        recover = serial_fn if serial_fn is not None else fn
        tracer = obs.current_tracer()
        ctx = tracer.current_context() if tracer is not None else None
        self.last_pool_state = "inline"
        config = self.config
        if deadline is None:
            deadline = Deadline.start(config.deadline_s)
        retry = RetryPolicy.from_config(config)

        def run_inline(index: int, fallback: bool = False):
            """A shard run in this process, under its own span.  Chaos
            is suppressed for the recovery thread: inline degrade must
            stay the always-safe path even mid-injection (an "exit"
            fault re-raised here would kill the parent)."""
            with obs.span("shard", category="scan", shard=index,
                          inline=True, fallback=fallback):
                with chaos.suppress():
                    return recover(payloads[index])

        if self.workers == 1 or len(payloads) <= 1:
            return [run_inline(i) for i in range(len(payloads))], []

        if not _BREAKER.allow():
            # Circuit open: the registry recently produced K broken
            # pools in a row.  Run inline for the cooldown instead of
            # paying a cold-start storm; a half-open probe dispatch
            # will test the pool path again once the cooldown elapses.
            self.last_pool_state = "breaker-open"
            _BREAKER_INLINE.inc()
            return [run_inline(i) for i in range(len(payloads))], []

        results: List = [None] * len(payloads)
        faults: List[ShardFault] = []

        def settle(index: int, kind: str, error: str,
                   tb: str = "", retryable: bool = True) -> None:
            """One faulted shard, resolved per ``config.on_fault``:
            abort, retry on a fresh pool, or degrade inline."""
            if config.on_fault == "fail":
                fault = ShardFault(shard=index, kind=kind, error=error,
                                   traceback=tb, fallback="abort")
                faults.append(fault)
                self._count_faults([fault])
                raise ScanAbortedError(fault)
            retries_used = 0
            if (config.on_fault == "retry" and retryable
                    and retry.max_retries > 0
                    and not (deadline is not None
                             and deadline.expired())):
                attempts, value = self._retry_shard(
                    fn, payloads[index], index, tracer, ctx, retry,
                    deadline)
                if value is not _RETRY_FAILED:
                    faults.append(ShardFault(
                        shard=index, kind=kind, error=error,
                        traceback=tb, fallback="retry",
                        retries=attempts))
                    results[index] = value
                    return
                retries_used = attempts
            faults.append(ShardFault(shard=index, kind=kind,
                                     error=error, traceback=tb,
                                     retries=retries_used))
            results[index] = run_inline(index, fallback=True)

        try:
            executor, persistent = self._acquire(len(payloads))
        except Exception as exc:  # pool could not start at all
            _BREAKER.record_failure()
            error, tb = repr(exc), format_fault_traceback(exc)
            for i in range(len(payloads)):
                settle(i, "pool", error, tb)
            self._count_faults(faults)
            return results, faults

        hung = False
        broken = False
        try:
            try:
                # With a tracer recording, shards run through the span
                # marshaller: same-process workers record directly,
                # process workers ship their spans back for adoption.
                pending = []
                for index, payload in enumerate(payloads):
                    if tracer is not None:
                        pending.append(executor.submit(
                            run_traced, fn, ctx, index, payload))
                    else:
                        pending.append(executor.submit(fn, payload))
            except Exception as exc:
                broken = True
                error, tb = repr(exc), format_fault_traceback(exc)
                for i in range(len(payloads)):
                    settle(i, "pool", error, tb)
                self._count_faults(faults)
                return results, faults
            pool_broken = False
            for index, future in enumerate(pending):
                if pool_broken:
                    future.cancel()
                    settle(index, "pool",
                           "pool broken by an earlier shard")
                    continue
                budget = self.timeout if deadline is None \
                    else deadline.wait_budget(self.timeout)
                try:
                    results[index] = unwrap(
                        future.result(timeout=budget), tracer)
                except futures.TimeoutError:
                    future.cancel()
                    hung = True
                    if deadline is not None and deadline.expired():
                        _DEADLINE_EXCEEDED.inc()
                        settle(index, "deadline",
                               f"scan deadline of "
                               f"{deadline.budget_s}s exceeded",
                               retryable=False)
                    else:
                        settle(index, "timeout",
                               f"worker exceeded {self.timeout}s")
                except futures.BrokenExecutor as exc:
                    pool_broken = True
                    broken = True
                    settle(index, "pool", repr(exc),
                           format_fault_traceback(exc))
                except Exception as exc:
                    settle(index, "error", repr(exc),
                           format_fault_traceback(exc))
        finally:
            # Pool-level health feeds the breaker; shard-level faults
            # (a worker exception) do not — those say nothing about
            # whether the *pool machinery* works.
            if hung or broken:
                _BREAKER.record_failure()
            else:
                _BREAKER.record_success()
            if persistent:
                # A clean persistent pool outlives the dispatch (the
                # whole point); one that hung or broke is discarded so
                # the next dispatch starts from a clean cold pool.
                if hung:
                    _discard(executor, "timeout")
                elif broken:
                    _discard(executor, "broken")
            else:
                # Don't block on a worker we already timed out.
                executor.shutdown(wait=not hung, cancel_futures=hung)
        self._count_faults(faults)
        return results, faults

    def _retry_shard(self, fn: Callable, payload, index: int,
                     tracer, ctx, retry: RetryPolicy,
                     deadline: Optional[Deadline]
                     ) -> Tuple[int, object]:
        """Bounded retries of one shard, each on a **fresh**
        single-worker executor (the pool that faulted may be poisoned;
        the registry is left alone so a healthy warm pool survives).
        Returns ``(attempts_used, value)`` — ``value`` is
        :data:`_RETRY_FAILED` when every attempt faulted or the
        deadline ran out."""
        for attempt in range(1, retry.max_retries + 1):
            delay = retry.delay_s(attempt, _RETRY_RNG)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    return attempt - 1, _RETRY_FAILED
                delay = min(delay, remaining)
            if delay > 0:
                time.sleep(delay)
            executor = None
            with obs.span("shard.retry", category="scan", shard=index,
                          attempt=attempt):
                try:
                    executor = self._make_executor(1)
                    if tracer is not None:
                        future = executor.submit(
                            run_traced, fn, ctx, index, payload)
                    else:
                        future = executor.submit(fn, payload)
                    budget = self.timeout if deadline is None \
                        else deadline.wait_budget(self.timeout)
                    value = unwrap(future.result(timeout=budget),
                                   tracer)
                    _RETRY_ATTEMPTS.inc(outcome="success")
                    return attempt, value
                except Exception:
                    _RETRY_ATTEMPTS.inc(outcome="fault")
                finally:
                    if executor is not None:
                        executor.shutdown(wait=False,
                                          cancel_futures=True)
        return retry.max_retries, _RETRY_FAILED

    @staticmethod
    def _count_faults(faults: Sequence[ShardFault]) -> None:
        for fault in faults:
            _SHARD_FAULTS.inc(kind=fault.kind)

    # -- executor construction --------------------------------------------

    def _pool_key(self) -> PoolKey:
        method = self.config.resolved_start_method() \
            if self.executor == "process" else None
        return (self.executor, self.workers, method)

    def _acquire(self, payload_count: int):
        """``(executor, persistent?)`` for one dispatch.  Active chaos
        (an installed ChaosPlan or ``$REPRO_CHAOS``) bypasses the warm
        registry: env-based injection only reaches workers forked
        *after* the mutation, and injected faults would constantly
        poison (and discard) warm pools anyway."""
        chaos.maybe_inject("pool.acquire")
        if chaos.armed():
            executor = self._make_executor(min(self.workers,
                                               payload_count))
            self.last_pool_state = "cold"
            _POOL_REUSE.inc(state="cold")
            return executor, False
        executor, state = _acquire_persistent(
            self._pool_key(), lambda: self._make_executor(self.workers))
        self.last_pool_state = state
        return executor, True

    def _make_executor(self, max_workers: int):
        if self.executor == "thread":
            return futures.ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix="repro-shard")
        import multiprocessing

        ctx = multiprocessing.get_context(
            self.config.resolved_start_method())
        return futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=ctx,
            initializer=worker_mod.init_worker,
            initargs=(self.cache_dir,))
