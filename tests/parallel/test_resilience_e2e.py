"""End-to-end resilience policies on the sharded dispatcher.

Every scenario asserts the tentpole invariant: whatever the policy
does (retry, abort, deadline-degrade, breaker-inline), match results
stay bit-identical to serial.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.config import ScanConfig
from repro.parallel.pool import shutdown
from repro.parallel.scan import ParallelScanner
from repro.resilience import chaos
from repro.resilience.breaker import CLOSED, OPEN, CircuitBreaker
from repro.resilience.chaos import ChaosPlan, ChaosRule
from repro.resilience.policy import ScanAbortedError

from .helpers import STREAMS, TINY, build, process_config, sig


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


def thread_config(**extra):
    defaults = dict(geometry=TINY, loop_fallback=True, workers=2,
                    executor="thread", min_parallel_bytes=0,
                    backend="compiled")
    defaults.update(extra)
    return ScanConfig(**defaults)


@pytest.fixture(scope="module")
def serial_streams():
    return [sig(r) for r in build().match_many(STREAMS)]


# -- on_fault="fail" ---------------------------------------------------------


def test_fail_policy_aborts_with_the_fault(serial_streams):
    engine = build()
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    scanner = ParallelScanner(engine, thread_config(on_fault="fail"))
    with pytest.raises(ScanAbortedError) as excinfo:
        scanner.match_many(STREAMS)
    fault = excinfo.value.fault
    assert fault.kind == "error"
    assert fault.fallback == "abort"
    assert "InjectedFault" in fault.error
    assert fault.traceback            # cause captured for post-mortems
    # The engine is not poisoned: with chaos disarmed the same scanner
    # config scans clean.
    chaos.reset()
    results = ParallelScanner(
        engine, thread_config(on_fault="fail")).match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams


def test_fail_policy_aborts_a_process_pool(monkeypatch):
    engine = build()
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.*:exception:1.0")
    scanner = ParallelScanner(engine, process_config(on_fault="fail"))
    with pytest.raises(ScanAbortedError) as excinfo:
        scanner.match_many(STREAMS)
    assert excinfo.value.fault.fallback == "abort"


# -- on_fault="retry" --------------------------------------------------------


def test_retry_recovers_transient_fault_without_serial_fallback(
        serial_streams):
    engine = build()
    # max_count=1: exactly one injected fault, then the fault source
    # dries up — the definition of transient.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception", max_count=1),)))
    scanner = ParallelScanner(engine, thread_config(
        on_fault="retry", max_retries=1, retry_backoff=0.01))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert len(scanner.faults) == 1
    fault, = scanner.faults
    assert fault.kind == "error"
    assert fault.fallback == "retry"   # recovered by the retry, NOT inline
    assert fault.retries == 1


def test_retry_exhaustion_degrades_inline(serial_streams):
    engine = build()
    # No max_count: every worker attempt faults, so retries burn out
    # and the shard must still recover through the suppressed inline
    # path.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    scanner = ParallelScanner(engine, thread_config(
        on_fault="retry", max_retries=2, retry_backoff=0.01))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    for fault in scanner.faults:
        assert fault.fallback == "serial"
        assert fault.retries == 2


def test_retry_recovers_unstartable_pool(serial_streams):
    engine = build()
    # The acquisition itself faults once (transient: max_count=1); the
    # per-shard retries build their own fresh executors, which the
    # spent plan no longer touches — every shard recovers via retry.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="pool.acquire", kind="pool", max_count=1),)))
    scanner = ParallelScanner(engine, process_config(
        on_fault="retry", max_retries=1, retry_backoff=0.01))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert {f.kind for f in scanner.faults} == {"pool"}
    assert {f.fallback for f in scanner.faults} == {"retry"}


# -- deadlines ---------------------------------------------------------------


def test_deadline_bounds_the_scan_and_degrades(monkeypatch,
                                               serial_streams):
    engine = build()
    monkeypatch.setenv(chaos.SLEEP_ENV, "2.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    scanner = ParallelScanner(engine, thread_config(deadline_s=0.4))
    started = time.monotonic()
    results = scanner.match_many(STREAMS)
    elapsed = time.monotonic() - started
    # deadline + inline recovery of the stragglers, nowhere near the
    # 2 s the workers are sleeping
    assert elapsed < 1.8
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert {f.kind for f in scanner.faults} == {"deadline"}
    assert all(f.fallback == "serial" for f in scanner.faults)
    assert all(f.retries == 0 for f in scanner.faults)


def test_deadline_faults_are_never_retried(monkeypatch):
    engine = build()
    monkeypatch.setenv(chaos.SLEEP_ENV, "2.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    scanner = ParallelScanner(engine, thread_config(
        deadline_s=0.3, on_fault="retry", max_retries=3,
        retry_backoff=0.01))
    started = time.monotonic()
    scanner.match_many(STREAMS)
    elapsed = time.monotonic() - started
    assert elapsed < 1.8              # no 3x2s retry ladder happened
    assert all(f.retries == 0 for f in scanner.faults)


def test_timeout_vs_deadline_kinds(monkeypatch, serial_streams):
    """A per-shard worker_timeout that fires with deadline budget left
    is a ``timeout`` fault, not a ``deadline`` one."""
    engine = build()
    monkeypatch.setenv(chaos.SLEEP_ENV, "1.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout", max_count=1),)))
    scanner = ParallelScanner(engine, thread_config(
        worker_timeout=0.2, deadline_s=30.0))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert {f.kind for f in scanner.faults} == {"timeout"}


# -- the pool circuit breaker ------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_goes_inline_and_recovers(monkeypatch,
                                                serial_streams):
    clock = FakeClock()
    breaker = CircuitBreaker(name="pool-e2e", threshold=2,
                             cooldown_s=10.0, clock=clock)
    monkeypatch.setattr(pool_mod, "_BREAKER", breaker)
    engine = build()
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="pool.acquire", kind="pool"),)))
    config = thread_config()

    # Two consecutive unstartable-pool dispatches trip the breaker;
    # results still come back correct via inline degrade.
    for _ in range(2):
        scanner = ParallelScanner(engine, config)
        results = scanner.match_many(STREAMS)
        assert [sig(r) for r in results] == serial_streams
        assert {f.kind for f in scanner.faults} == {"pool"}
    assert breaker.state() == OPEN

    # Circuit open: dispatch never touches pools (the still-armed
    # chaos at pool.acquire would fault it), reports no faults, and
    # flags the pool state.
    scanner = ParallelScanner(engine, config)
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults == []
    assert scanner.pool.last_pool_state == "breaker-open"

    # Cooldown elapses, the environment is fixed: the half-open probe
    # dispatch succeeds and closes the circuit.
    chaos.reset()
    clock.now += 11.0
    scanner = ParallelScanner(engine, config)
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults == []
    assert breaker.state() == CLOSED


def test_shard_level_faults_do_not_trip_the_breaker(monkeypatch):
    breaker = CircuitBreaker(name="pool-e2e-2", threshold=1,
                             cooldown_s=10.0)
    monkeypatch.setattr(pool_mod, "_BREAKER", breaker)
    engine = build()
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    scanner = ParallelScanner(engine, thread_config())
    scanner.match_many(STREAMS)
    assert scanner.faults
    assert {f.kind for f in scanner.faults} == {"error"}
    assert breaker.state() == CLOSED   # worker bugs are not pool health


# -- fault report surface ----------------------------------------------------


def test_fault_tracebacks_surface_in_the_report():
    engine = build()
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    scanner = ParallelScanner(engine, thread_config())
    scanner.match_many(STREAMS)
    assert scanner.faults
    for fault in scanner.faults:
        payload = fault.to_dict()
        assert payload["traceback"]
        assert "InjectedFault" in payload["traceback"]
        assert f"shard={fault.shard}" in fault.summary()


def teardown_module(module):
    shutdown()
