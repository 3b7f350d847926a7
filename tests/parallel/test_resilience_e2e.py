"""End-to-end resilience policies on the worker pool.

Every scenario runs :meth:`WorkerPool.map_shards` over a module-level
task (a stand-in grid cell with the ``worker.cell`` chaos site), or a
real :meth:`Harness.run_all` grid, and asserts the pool's invariant:
whatever the policy does (retry, abort, deadline-degrade,
breaker-inline), the results equal the serial ones.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.pool import WorkerPool, shutdown
from repro.resilience import chaos
from repro.resilience.breaker import CLOSED, OPEN, CircuitBreaker
from repro.resilience.chaos import ChaosPlan, ChaosRule
from repro.resilience.policy import ScanAbortedError

from .helpers import (GRID_APPS, GRID_ENGINES, PAYLOADS, cell, expected,
                      harness, pool_config)


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


def dispatch(**extra):
    """``(results, faults, pool)`` of one dispatch of every payload."""
    pool = WorkerPool(pool_config(**extra))
    results, faults = pool.map_shards(cell, PAYLOADS)
    return results, faults, pool


# -- on_fault="fail" ---------------------------------------------------------


def test_fail_policy_aborts_with_the_fault():
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    with pytest.raises(ScanAbortedError) as excinfo:
        dispatch(on_fault="fail")
    fault = excinfo.value.fault
    assert fault.kind == "error"
    assert fault.fallback == "abort"
    assert "InjectedFault" in fault.error
    assert fault.traceback            # cause captured for post-mortems
    # The pool is not poisoned: with chaos disarmed the same config
    # dispatches clean.
    chaos.reset()
    results, faults, _ = dispatch(on_fault="fail")
    assert (results, faults) == (expected(), [])


def test_fail_policy_aborts_a_process_pool(monkeypatch):
    """A grid on process workers aborts on the first faulted cell."""
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.*:exception:1.0")
    with pytest.raises(ScanAbortedError) as excinfo:
        harness().run_all(GRID_APPS, GRID_ENGINES, config=pool_config(
            executor="process", on_fault="fail"))
    assert excinfo.value.fault.fallback == "abort"


# -- on_fault="retry" --------------------------------------------------------


def test_retry_recovers_transient_fault_without_serial_fallback():
    # max_count=1: exactly one injected fault, then the fault source
    # dries up — the definition of transient.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception", max_count=1),)))
    results, faults, _ = dispatch(on_fault="retry", max_retries=1,
                                  retry_backoff=0.01)
    assert results == expected()
    fault, = faults
    assert fault.kind == "error"
    assert fault.fallback == "retry"   # recovered by the retry, NOT inline
    assert fault.retries == 1


def test_retry_exhaustion_degrades_inline():
    # No max_count: every worker attempt faults, so retries burn out
    # and the shard must still recover through the suppressed inline
    # path.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    results, faults, _ = dispatch(on_fault="retry", max_retries=2,
                                  retry_backoff=0.01)
    assert results == expected()
    assert faults
    for fault in faults:
        assert fault.fallback == "serial"
        assert fault.retries == 2


def test_retry_recovers_unstartable_pool():
    # The acquisition itself faults once (transient: max_count=1); the
    # per-shard retries build their own fresh executors, which the
    # spent plan no longer touches — every shard recovers via retry.
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="pool.acquire", kind="pool", max_count=1),)))
    results, faults, _ = dispatch(executor="process", on_fault="retry",
                                  max_retries=1, retry_backoff=0.01)
    assert results == expected()
    assert len(faults) == len(PAYLOADS)
    assert {f.kind for f in faults} == {"pool"}
    assert {f.fallback for f in faults} == {"retry"}


# -- deadlines ---------------------------------------------------------------


def test_deadline_bounds_the_scan_and_degrades(monkeypatch):
    monkeypatch.setenv(chaos.SLEEP_ENV, "2.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    started = time.monotonic()
    results, faults, _ = dispatch(deadline_s=0.4)
    elapsed = time.monotonic() - started
    # deadline + inline recovery of the stragglers, nowhere near the
    # 2 s the workers are sleeping
    assert elapsed < 1.8
    assert results == expected()
    assert faults
    assert {f.kind for f in faults} == {"deadline"}
    assert all(f.fallback == "serial" for f in faults)
    assert all(f.retries == 0 for f in faults)


def test_deadline_faults_are_never_retried(monkeypatch):
    monkeypatch.setenv(chaos.SLEEP_ENV, "2.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout"),)))
    started = time.monotonic()
    _, faults, _ = dispatch(deadline_s=0.3, on_fault="retry",
                            max_retries=3, retry_backoff=0.01)
    elapsed = time.monotonic() - started
    assert elapsed < 1.8              # no 3x2s retry ladder happened
    assert faults
    assert all(f.retries == 0 for f in faults)


def test_timeout_vs_deadline_kinds(monkeypatch):
    """A per-shard worker_timeout that fires with deadline budget left
    is a ``timeout`` fault, not a ``deadline`` one."""
    monkeypatch.setenv(chaos.SLEEP_ENV, "1.0")
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="timeout", max_count=1),)))
    results, faults, _ = dispatch(worker_timeout=0.2, deadline_s=30.0)
    assert results == expected()
    assert {f.kind for f in faults} == {"timeout"}


# -- the pool circuit breaker ------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_goes_inline_and_recovers(monkeypatch):
    clock = FakeClock()
    breaker = CircuitBreaker(name="pool-e2e", threshold=2,
                             cooldown_s=10.0, clock=clock)
    monkeypatch.setattr(pool_mod, "_BREAKER", breaker)
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="pool.acquire", kind="pool"),)))

    # Two consecutive unstartable-pool dispatches trip the breaker;
    # results still come back correct via inline degrade.
    for _ in range(2):
        results, faults, _ = dispatch()
        assert results == expected()
        assert {f.kind for f in faults} == {"pool"}
    assert breaker.state() == OPEN

    # Circuit open: dispatch never touches pools (the still-armed
    # chaos at pool.acquire would fault it), reports no faults, and
    # flags the pool state.
    results, faults, pool = dispatch()
    assert results == expected()
    assert faults == []
    assert pool.last_pool_state == "breaker-open"

    # Cooldown elapses, the environment is fixed: the half-open probe
    # dispatch succeeds and closes the circuit.
    chaos.reset()
    clock.now += 11.0
    results, faults, _ = dispatch()
    assert results == expected()
    assert faults == []
    assert breaker.state() == CLOSED


def test_shard_level_faults_do_not_trip_the_breaker(monkeypatch):
    breaker = CircuitBreaker(name="pool-e2e-2", threshold=1,
                             cooldown_s=10.0)
    monkeypatch.setattr(pool_mod, "_BREAKER", breaker)
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    _, faults, _ = dispatch()
    assert faults
    assert {f.kind for f in faults} == {"error"}
    assert breaker.state() == CLOSED   # worker bugs are not pool health


# -- fault report surface ----------------------------------------------------


def test_fault_tracebacks_surface_in_the_report():
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.*", kind="exception"),)))
    _, faults, _ = dispatch()
    assert faults
    for fault in faults:
        payload = fault.to_dict()
        assert payload["traceback"]
        assert "InjectedFault" in payload["traceback"]
        assert f"shard={fault.shard}" in fault.summary()


def teardown_module(module):
    shutdown()
