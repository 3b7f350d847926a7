"""Graceful degradation: worker faults never lose or change results.

Unit level: :class:`WorkerPool` recovers every faulted shard through
the serial function and records a :class:`ShardFault` per incident.
End to end: with ``REPRO_CHAOS="worker.*:exception"`` armed, every
grid cell's worker raises before running it, yet
:meth:`Harness.run_all` still returns rows identical to the serial
grid — only ``last_scan_faults`` tells the difference.  Scans never
reach a worker, so the same chaos cannot touch them.
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.parallel.pool import WorkerPool, shutdown
from repro.resilience import CHAOS_ENV, chaos

from . import helpers
from .helpers import GRID_APPS, GRID_ENGINES, grid, pool_config, rows

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]", "foo"]
DATA = b"abcbcd cat 42 foo dog abcd " * 30
STREAMS = [DATA[:50], DATA[:120], DATA[:50], DATA[:200]]


def thread_pool(**overrides) -> WorkerPool:
    defaults = dict(workers=2, executor="thread")
    defaults.update(overrides)
    return WorkerPool(ScanConfig(**defaults))


# -- WorkerPool units --------------------------------------------------------


def test_serial_bypass_runs_in_process():
    pool = thread_pool(workers=1)
    results, faults = pool.map_shards(lambda p: p * 10, [1, 2, 3])
    assert results == [10, 20, 30]
    assert faults == []


def test_single_payload_bypasses_the_pool():
    pool = thread_pool()
    results, faults = pool.map_shards(lambda p: p + 1, [41])
    assert (results, faults) == ([42], [])


def test_results_keep_submission_order():
    def slow_first(payload):
        if payload == 0:
            time.sleep(0.05)
        return payload

    pool = thread_pool(workers=4)
    results, faults = pool.map_shards(slow_first, [0, 1, 2, 3])
    assert results == [0, 1, 2, 3]
    assert faults == []


def test_worker_error_recovers_serially():
    def flaky(payload):
        if payload == 2:
            raise RuntimeError("shard 2 exploded")
        return payload * 10

    pool = thread_pool(workers=3)
    results, faults = pool.map_shards(flaky, [1, 2, 3],
                                      serial_fn=lambda p: p * 10)
    assert results == [10, 20, 30]
    assert [f.shard for f in faults] == [1]
    assert faults[0].kind == "error"
    assert "shard 2 exploded" in faults[0].error
    assert faults[0].fallback == "serial"


def test_timeout_recovers_serially():
    def sleepy(payload):
        if payload == "slow":
            time.sleep(5)
        return payload

    pool = thread_pool(worker_timeout=0.1)
    results, faults = pool.map_shards(sleepy, ["slow", "fast"],
                                      serial_fn=lambda p: p)
    assert results == ["slow", "fast"]
    assert [f.kind for f in faults] == ["timeout"]


def test_unstartable_pool_degrades_to_all_serial(monkeypatch):
    # Drop any warm pool first: a persistent executor would satisfy the
    # dispatch without ever calling the patched constructor.
    shutdown()
    pool = thread_pool()
    monkeypatch.setattr(
        WorkerPool, "_make_executor",
        lambda self, n: (_ for _ in ()).throw(OSError("no threads")))
    results, faults = pool.map_shards(lambda p: p + 1, [1, 2, 3])
    assert results == [2, 3, 4]
    assert [f.kind for f in faults] == ["pool"] * 3


def test_serial_fallback_failure_propagates():
    def broken(payload):
        raise ValueError("workload bug, not a pool problem")

    pool = thread_pool()
    with pytest.raises(ValueError):
        pool.map_shards(broken, [1, 2])


# -- end-to-end fault injection ---------------------------------------------


def build(workers=2, **extra):
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, workers=workers,
                                    executor="thread",
                                    loop_fallback=True, **extra))


def test_injected_faults_keep_match_many_identical():
    """A scan configured with workers runs in the calling thread: the
    armed worker sites never fire, and the results equal serial."""
    serial = build(workers=1).match_many(STREAMS)
    engine = build()
    chaos.install(chaos.ChaosPlan(rules=(
        chaos.ChaosRule(site="worker.*", kind="exception"),)))
    try:
        parallel = engine.match_many(STREAMS)
        assert chaos.active_state().injections() == 0
    finally:
        chaos.reset()
    for left, right in zip(parallel, serial):
        assert left.ends == right.ends
        assert left.metrics == right.metrics


def test_injected_faults_keep_group_scan_identical(monkeypatch):
    """``scan`` runs every group of the engine in the calling thread,
    armed chaos or not."""
    serial = build(workers=1).match(DATA)
    engine = build(workers=3)
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    report = engine.scan(DATA)
    assert report == serial.ends
    assert report.metrics == serial.metrics
    assert report.cta_metrics == serial.cta_metrics


def test_injected_faults_keep_grid_identical(monkeypatch):
    serial = rows(grid())
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    harness = helpers.harness()
    runs = harness.run_all(GRID_APPS, GRID_ENGINES,
                           config=pool_config())
    assert rows(runs) == serial
    assert len(harness.last_scan_faults) == len(runs)  # every cell
    assert all(f.kind == "error" and "InjectedFault" in f.error
               for f in harness.last_scan_faults)


def test_clean_run_resets_faults(monkeypatch):
    harness = helpers.harness()
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    harness.run_all(GRID_APPS, GRID_ENGINES, config=pool_config())
    assert harness.last_scan_faults
    monkeypatch.delenv(CHAOS_ENV)
    harness.run_all(GRID_APPS, GRID_ENGINES, config=pool_config())
    assert harness.last_scan_faults == []


def test_serial_dispatch_resets_faults(monkeypatch):
    harness = helpers.harness()
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    harness.run_all(GRID_APPS, GRID_ENGINES, config=pool_config())
    assert harness.last_scan_faults
    harness.run_all(GRID_APPS, GRID_ENGINES)     # the harness's workers=1
    assert harness.last_scan_faults == []
