"""Persistent warm pools: reuse, keying, discard, and shutdown.

The registry keeps one executor per ``(executor, workers,
start_method)`` key across scans — ``BENCH_parallel.json`` showed a
fresh ``ProcessPoolExecutor`` per scan costing more than the scan — so
these tests pin the lifecycle: second dispatch is warm, different
configs get different pools, a timeout poisons (discards) the pool,
fault injection bypasses the registry, and :func:`repro.parallel.shutdown`
empties it.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.config import ScanConfig
from repro.parallel.pool import WorkerPool, pool_stats, shutdown
from repro.resilience import CHAOS_ENV


@pytest.fixture(autouse=True)
def isolated_registry():
    """Each test starts from an empty registry and leaves none behind."""
    shutdown()
    yield
    shutdown()


def thread_pool(**overrides) -> WorkerPool:
    defaults = dict(workers=2, executor="thread")
    defaults.update(overrides)
    return WorkerPool(ScanConfig(**defaults))


def test_second_dispatch_reuses_warm_pool():
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1, 2])
    assert pool.last_pool_state == "cold"
    pool.map_shards(lambda p: p, [3, 4])
    assert pool.last_pool_state == "warm"


def test_pools_shared_across_workerpool_instances():
    first = thread_pool()
    first.map_shards(lambda p: p, [1, 2])
    second = thread_pool()  # same config → same registry key
    second.map_shards(lambda p: p, [3, 4])
    assert second.last_pool_state == "warm"


def test_distinct_configs_get_distinct_pools():
    a = thread_pool(workers=2)
    b = thread_pool(workers=3)
    a.map_shards(lambda p: p, [1, 2])
    b.map_shards(lambda p: p, [1, 2, 3])
    assert a.last_pool_state == "cold"
    assert b.last_pool_state == "cold"
    assert pool_stats()["active"] == 2


def test_pool_key_includes_start_method_for_processes():
    fork = WorkerPool(ScanConfig(workers=2, executor="process",
                                 start_method="fork"))
    spawn = WorkerPool(ScanConfig(workers=2, executor="process",
                                  start_method="spawn"))
    assert fork._pool_key() != spawn._pool_key()
    # Thread pools don't care about start methods.
    assert thread_pool()._pool_key() == ("thread", 2, None)


def test_timeout_discards_the_poisoned_pool():
    def sleepy(payload):
        if payload == "slow":
            time.sleep(5)
        return payload

    pool = thread_pool(worker_timeout=0.1)
    pool.map_shards(sleepy, ["slow", "fast"], serial_fn=lambda p: p)
    assert pool.last_pool_state == "cold"
    assert pool_stats()["active"] == 0  # discarded, not kept warm
    # The next dispatch pays a fresh cold start instead of inheriting
    # the hung worker.
    pool.map_shards(lambda p: p, [1, 2])
    assert pool.last_pool_state == "warm" or \
        pool.last_pool_state == "cold"
    results, faults = pool.map_shards(lambda p: p * 2, [1, 2],
                                      serial_fn=lambda p: p * 2)
    assert results == [2, 4]


def test_fault_injection_bypasses_the_registry(monkeypatch):
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1, 2])  # park a warm pool
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    # The env hook only reaches workers created after the mutation, so
    # the dispatcher must not serve this dispatch from the warm pool.
    pool.map_shards(lambda p: p, [3, 4], serial_fn=lambda p: p)
    assert pool.last_pool_state == "cold"
    monkeypatch.delenv(CHAOS_ENV)
    pool.map_shards(lambda p: p, [5, 6])
    assert pool.last_pool_state == "warm"


def test_shutdown_empties_the_registry():
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1, 2])
    assert pool_stats()["active"] >= 1
    shutdown()
    assert pool_stats()["active"] == 0
    pool.map_shards(lambda p: p, [1, 2])
    assert pool.last_pool_state == "cold"


def test_single_payload_stays_inline():
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1])
    assert pool.last_pool_state == "inline"
    assert pool_stats()["active"] == 0


def test_reuse_counters_are_monotonic():
    before = pool_stats()
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1, 2])
    pool.map_shards(lambda p: p, [3, 4])
    after = pool_stats()
    assert after["cold"] == before["cold"] + 1
    assert after["warm"] == before["warm"] + 1


def test_discarded_executor_is_shut_down():
    pool = thread_pool()
    pool.map_shards(lambda p: p, [1, 2])
    key = pool._pool_key()
    executor = pool_mod._POOLS[key].executor
    pool_mod._discard(executor, "broken")
    assert key not in pool_mod._POOLS
    with pytest.raises(RuntimeError):  # shutdown executors reject work
        executor.submit(lambda: None)
