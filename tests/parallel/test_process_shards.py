"""Process-pool shards: real worker processes, and fault recovery.

A shard is one payload of :meth:`WorkerPool.map_shards` — one cell of
a harness grid.  Through a process pool, a module-level task and a
real :meth:`Harness.run_all` grid must return what serial execution
returns, and every worker fault kind (exception, exit, timeout) must
recover to that result.
"""

from __future__ import annotations

import pytest

from repro.parallel.pool import WorkerPool, shutdown
from repro.resilience import CHAOS_ENV

from .helpers import cell, expected, grid, pool_config, rows, PAYLOADS


def process_pool(**extra) -> WorkerPool:
    return WorkerPool(pool_config(executor="process", **extra))


@pytest.mark.parametrize("kind,fault_kinds", [
    ("exception", {"error"}),
    ("exit", {"pool"}),
], ids=["exception", "exit"])
def test_process_worker_faults_recover(monkeypatch, kind, fault_kinds):
    monkeypatch.setenv(CHAOS_ENV, f"worker.*:{kind}")
    results, faults = process_pool().map_shards(cell, PAYLOADS)
    assert results == expected()
    assert faults
    assert {f.kind for f in faults} <= fault_kinds
    assert all(f.fallback == "serial" for f in faults)


def test_process_worker_timeout_recovers(monkeypatch):
    monkeypatch.setenv(CHAOS_ENV, "worker.*:timeout")
    results, faults = process_pool(worker_timeout=0.5).map_shards(
        cell, PAYLOADS)
    assert results == expected()
    assert faults
    assert "timeout" in {f.kind for f in faults}


def test_process_grid_cells_identical():
    assert rows(grid(pool_config(executor="process"))) == rows(grid())


def test_process_grid_faults_recover(monkeypatch):
    serial = rows(grid())
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    assert rows(grid(pool_config(executor="process"))) == serial


def teardown_module(module):
    shutdown()
