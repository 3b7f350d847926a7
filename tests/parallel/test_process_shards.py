"""Process-pool shards: identity with serial scans and fault recovery.

Every shard payload is its input's bytes (plus, for stream shards, the
groups the parent's gate left active); the worker transposes the input
and runs ``match_words`` as a serial scan does.  Stream and group
shards through a process pool must equal serial on both backends, and
every worker fault kind (exception, exit, timeout) must recover to the
serial result.
"""

from __future__ import annotations

import pytest

from repro.parallel.pool import WorkerPool, shutdown
from repro.parallel.scan import ParallelScanner
from repro.resilience import CHAOS_ENV

from .helpers import DATA, STREAMS, build, process_config, sig


@pytest.fixture(scope="module")
def serial_streams():
    return [sig(r) for r in build().match_many(STREAMS)]


def test_process_stream_shards_identical(serial_streams):
    engine = build()
    scanner = ParallelScanner(engine, process_config())
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults == []


def test_process_group_shards_identical():
    engine = build()
    serial = engine.match(DATA)
    scanner = ParallelScanner(engine, process_config())
    merged = scanner.match(DATA)
    assert sig(merged) == sig(serial)
    assert merged.metrics == serial.metrics
    assert merged.cta_metrics == serial.cta_metrics
    assert scanner.faults == []


def test_simulate_backend_ships_input_bytes(monkeypatch):
    """Both backends ship the same payload: each stream's bytes and
    its active groups; the worker transposes."""
    shipped = []
    map_shards = WorkerPool.map_shards

    def spy(pool, fn, payloads, **kwargs):
        shipped.extend(data for _, inputs, _ in payloads
                       for data, _ in inputs)
        return map_shards(pool, fn, payloads, **kwargs)

    monkeypatch.setattr(WorkerPool, "map_shards", spy)
    engine = build(backend="simulate")
    serial = [sig(r) for r in engine.match_many(STREAMS)]
    scanner = ParallelScanner(engine,
                              process_config(backend="simulate"))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial
    assert sorted(shipped) == sorted(STREAMS)
    assert scanner.faults == []


# -- worker faults recover to the serial result ------------------------------


@pytest.mark.parametrize("kind,fault_kinds", [
    ("exception", {"error"}),
    ("exit", {"pool"}),
], ids=["exception", "exit"])
def test_process_worker_faults_recover(monkeypatch, kind, fault_kinds,
                                       serial_streams):
    engine = build()
    monkeypatch.setenv(CHAOS_ENV, f"worker.*:{kind}")
    scanner = ParallelScanner(engine, process_config())
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert {f.kind for f in scanner.faults} <= fault_kinds
    assert all(f.fallback == "serial" for f in scanner.faults)


def test_process_worker_timeout_recovers(monkeypatch, serial_streams):
    engine = build()
    monkeypatch.setenv(CHAOS_ENV, "worker.*:timeout")
    scanner = ParallelScanner(engine,
                              process_config(worker_timeout=0.5))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert "timeout" in {f.kind for f in scanner.faults}


def test_process_group_faults_recover(monkeypatch):
    engine = build()
    serial = engine.match(DATA)
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    scanner = ParallelScanner(engine, process_config())
    merged = scanner.match(DATA)
    assert sig(merged) == sig(serial)
    assert scanner.faults


def teardown_module(module):
    shutdown()
