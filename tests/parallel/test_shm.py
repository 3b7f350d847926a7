"""Zero-copy shared-memory shards: lifecycle, identity, and leaks.

Unit level: :class:`SharedArena` bump allocation, descriptor
round-trips, ref-counting, and the unlink-before-close dispose path
(including the pinned-view zombie case).  End to end: process-pool
scans with ``shared_memory=True`` stay bit-identical to serial, and —
the contract the fault-path tests enforce — **no scan exit path leaks
a segment**: clean runs, injected worker errors, worker kills
(BrokenExecutor), and worker timeouts all leave ``active_segments()``
empty and ``/dev/shm`` clean.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.parallel import shm
from repro.parallel.config import ScanConfig
from repro.parallel.pool import shutdown
from repro.parallel.scan import ParallelScanner
from repro.parallel.shm import SharedArena, ShmArray
from repro.resilience import CHAOS_ENV

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]", "foo"]
DATA = b"abcbcd cat 42 foo dog abcd " * 30
STREAMS = [DATA[:50], DATA[:120], DATA[:50], DATA[:200], DATA[:120]]


def assert_no_leaks():
    assert shm.active_segments() == []
    pattern = f"/dev/shm/repro-shm-{os.getpid()}-*"
    assert glob.glob(pattern) == []


@pytest.fixture(autouse=True)
def clean_slate():
    """Every test starts and must end with zero owned segments."""
    shm.dispose_all()
    yield
    leaked = shm.active_segments()
    shm.dispose_all()
    assert leaked == []


# -- SharedArena units -------------------------------------------------------


def test_alloc_array_view_is_shared():
    with SharedArena(4096, tag="t") as arena:
        view, ref = arena.alloc_array((8, 4))
        view[...] = np.arange(32, dtype=np.uint64).reshape(8, 4)
        resolved = ref.resolve()
        assert resolved.dtype == np.uint64
        np.testing.assert_array_equal(resolved, view)
        # Same pages, not a copy: writes through one view appear in
        # the other.
        view[0, 0] = 99
        assert resolved[0, 0] == 99


def test_put_array_round_trips_dtype_and_shape():
    payload = np.arange(12, dtype=np.uint8).reshape(3, 4)
    with SharedArena(1024, tag="t") as arena:
        ref = arena.put_array(payload)
        assert isinstance(ref, ShmArray)
        out = ref.resolve()
        assert out.dtype == np.uint8 and out.shape == (3, 4)
        np.testing.assert_array_equal(out, payload)


def test_allocations_are_aligned():
    with SharedArena(4096, tag="t") as arena:
        # 1 byte each, forcing padding before the next allocation
        _, first = arena.alloc_array((1,), np.uint8)
        _, second = arena.alloc_array((1,), np.uint8)
        assert first.offset % 64 == 0
        assert second.offset % 64 == 0
        assert second.offset > first.offset


def test_overflow_raises_memory_error():
    with SharedArena(64, tag="t") as arena:
        with pytest.raises(MemoryError):
            arena.alloc_array((arena.capacity + 1,), np.uint8)


def test_release_unlinks_segment():
    arena = SharedArena(256, tag="t")
    name = arena.name
    assert name in shm.active_segments()
    assert os.path.exists(f"/dev/shm/{name}")
    arena.release()
    assert name not in shm.active_segments()
    assert not os.path.exists(f"/dev/shm/{name}")


def test_refcount_delays_unlink():
    arena = SharedArena(256, tag="t")
    arena.acquire()
    arena.release()  # back to one holder — still linked
    assert os.path.exists(f"/dev/shm/{arena.name}")
    arena.release()
    assert not os.path.exists(f"/dev/shm/{arena.name}")


def test_release_is_idempotent_via_dispose_all():
    arena = SharedArena(256, tag="t")
    arena.release()
    shm.dispose_all()  # must not raise on the already-gone arena


def test_live_view_defers_close_but_not_unlink():
    """A NumPy view held across release() must not block the unlink:
    the /dev/shm name goes away immediately (nothing leaks), and the
    mapping is reaped once the view dies."""
    arena = SharedArena(1024, tag="t")
    view, _ = arena.alloc_array((8, 2))
    name = arena.name
    arena.release()
    assert not os.path.exists(f"/dev/shm/{name}")
    assert name not in shm.active_segments()
    view[0, 0] = 1  # the pinned mapping is still usable
    del view
    shm.dispose_all()  # reaps the zombie mapping
    assert shm._ZOMBIES == []


def test_attach_resolves_owned_arena_without_reattach():
    with SharedArena(256, tag="t") as arena:
        assert shm.attach(arena.name) is arena._shm


# -- zero-copy process scans -------------------------------------------------


def build(**dispatch):
    # Compiled backend: the zero-copy pre-transposed payload path.
    dispatch.setdefault("backend", "compiled")
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, loop_fallback=True,
                                    min_parallel_bytes=0, **dispatch))


def process_config(**extra):
    defaults = dict(geometry=TINY, loop_fallback=True, workers=2,
                    executor="process", min_parallel_bytes=0,
                    backend="compiled")
    defaults.update(extra)
    return ScanConfig(**defaults)


def sig(result):
    return {k: sorted(v) for k, v in result.ends.items()}


@pytest.fixture(scope="module")
def serial_streams():
    return [sig(r) for r in build().match_many(STREAMS)]


def test_stream_shards_identical_through_shared_memory(serial_streams):
    engine = build()
    scanner = ParallelScanner(engine, process_config(shard="stream"))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults == []
    assert_no_leaks()


def test_group_shards_identical_through_shared_memory():
    engine = build()
    serial = engine.match(DATA)
    scanner = ParallelScanner(engine, process_config(shard="group"))
    merged = scanner.match(DATA)
    assert sig(merged) == sig(serial)
    assert merged.metrics == serial.metrics
    assert merged.cta_metrics == serial.cta_metrics
    assert scanner.faults == []
    assert_no_leaks()


def test_shared_memory_off_still_identical(serial_streams):
    engine = build()
    scanner = ParallelScanner(engine,
                              process_config(shared_memory=False))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults == []
    assert_no_leaks()


def test_simulate_backend_ships_basis_words(monkeypatch):
    """Both backends ship the same payload: each stream's ``(8, W)``
    basis words, transposed once by the parent."""
    from repro.backend.runtime import word_count

    shipped = []
    put_array = SharedArena.put_array

    def spy(arena, array):
        shipped.append(array.shape)
        return put_array(arena, array)

    monkeypatch.setattr(SharedArena, "put_array", spy)
    engine = build(backend="simulate")
    serial = [sig(r) for r in engine.match_many(STREAMS)]
    scanner = ParallelScanner(engine,
                              process_config(backend="simulate"))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial
    assert sorted(shipped) == sorted((8, word_count(len(s) + 1))
                                     for s in STREAMS)
    assert scanner.faults == []
    assert_no_leaks()


# -- fault paths must not leak segments --------------------------------------


@pytest.mark.parametrize("kind,fault_kinds", [
    ("generic", {"error"}),
    ("exit", {"pool"}),
])
def test_worker_faults_leave_no_segments(monkeypatch, kind,
                                         fault_kinds, serial_streams):
    engine = build()
    monkeypatch.setenv(CHAOS_ENV, {"generic": "worker.*:exception",
                                   "exit": "worker.*:exit"}[kind])
    scanner = ParallelScanner(engine, process_config(shard="stream"))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert {f.kind for f in scanner.faults} <= fault_kinds
    assert all(f.fallback == "serial" for f in scanner.faults)
    assert_no_leaks()


def test_worker_timeout_leaves_no_segments(monkeypatch, serial_streams):
    engine = build()
    monkeypatch.setenv(CHAOS_ENV, "worker.*:timeout")
    scanner = ParallelScanner(
        engine, process_config(shard="stream", worker_timeout=0.5))
    results = scanner.match_many(STREAMS)
    assert [sig(r) for r in results] == serial_streams
    assert scanner.faults
    assert "timeout" in {f.kind for f in scanner.faults}
    assert_no_leaks()


def test_group_faults_leave_no_segments(monkeypatch):
    engine = build()
    serial = engine.match(DATA)
    monkeypatch.setenv(CHAOS_ENV, "worker.*:exception")
    scanner = ParallelScanner(engine, process_config(shard="group"))
    merged = scanner.match(DATA)
    assert sig(merged) == sig(serial)
    assert scanner.faults
    assert_no_leaks()


def teardown_module(module):
    shutdown()
