"""Parallel scans must be bit-identical to serial scans.

The dispatcher's core guarantee: sharding across workers changes wall
clock, never results — match positions, aggregated metrics and the
prefilter's gate reports come out equal because every shard runs the
serial unit of work (one input's basis words plus the groups to run
on it), and only the parent gates.

Thread pools exercise the dispatch logic cheaply; one process-pool
case covers pickling + the shared on-disk kernel cache end to end.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BitGenEngine
from repro.core.schemes import Scheme
from repro.core.streaming import StreamingMatcher
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.parallel.scan import (ParallelScanner, parallel_sessions,
                                 plan_group_shards, plan_stream_shards)

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "colou?r", "cat|dog", "[0-9][0-9]",
            "xy+z", "foo", "bar", "qux"]

DATA = b"abcbcd colour cat 42 xyyz foo bar qux color abcd " * 20

STREAMS = [DATA[:97], DATA[:200], DATA[:97], DATA[:500], DATA[:64],
           DATA[:200], DATA[:33]]


def build(backend, scheme=Scheme.ZBS, **dispatch):
    # min_parallel_bytes=0: identity tests want the parallel path even
    # on these deliberately tiny inputs.
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, backend=backend,
                                    scheme=scheme, cta_count=4,
                                    min_parallel_bytes=0,
                                    loop_fallback=True, **dispatch))


def assert_results_identical(parallel, serial):
    assert len(parallel) == len(serial)
    for left, right in zip(parallel, serial):
        assert left.ends == right.ends
        assert left.metrics == right.metrics
        assert left.cta_metrics == right.cta_metrics


# -- shard planning ----------------------------------------------------------


def test_stream_plan_per_stream_without_batches():
    plan = plan_stream_shards(STREAMS, workers=len(STREAMS) + 3)
    assert sorted(i for s in plan for i in s) == list(range(len(STREAMS)))
    assert len(plan) <= len(STREAMS)


def test_group_plan_shards_single_groups():
    engine = build("compiled")
    plan = plan_group_shards(engine, workers=3)
    flat = sorted(index for shard in plan for index in shard)
    assert flat == list(range(len(engine.groups)))
    assert len(plan) == 3
    # A prefiltered scan plans over the active groups only.
    active = [0, 2]
    plan = plan_group_shards(engine, workers=3, groups=active)
    assert sorted(i for shard in plan for i in shard) == active
    assert all(len(shard) == 1 for shard in plan)


# -- match_many (stream sharding) -------------------------------------------


@pytest.mark.parametrize("backend", ["simulate", "compiled"])
@pytest.mark.parametrize("scheme", [Scheme.BASE, Scheme.SR, Scheme.ZBS])
def test_match_many_identical_across_schemes(backend, scheme):
    serial = build(backend, scheme).match_many(STREAMS)
    parallel_engine = build(backend, scheme, workers=3,
                            executor="thread")
    parallel = parallel_engine.match_many(STREAMS)
    assert_results_identical(parallel, serial)
    assert parallel_engine.last_scan_faults == []


# -- single-input scan (group sharding) -------------------------------------


@pytest.mark.parametrize("backend", ["simulate", "compiled"])
def test_group_sharded_scan_identical(backend):
    serial = build(backend).match(DATA)
    engine = build(backend, workers=3, executor="thread")
    report = engine.scan(DATA)
    assert report == serial.ends
    assert report.metrics == serial.metrics
    assert report.cta_metrics == serial.cta_metrics
    assert report.faults == []


def test_scanner_match_preserves_group_order():
    serial = build("compiled").match(DATA)
    scanner = ParallelScanner(build("compiled"),
                              ScanConfig(geometry=TINY,
                                         backend="compiled",
                                         cta_count=4, workers=3,
                                         executor="thread",
                                         loop_fallback=True))
    merged = scanner.match(DATA)
    assert merged.ends == serial.ends
    assert merged.cta_metrics == serial.cta_metrics
    assert merged.metrics == serial.metrics


# -- prefiltered scans: the parent gates, shards never do -------------------

GATED_PATTERNS = [f"sig{i:05d}[0-9]+x" for i in range(40)] \
    + ["[a-y][a-y0-9]*z3q"]
#: each stream fires different gate literals; the last fires none
GATED_STREAMS = [b"sig00003 17x .. sig00017 4x ab0z3q " * 40,
                 b"zz sig00025 9x " * 60, b"." * 1500]


def gated_engine(backend, **dispatch):
    return BitGenEngine.compile(
        GATED_PATTERNS, config=ScanConfig(backend=backend, cta_count=8,
                                          prefilter=True,
                                          min_parallel_bytes=0,
                                          **dispatch))


def gated_view(report, cta_metrics, gate):
    """What must agree: the report minus how it was dispatched, the
    per-CTA metrics, and the gate report."""
    payload = report.to_dict()
    del payload["dispatch"], payload["faults"]
    return payload, cta_metrics, gate.to_dict()


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("backend", ["simulate", "compiled"])
def test_prefiltered_match_many_identical(backend, executor):
    serial = gated_engine(backend).match_many(GATED_STREAMS)
    engine = gated_engine(backend, workers=2, executor=executor)
    parallel = engine.match_many(GATED_STREAMS)
    assert engine.last_dispatch == "parallel"
    assert engine.last_scan_faults == []
    assert [gated_view(r.report(), r.cta_metrics, r.prefilter)
            for r in parallel] == \
        [gated_view(r.report(), r.cta_metrics, r.prefilter)
         for r in serial]
    # Each stream was gated on its own bytes.
    assert [r.prefilter.input_bytes for r in parallel] == \
        [len(s) for s in GATED_STREAMS]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("backend", ["simulate", "compiled"])
def test_prefiltered_scan_identical(backend, executor):
    data = b"".join(GATED_STREAMS)
    serial_engine = gated_engine(backend)
    serial = serial_engine.scan(data)
    engine = gated_engine(backend, workers=2, executor=executor)
    parallel = engine.scan(data)
    assert parallel.dispatch == "parallel"
    assert parallel.faults == []
    assert serial_engine.last_prefilter.skipped > 0
    assert gated_view(parallel, parallel.cta_metrics,
                      engine.last_prefilter) == \
        gated_view(serial, serial.cta_metrics,
                   serial_engine.last_prefilter)


# -- streaming sessions ------------------------------------------------------


def test_parallel_sessions_identical():
    chunk_lists = [
        [DATA[:64], DATA[64:200], DATA[200:260]],
        [DATA[:33], DATA[33:150]],
        [DATA[:128], DATA[128:129], DATA[129:400]],
    ]
    serial_engine = build("simulate")
    serial = [StreamingMatcher(serial_engine).feed_all(chunks)
              for chunks in chunk_lists]
    engine = build("simulate", workers=3, executor="thread")
    reports = parallel_sessions(engine, chunk_lists)
    for left, right in zip(reports, serial):
        assert dict(left) == dict(right)
        assert left.stream_offset == right.stream_offset
        assert left.metrics == right.metrics
        assert left.faults == []


# -- one end-to-end process-pool case ---------------------------------------


@pytest.mark.slow
def test_match_many_identical_through_process_pool(tmp_path):
    serial = build("compiled").match_many(STREAMS[:4])
    engine = build("compiled", workers=2, executor="process",
                   cache_dir=str(tmp_path / "kernels"))
    parallel = engine.match_many(STREAMS[:4])
    assert_results_identical(parallel, serial)
    assert engine.last_scan_faults == []
    # The shared cache was seeded parent-side for the workers.
    assert any((tmp_path / "kernels").iterdir())


# -- harness grid ------------------------------------------------------------


@pytest.mark.slow
def test_run_all_identical():
    from repro.perf.harness import Harness

    apps = ["Snort"]
    engines = ("BitGen", "HS-1T")
    serial = Harness(config=ScanConfig()).run_all(apps, engines)
    parallel = Harness(
        config=ScanConfig(workers=2, executor="thread",
                          min_parallel_bytes=0)).run_all(
            apps, engines)
    assert [r.engine for r in parallel] == [r.engine for r in serial]
    for left, right in zip(parallel, serial):
        assert left.app == right.app
        assert left.match_count == right.match_count
        assert left.mbps == pytest.approx(right.mbps)
        assert left.metrics == right.metrics
