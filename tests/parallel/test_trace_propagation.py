"""Trace propagation across the worker pool.

The tentpole guarantee of :mod:`repro.obs.propagate`: spans recorded
inside pool workers — threads or separate processes — stitch under the
span that dispatched them with globally unique ids, and a scan run
with tracing disabled pays (almost) nothing and reports
``trace=None``.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.obs.propagate import TracedShard, run_traced, unwrap
from repro.obs.trace import TraceContext, Tracer
from repro.parallel.config import ScanConfig
from repro.parallel.pool import WorkerPool, shutdown

from .helpers import PAYLOADS, cell, expected, pool_config

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "colou?r", "cat|dog", "[0-9][0-9]",
            "xy+z", "foo(bar)?"]

DATA = b"abcbcd colour cat 42 xyyz foobar color abcd " * 30


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.stop_tracing()
    yield
    obs.stop_tracing()


def build():
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, backend="compiled",
                                    cta_count=4, loop_fallback=True))


def traced_dispatch(executor):
    """One pool dispatch of the stand-in cell under a ``scan`` span."""
    pool = WorkerPool(pool_config(executor=executor))
    tracer = obs.start_tracing()
    with obs.span("scan", category="scan"):
        results, faults = pool.map_shards(cell, PAYLOADS)
    obs.stop_tracing()
    assert results == expected()
    return faults, tracer.finished()


def by_id(spans):
    index = {span["id"]: span for span in spans}
    assert len(index) == len(spans), "duplicate span ids"
    return index


def assert_shards_under_scan(spans):
    index = by_id(spans)
    scan = next(s for s in spans if s["name"] == "scan")
    shards = [s for s in spans if s["name"] == "shard"]
    assert len(shards) == len(PAYLOADS)
    for shard in shards:
        # Walk the parent chain up to the scan span.
        node = shard
        seen = set()
        while node["parent"] is not None:
            assert node["id"] not in seen
            seen.add(node["id"])
            node = index[node["parent"]]
        assert node is scan
    return scan, shards


# -- thread executor (same process, shared tracer) ---------------------------


def test_thread_shards_stitch_under_scan():
    _, spans = traced_dispatch("thread")
    scan, shards = assert_shards_under_scan(spans)
    assert all(s["pid"] == scan["pid"] for s in shards)
    assert {s["attrs"]["shard"] for s in shards} == \
        set(range(len(shards)))


def test_report_trace_view_is_the_scan_subtree():
    engine = build()
    tracer = obs.start_tracing()
    report = engine.scan(DATA)
    obs.stop_tracing()
    spans = tracer.finished()
    assert report.trace is not None
    trace_ids = {s["id"] for s in report.trace}
    scan = next(s for s in spans if s["name"] == "scan")
    assert scan["id"] in trace_ids
    exec_ids = {s["id"] for s in spans if s["name"] == "exec"}
    assert exec_ids and exec_ids <= trace_ids
    # Compile-time spans predate the scan and stay out of its view.
    compile_ids = {s["id"] for s in spans if s["name"] == "compile"}
    assert not compile_ids & trace_ids


# -- process executor (spans marshalled back) --------------------------------


def test_process_shards_marshal_back():
    faults, spans = traced_dispatch("process")
    scan, shards = assert_shards_under_scan(spans)
    if not any(f.kind == "pool" for f in faults):
        # Genuine process workers: shard spans carry foreign pids and
        # their children (the cells' own spans) came along with them.
        worker_pids = {s["pid"] for s in shards} - {scan["pid"]}
        assert worker_pids
        assert any(s["name"] == "cell" and s["pid"] in worker_pids
                   for s in spans)
    assert len({s["trace"] for s in spans}) == 1


# -- disabled path -----------------------------------------------------------


def test_disabled_tracer_reports_no_trace():
    report = build().scan(DATA)
    assert report.trace is None
    assert not obs.enabled()


def test_disabled_pool_skips_span_marshalling():
    """Without a tracer the pool submits ``fn`` directly — results are
    never wrapped in TracedShard."""
    pool = WorkerPool(pool_config(executor="process"))
    results, _ = pool.map_shards(cell, PAYLOADS)
    assert results == expected()
    assert not any(isinstance(r, TracedShard) for r in results)


# -- run_traced unit behaviour -----------------------------------------------


def test_run_traced_same_process_records_live():
    tracer = obs.start_tracing()
    with obs.span("scan.parallel") as parent:
        ctx = obs.current_context()
        result = run_traced(lambda p: p + 1, ctx, 0, 41)
    assert result == 42  # raw result, not TracedShard
    shard = next(s for s in tracer.finished()
                 if s["name"] == "shard")
    assert shard["parent"] == parent.span_id


def test_run_traced_foreign_process_marshals():
    """Simulate the worker side: a context minted by another pid makes
    run_traced collect spans locally and ship them back."""
    ctx = TraceContext(trace_id="t-x", span_id="p-1", pid=-1)
    raw = run_traced(lambda p: p * 2, ctx, 3, 21)
    assert isinstance(raw, TracedShard)
    assert raw.result == 42
    shard = next(s for s in raw.spans if s["name"] == "shard")
    assert shard["trace"] == "t-x"
    assert shard["parent"] == "p-1"
    assert shard["attrs"]["shard"] == 3
    # The worker-side tracer was uninstalled again.
    assert not obs.enabled()
    parent = Tracer(trace_id="t-x")
    assert unwrap(raw, parent) == 42
    assert parent.finished() == raw.spans


def teardown_module(module):
    shutdown()
