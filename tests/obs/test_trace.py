"""Tracer semantics: nesting, ids, context, and the disabled path."""

from __future__ import annotations

import pickle
import threading

import pytest

import repro.obs as obs
from repro.obs.trace import NULL_SPAN, NullSpan, TraceContext, Tracer


@pytest.fixture(autouse=True)
def no_installed_tracer():
    """Every test here starts and ends with tracing disabled."""
    obs.stop_tracing()
    yield
    obs.stop_tracing()


# -- recording ---------------------------------------------------------------


def test_spans_nest_and_parent():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with tracer.span("sibling") as sibling:
            assert sibling.parent_id == outer.span_id
    spans = tracer.finished()
    assert [s["name"] for s in spans] == ["inner", "sibling", "outer"]
    outer_record = spans[-1]
    assert outer_record["parent"] is None
    assert all(s["parent"] == outer_record["id"] for s in spans[:-1])


def test_span_ids_unique_and_trace_shared():
    tracer = Tracer()
    for _ in range(50):
        with tracer.span("s"):
            pass
    spans = tracer.finished()
    ids = [s["id"] for s in spans]
    assert len(set(ids)) == len(ids)
    assert len({s["trace"] for s in spans}) == 1


def test_span_records_timing_and_attrs():
    tracer = Tracer()
    with tracer.span("work", category="test", app="Snort") as span:
        span.set(extra=3)
    record = tracer.finished()[0]
    assert record["cat"] == "test"
    assert record["attrs"] == {"app": "Snort", "extra": 3}
    assert record["ts"] > 0
    assert record["dur"] >= 0
    assert record["cpu"] >= 0


def test_exception_recorded_and_propagated():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    record = tracer.finished()[0]
    assert record["attrs"]["error"] == "ValueError"


def test_thread_spans_parent_to_root():
    """Each thread has its own stack; a span opened on a fresh thread
    parents to ``root_parent``, not to another thread's open span."""
    tracer = Tracer(root_parent="root-0")
    seen = {}

    def worker():
        with tracer.span("t") as span:
            seen["parent"] = span.parent_id

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["parent"] == "root-0"


def test_subtree_extracts_descendants():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b") as b:
            with tracer.span("c"):
                pass
    with tracer.span("other"):
        pass
    subtree = tracer.subtree(b.span_id)
    assert sorted(s["name"] for s in subtree) == ["b", "c"]
    subtree = tracer.subtree(a.span_id)
    assert sorted(s["name"] for s in subtree) == ["a", "b", "c"]


def _brute_force_subtree(spans, span_id):
    """Reachable set by rescanning every span until a fixpoint."""
    keep = {span_id}
    grew = True
    while grew:
        grew = False
        for record in spans:
            if record["id"] not in keep and record["parent"] in keep:
                keep.add(record["id"])
                grew = True
    return [record for record in spans if record["id"] in keep]


def _worker_spans(parent_id, tag):
    """What a process-pool worker marshals back under ``parent_id``:
    children finish before their parents, and ids carry another pid."""
    def record(name, span_id, parent):
        return {"name": name, "cat": "exec", "id": span_id,
                "parent": parent, "trace": "t", "ts": 0.0, "dur": 0.0,
                "cpu": 0.0, "pid": 0, "tid": 0, "attrs": {}}

    return [record("batch", f"{tag}-2", f"{tag}-1"),
            record("exec", f"{tag}-1", f"{tag}-0"),
            record("shard", f"{tag}-0", parent_id),
            record("shard", f"{tag}-3", parent_id)]


def test_subtree_matches_brute_force_walk():
    """Adopted worker spans land before their still-open parent; the
    indexed walk must return exactly what a full rescan finds, in
    recorded order."""
    tracer = Tracer()
    with tracer.span("before"):
        pass
    for tag in ("w1", "w2"):
        with tracer.span("scan") as scan:
            tracer.adopt(_worker_spans(scan.span_id, tag))
            with tracer.span("merge"):
                with tracer.span("ends"):
                    pass
        with tracer.span("between"):
            pass
    spans = tracer.finished()
    for record in spans:
        assert tracer.subtree(record["id"]) == \
            _brute_force_subtree(spans, record["id"])
    first_scan = next(s for s in spans if s["name"] == "scan")
    assert [s["name"] for s in tracer.subtree(first_scan["id"])] == \
        ["batch", "exec", "shard", "shard", "ends", "merge", "scan"]
    assert tracer.subtree("no-such-span") == []
    tracer.clear()
    assert tracer.subtree(first_scan["id"]) == []


def test_adopt_stitches_foreign_spans():
    parent = Tracer()
    with parent.span("scan") as scan:
        ctx = parent.current_context()
    worker = Tracer(trace_id=ctx.trace_id, root_parent=ctx.span_id)
    with worker.span("shard"):
        pass
    parent.adopt(worker.finished())
    spans = parent.finished()
    shard = next(s for s in spans if s["name"] == "shard")
    assert shard["parent"] == scan.span_id
    assert shard["trace"] == parent.trace_id


def test_context_is_picklable():
    tracer = Tracer()
    with tracer.span("s"):
        ctx = tracer.current_context()
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx
    assert isinstance(clone, TraceContext)


def test_context_none_outside_spans():
    tracer = Tracer()
    assert tracer.current_context() is None


# -- the module-level API ----------------------------------------------------


def test_disabled_span_is_the_shared_null_singleton():
    assert not obs.enabled()
    span = obs.span("anything", category="x", attr=1)
    assert span is NULL_SPAN
    assert isinstance(span, NullSpan)
    assert not span.is_recording
    # Full protocol is a no-op and records nothing anywhere.
    with span as inner:
        inner.set(a=1)
    assert obs.current_tracer() is None
    assert obs.current_context() is None


def test_start_stop_tracing_roundtrip():
    tracer = obs.start_tracing()
    assert obs.start_tracing() is tracer  # idempotent
    with obs.span("s") as span:
        assert span.is_recording
    spans = obs.stop_tracing()
    assert [s["name"] for s in spans] == ["s"]
    assert not obs.enabled()
    assert obs.stop_tracing() == []


def test_install_uninstall_restores_previous():
    outer = obs.start_tracing()
    inner = Tracer()
    previous = obs.install_tracer(inner)
    assert previous is outer
    assert obs.current_tracer() is inner
    obs.uninstall_tracer(inner, previous)
    assert obs.current_tracer() is outer
