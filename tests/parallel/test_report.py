"""ScanReport: the unified result surface.

The report must behave like the old bare ``Dict[int, List[int]]``
(Mapping interface, dict equality) while carrying offsets, metrics,
and shard faults, and must merge associatively for streaming and
sharded aggregation.
"""

from __future__ import annotations

import json

from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.gpu.metrics import KernelMetrics
from repro.parallel.config import ScanConfig
from repro.parallel.report import ScanReport, ShardFault

TINY = CTAGeometry(threads=4, word_bits=8)


def compile_engine(patterns):
    return BitGenEngine.compile(patterns,
                                config=ScanConfig(geometry=TINY))


# -- Mapping back-compat -----------------------------------------------------


def test_report_behaves_like_the_old_dict():
    report = ScanReport(pattern_count=3, matches={0: [1, 5], 2: [7]})
    assert report[0] == [1, 5]
    assert report[1] == []                  # padded to pattern_count
    assert report[2] == [7]
    assert len(report) == 3
    assert set(report) == {0, 1, 2}
    assert dict(report.items()) == {0: [1, 5], 1: [], 2: [7]}
    assert report == {0: [1, 5], 1: [], 2: [7]}
    assert {0: [1, 5], 1: [], 2: [7]} == report
    assert report != {0: [1, 5]}


def test_report_equality_with_reports_and_non_mappings():
    left = ScanReport(pattern_count=1, matches={0: [3]})
    right = ScanReport(pattern_count=1, matches={0: [3]},
                       stream_offset=99)
    assert left == right                    # equality is about matches
    assert left != 42
    assert not (left == 42)


def test_aggregate_views():
    report = ScanReport(pattern_count=4, matches={1: [2], 3: [4, 6]})
    assert report.match_count() == 3
    assert report.matched_patterns() == [1, 3]


# -- construction from engine results ---------------------------------------


def test_bitgen_result_report():
    engine = compile_engine(["ab", "cd"])
    result = engine.match(b"ab cd ab")
    report = result.report(stream_offset=8)
    assert report == result.ends
    assert report.stream_offset == 8
    assert report.pattern_count == 2
    assert report.metrics == result.metrics
    assert report.cta_metrics == result.cta_metrics
    assert report.faults == []


# -- merge -------------------------------------------------------------------


def test_merge_accumulates_everything():
    first = ScanReport(pattern_count=2, matches={0: [1]},
                       stream_offset=4, input_bytes=4,
                       metrics=KernelMetrics(thread_word_ops=10,
                                             barriers=2))
    second = ScanReport(pattern_count=2, matches={0: [6], 1: [5]},
                        stream_offset=9, input_bytes=5,
                        metrics=KernelMetrics(thread_word_ops=7,
                                              barriers=1),
                        faults=[ShardFault(shard=1, kind="error",
                                           error="boom")])
    merged = first.merge(second)
    assert merged is first
    assert merged == {0: [1, 6], 1: [5]}
    assert merged.stream_offset == 9
    assert merged.input_bytes == 9
    assert merged.metrics.thread_word_ops == 17
    assert merged.metrics.barriers == 3
    assert [f.kind for f in merged.faults] == ["error"]


def test_merge_matches_streaming_feed_all():
    engine = compile_engine(["virus[0-9]"])
    from repro.core.streaming import StreamingMatcher

    chunks = [b"xx virus1 y", b"y virus2", b" trailer virus3"]
    whole = StreamingMatcher(engine).feed_all(chunks)
    stepwise = ScanReport(pattern_count=1)
    matcher = StreamingMatcher(engine)
    for chunk in chunks:
        stepwise.merge(matcher.feed(chunk))
    assert whole == stepwise
    assert whole.stream_offset == stepwise.stream_offset
    assert whole.metrics == stepwise.metrics


# -- serialisation -----------------------------------------------------------


def test_to_json_round_trips():
    report = ScanReport(pattern_count=2, matches={0: [3, 4]},
                        stream_offset=7, input_bytes=7,
                        faults=[ShardFault(shard=0, kind="timeout",
                                           error="worker exceeded 1s")])
    payload = json.loads(report.to_json(indent=2))
    assert payload["pattern_count"] == 2
    assert payload["match_count"] == 2
    assert payload["matches"] == {"0": [3, 4], "1": []}
    assert payload["stream_offset"] == 7
    assert payload["faults"] == [{"shard": 0, "kind": "timeout",
                                  "error": "worker exceeded 1s",
                                  "fallback": "serial",
                                  "traceback": "", "retries": 0}]
    assert "thread_word_ops" in payload["metrics"]


def test_shard_fault_to_dict():
    fault = ShardFault(shard=3, kind="pool", error="broken",
                       traceback="Traceback: boom", retries=1,
                       fallback="retry")
    assert fault.to_dict() == {"shard": 3, "kind": "pool",
                               "error": "broken", "fallback": "retry",
                               "traceback": "Traceback: boom",
                               "retries": 1}
    assert "kind=pool" in fault.summary()
    assert "retries=1" in fault.summary()


def test_report_records_dispatch():
    assert ScanReport(pattern_count=1).dispatch == "serial"
    parallel = ScanReport(pattern_count=1, dispatch="parallel")
    assert parallel.dispatch == "parallel"
    assert parallel.to_dict()["dispatch"] == "parallel"
    payload = json.loads(parallel.to_json())
    assert payload["dispatch"] == "parallel"


def test_engine_scan_reports_small_input_fallback():
    engine = compile_engine(["a(bc)*d"])
    engine.config = engine.config.replace(workers=2, executor="thread",
                                          min_parallel_bytes=1 << 20)
    report = engine.scan(b"abcbcd abcd")
    assert report.dispatch == "serial-small-input"
    assert engine.last_dispatch == "serial-small-input"


def test_match_many_dispatch_survives_worker_reentry():
    # Worker fallbacks re-enter match_many on the same engine with a
    # serial config; the top-level "parallel" decision must survive.
    engine = compile_engine(["abc", "dog"])
    engine.config = engine.config.replace(workers=2, executor="thread",
                                          min_parallel_bytes=64)
    engine.match_many([b"xxabcxx " * 32])
    assert engine.last_dispatch == "parallel"
