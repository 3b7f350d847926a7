"""ScanReport: the unified result surface.

The report must behave like the old bare ``Dict[int, List[int]]``
(Mapping interface, dict equality) while carrying offsets and metrics,
and must merge associatively for streaming aggregation.
:class:`ShardFault`, the worker pool's fault record, serialises here
too.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import BitGenEngine, BitGenResult
from repro.engines.base import MatchResult
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


# -- merge -------------------------------------------------------------------


def test_merge_accumulates_everything():
    first = ScanReport(pattern_count=2, matches={0: [1]},
                       stream_offset=4, input_bytes=4,
                       metrics=KernelMetrics(thread_word_ops=10,
                                             barriers=2))
    second = ScanReport(pattern_count=2, matches={0: [6], 1: [5]},
                        stream_offset=9, input_bytes=5,
                        metrics=KernelMetrics(thread_word_ops=7,
                                              barriers=1))
    merged = first.merge(second)
    assert merged is first
    assert merged == {0: [1, 6], 1: [5]}
    assert merged.stream_offset == 9
    assert merged.input_bytes == 9
    assert merged.metrics.thread_word_ops == 17
    assert merged.metrics.barriers == 3


def test_merge_never_mutates_lists_it_does_not_own():
    # Two reports of one result, and the result itself, must not see
    # what is merged into one of them.
    matcher = repro.compile(["ab", "cd"], backend="compiled")
    result = matcher.engine.match(b"xxab")
    first, second = result.report(), result.report()
    other = matcher.scan(b"zzab")
    first.merge(other)
    assert first[0] == [3, 3]
    assert second[0] == [3]
    assert result.ends[0] == [3]
    assert other[0] == [3]


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


# -- sparse storage behind the dense views ----------------------------------


@st.composite
def sparse_matches(draw):
    """``(pattern_count, pattern → non-empty ends)`` for a few of the
    patterns, as a gated scan finds them."""
    count = draw(st.integers(min_value=0, max_value=40))
    patterns = draw(st.lists(st.integers(min_value=0,
                                         max_value=max(0, count - 1)),
                             unique=True, max_size=count))
    return count, {pattern: draw(st.lists(st.integers(0, 10_000),
                                          min_size=1, max_size=4))
                   for pattern in patterns}


def dense_reference(count, found):
    """The dense dict a scan built before results went sparse: one
    list per pattern, in order, filled where it matched."""
    reference = {index: [] for index in range(count)}
    for pattern, ends in found.items():
        reference[pattern] = list(ends)
    return reference


def reference_json(reference, report) -> str:
    """``to_json()`` text built from the dense reference."""
    return json.dumps({
        "pattern_count": len(reference),
        "match_count": sum(len(v) for v in reference.values()),
        "matches": {str(k): v for k, v in sorted(reference.items())},
        "stream_offset": report.stream_offset,
        "input_bytes": report.input_bytes,
        "metrics": asdict(report.metrics),
    })


def assert_dense_views(view, reference):
    """Every Mapping behaviour of the dense reference dict."""
    count = len(reference)
    assert len(view) == count
    assert list(view) == list(range(count))
    assert [view[i] for i in range(count)] == list(reference.values())
    for missing in (count, -1, count + 7):
        with pytest.raises(KeyError):
            view[missing]
    assert view == reference and reference == view
    assert not (view != reference) and not (reference != view)
    assert dict(view.items()) == reference


@given(sparse_matches(), sparse_matches())
@settings(deadline=None, max_examples=60)
def test_sparse_report_and_result_equal_the_dense_reference(left, right):
    count, found = left
    reference = dense_reference(count, found)

    report = ScanReport(pattern_count=count, matches=found,
                        stream_offset=3, input_bytes=5)
    assert_dense_views(report, reference)
    assert report.matches == reference
    assert list(report.matches) == list(reference)
    assert report.match_count() == sum(map(len, reference.values()))
    assert report.matched_patterns() == [i for i in reference
                                         if reference[i]]
    assert report.to_json() == reference_json(reference, report)
    assert report.to_json(indent=2) == json.dumps(
        json.loads(reference_json(reference, report)), indent=2)

    result = BitGenResult(pattern_count=count, ends=found)
    assert result.ends == reference
    assert list(result.ends) == list(reference)
    assert_dense_views(result.report(), reference)
    assert result.match_count() == report.match_count()
    assert result.matched_patterns() == report.matched_patterns()
    assert result.same_matches(MatchResult(count, ends=dict(reference)))
    assert result.report().to_json() == ScanReport(
        pattern_count=count, matches=reference).to_json()

    other_count, other_found = right
    other = ScanReport(pattern_count=other_count, matches=other_found)
    before = {p: list(e) for p, e in other_found.items()}
    merged_reference = dict(reference)
    for pattern, ends in dense_reference(other_count,
                                         other_found).items():
        merged_reference[pattern] = \
            merged_reference.get(pattern, []) + ends
    merged = result.report().merge(other)
    assert_dense_views(merged, merged_reference)
    assert merged.match_count() == sum(map(len,
                                           merged_reference.values()))
    assert merged.to_json() == reference_json(merged_reference, merged)
    assert result.ends == reference            # the result is unchanged
    assert other_found == before and other.found == before


# -- serialisation -----------------------------------------------------------


def test_to_json_round_trips():
    report = ScanReport(pattern_count=2, matches={0: [3, 4]},
                        stream_offset=7, input_bytes=7)
    payload = json.loads(report.to_json(indent=2))
    assert list(payload) == ["pattern_count", "match_count", "matches",
                             "stream_offset", "input_bytes", "metrics"]
    assert payload["pattern_count"] == 2
    assert payload["match_count"] == 2
    assert payload["matches"] == {"0": [3, 4], "1": []}
    assert payload["stream_offset"] == 7
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
