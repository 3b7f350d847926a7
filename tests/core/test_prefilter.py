"""Literal prefilter gating (repro.core.prefilter).

The load-bearing property is bit-identity: a prefiltered scan must
return exactly the ungated scan's matches, for both gate
implementations and both execution backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BitGenEngine
from repro.core.prefilter import PrefilterIndex, pattern_gate
from repro.parallel.config import PREFILTER_IMPLS, ScanConfig
from repro.regex.parser import parse

PATTERNS = [
    "needle[0-9]+",          # gated: requires "needle"
    "abc|xyz",               # gated: alternation of literals
    "foo(bar)*baz",          # gated: "foo"..."baz"
    "[a-z]+",                # ungated: no required literal
    "qq(ab|cd)zz",           # gated
]

#: input containing none of the gate literals
SPARSE = b"the quick brown fox jumps over 12345 lazy dogs " * 40
#: input firing some gates
DENSE = b"a needle42 here, xyz there, qqabzz foobarbaz done " * 40


def _ends(engine, data, config=None):
    return engine.match(data, config=config).ends


@pytest.mark.parametrize("backend", ["simulate", "compiled"])
@pytest.mark.parametrize("impl", PREFILTER_IMPLS)
@pytest.mark.parametrize("data", [SPARSE, DENSE, b"", b"x"])
def test_prefiltered_match_is_bit_identical(backend, impl, data):
    baseline = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(loop_fallback=True))
    config = ScanConfig(backend=backend, prefilter=True,
                        prefilter_impl=impl, loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    assert _ends(engine, data) == _ends(baseline, data)


@pytest.mark.parametrize("impl", PREFILTER_IMPLS)
def test_sparse_input_skips_gated_groups(impl):
    config = ScanConfig(prefilter=True, prefilter_impl=impl,
                        loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    engine.match(SPARSE)
    report = engine.last_prefilter
    assert report is not None
    assert report.skipped == report.gated > 0
    # the factor-free pattern keeps its group always-on
    assert report.active >= 1


def test_cta_metrics_stay_aligned_when_groups_skip():
    config = ScanConfig(prefilter=True, loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    result = engine.match(SPARSE)
    assert len(result.cta_metrics) == len(engine.groups)


def test_prefilter_is_dispatch_time_not_compile_time():
    plain = ScanConfig(loop_fallback=True)
    gated = ScanConfig(prefilter=True, loop_fallback=True)
    assert plain.compile_key() == gated.compile_key()
    # one engine, gate toggled per call
    engine = BitGenEngine.compile(PATTERNS, config=plain)
    ungated = _ends(engine, DENSE)
    assert _ends(engine, DENSE, config=gated) == ungated
    assert engine.last_prefilter is not None


@pytest.mark.parametrize("impl", PREFILTER_IMPLS)
def test_match_many_union_gating(impl):
    """No union gate: each stream is gated on its own bytes, so
    ``match_many`` returns exactly ``match`` per stream, gate report
    included."""
    config = ScanConfig(backend="compiled", prefilter=True,
                        prefilter_impl=impl, loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    baseline = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(loop_fallback=True))
    streams = [SPARSE, DENSE, b"needle7", b""]
    results = engine.match_many(streams)
    for stream, result in zip(streams, results):
        alone = engine.match(stream)
        assert result.ends == alone.ends == _ends(baseline, stream)
        assert result.metrics == alone.metrics
        assert result.cta_metrics == alone.cta_metrics
        assert result.prefilter.to_dict() == alone.prefilter.to_dict()
        assert result.prefilter.input_bytes == len(stream)
    # the sparse stream ran fewer groups than the dense one
    assert results[0].prefilter.active < results[1].prefilter.active


#: literals probing the screen's 8-byte windows: longer than 8 with a
#: shared 8-byte prefix (and that prefix itself), NUL bytes that the
#: zero-padded tail could fake, and 500 sharing one lead pair
EDGE_LITERALS = ([b"tail", b"abcdefgh", b"abcdefgh1", b"abcdefgh2",
                  b"q\x00", b"\x00\x00z", b"zz\x00\x00"]
                 + [b"si%04d" % i for i in range(500)])
EDGE_INPUTS = {
    b"": set(), b"q": set(), b"qz": set(), b"zz": set(),
    b"xq": set(),                           # tail key 'q\0..' confirms out
    b"xxtail": {b"tail"},                   # ends on the last byte
    b"abcdefgh2": {b"abcdefgh", b"abcdefgh2"},
    b"abcdefgh": {b"abcdefgh"},
    b"..abcdefgh1..q\x00": {b"abcdefgh", b"abcdefgh1", b"q\x00"},
    b"zz\x00": set(), b"\x00\x00z": {b"\x00\x00z"},
    b"si" * 40 + b"si0499": {b"si0499"},
}


def test_screen_and_ac_agree_on_fired_literals():
    nodes = [parse(p) for p in PATTERNS]
    groups = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(loop_fallback=True)).groups
    index = PrefilterIndex.build(nodes, [c.group for c in groups])
    for data in (SPARSE, DENSE, b"", b"needleneedle", b"zzxyzab"):
        assert index.fired_literals(data, "screen") \
            == index.fired_literals(data, "ac")
    edge = PrefilterIndex([frozenset(EDGE_LITERALS)])
    for data, expected in EDGE_INPUTS.items():
        assert edge.fired_literals(data, "screen") == expected, data
        assert edge.fired_literals(data, "ac") == expected, data


_SMALL_ALPHABET = st.sampled_from(b"ab\x00")


@settings(max_examples=200, deadline=None)
@given(literals=st.sets(st.lists(_SMALL_ALPHABET, min_size=2, max_size=12)
                        .map(bytes), min_size=1, max_size=24),
       data=st.lists(_SMALL_ALPHABET, max_size=300).map(bytes))
def test_screen_equals_ac_oracle_property(literals, data):
    index = PrefilterIndex([frozenset(literals)])
    assert index.fired_literals(data, "screen") \
        == index.fired_literals(data, "ac")


# -- scan glue contract ----------------------------------------------------


def test_gated_scan_report_stays_dense_and_unshared():
    config = ScanConfig(backend="compiled", prefilter=True,
                        loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    baseline = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(backend="compiled", loop_fallback=True))
    first = engine.scan(SPARSE)
    assert engine.last_prefilter.skipped > 0
    assert len(first) == engine.pattern_count
    assert first == baseline.scan(SPARSE)
    unmatched = [i for i in range(engine.pattern_count) if not first[i]]
    assert unmatched and all(first[i] == [] for i in unmatched)
    for ends in first.values():
        ends.append(-1)
    second = engine.scan(SPARSE)
    assert second == baseline.scan(SPARSE)
    assert all(second[i] == [] for i in unmatched)


def test_gated_scan_report_retains_only_its_matches():
    """A gated scan of 5,000 signature rules with one planted match
    keeps a report of O(matches), not one list per pattern (a dense
    report took about 570 KiB here)."""
    import gc
    import tracemalloc

    rules = ["sig%05d[0-9]+x" % index for index in range(5000)]
    config = ScanConfig(backend="compiled", grouping="fingerprint",
                        prefilter=True)
    engine = BitGenEngine.compile(rules, config=config)
    data = b"." * 2000 + b"sig01234567x" + b"," * 2000
    engine.scan(data)               # build kernels and the gate index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = engine.scan(data)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.matched_patterns() == [1234]
    assert report[1234] == [2011] and report[0] == []
    assert len(report) == 5000
    assert retained < 64 * 1024, f"report retained {retained} bytes"


def test_pattern_gate_prepared_node_semantics():
    # factor-free: any single char
    assert pattern_gate(parse("[a-z]")) is None
    # required literal factor: one best factor suffices as the gate
    gate = pattern_gate(parse("xx(a|b)yy"))
    assert gate and gate <= {b"xx", b"yy"}
    # never-matching non-empty pattern: empty gate, not always-on
    assert pattern_gate(parse("")) == frozenset()


def test_unknown_impl_rejected():
    with pytest.raises(ValueError):
        ScanConfig(prefilter_impl="bloom")
    nodes = [parse("abcd")]
    groups = BitGenEngine.compile(
        ["abcd"], config=ScanConfig(loop_fallback=True)).groups
    index = PrefilterIndex.build(nodes, [c.group for c in groups])
    with pytest.raises(ValueError):
        index.fired_literals(b"abcd", "bloom")


def test_gate_counter_accounting():
    from repro.core.prefilter import _BUCKETS_SKIPPED

    config = ScanConfig(prefilter=True, loop_fallback=True)
    engine = BitGenEngine.compile(PATTERNS, config=config)
    before = _BUCKETS_SKIPPED.value()
    engine.match(SPARSE)
    assert _BUCKETS_SKIPPED.value() \
        == before + engine.last_prefilter.skipped
