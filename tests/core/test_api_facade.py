"""The repro.compile / repro.scan facade — the supported public API.

Contract: the facade is a thin veneer over the internal engine, so
everything it returns must be bit-identical to the BitGenEngine paths,
config knobs must flow through as ScanConfig fields, and typos in
knob names must fail loudly.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.engine import BitGenEngine
from repro.core.schemes import Scheme
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.parallel.report import ScanReport

TINY = CTAGeometry(threads=4, word_bits=8)
PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]"]
DATA = b"abcbcd cat 42 dog abcd and 7 cats"


def test_compile_returns_matcher():
    matcher = repro.compile(PATTERNS, geometry=TINY)
    assert isinstance(matcher, repro.Matcher)
    assert matcher.pattern_count == len(PATTERNS)
    assert matcher.config.geometry is TINY
    assert matcher.patterns == PATTERNS


def test_scan_matches_engine_path():
    report = repro.scan(PATTERNS, DATA, geometry=TINY)
    assert isinstance(report, ScanReport)
    reference = BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY)).match(DATA)
    assert report == reference.ends


def test_knobs_layer_on_config():
    base = ScanConfig(geometry=TINY, merge_size=4)
    matcher = repro.compile(PATTERNS, config=base, scheme=Scheme.SR)
    assert matcher.config.scheme is Scheme.SR
    assert matcher.config.merge_size == 4          # base preserved
    assert matcher.config.geometry is TINY


def test_unknown_knob_raises_with_field_list():
    with pytest.raises(TypeError) as exc:
        repro.compile(PATTERNS, shceme=Scheme.SR)
    assert "shceme" in str(exc.value)
    assert "scheme" in str(exc.value)              # valid fields listed


def test_matcher_stream_is_streaming_session():
    matcher = repro.compile(PATTERNS, geometry=TINY)
    session = matcher.stream()
    merged = ScanReport(pattern_count=matcher.pattern_count)
    for start in range(0, len(DATA), 7):
        merged.merge(session.feed(DATA[start:start + 7]))
    assert merged == matcher.scan(DATA).matches


def test_matcher_scan_many():
    matcher = repro.compile(PATTERNS, geometry=TINY)
    streams = [DATA, DATA[:10], b""]
    reports = matcher.scan_many(streams)
    assert len(reports) == 3
    for stream, report in zip(streams, reports):
        assert report == matcher.scan(stream).matches


def test_per_scan_knob_override():
    matcher = repro.compile(PATTERNS, geometry=TINY)
    report = matcher.scan(DATA, prefilter=True)
    assert matcher.engine.last_prefilter is not None   # the gate ran
    assert report == matcher.scan(DATA).matches    # bit-identical


def test_fingerprint_stable_and_config_sensitive():
    a = repro.compile(PATTERNS, geometry=TINY)
    b = repro.compile(PATTERNS, geometry=TINY)
    c = repro.compile(PATTERNS, geometry=TINY, merge_size=4)
    d = repro.compile(PATTERNS[:2], geometry=TINY)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()      # compile key differs
    assert a.fingerprint() != d.fingerprint()      # patterns differ
    # pool knobs are not part of the compiled artefact's identity
    e = repro.compile(PATTERNS, geometry=TINY, workers=4,
                      executor="thread")
    assert a.fingerprint() == e.fingerprint()


def test_facade_names_are_lazy_exports():
    assert "compile" in dir(repro)
    assert "scan" in dir(repro)
    assert "Matcher" in dir(repro)
