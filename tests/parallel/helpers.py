"""Shared fixtures for the process-pool scan tests: a tiny engine, the
inputs it scans, and the signature two results must share."""

from __future__ import annotations

from repro.core.engine import BitGenEngine
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig

TINY = CTAGeometry(threads=4, word_bits=8)

PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]", "foo"]
DATA = b"abcbcd cat 42 foo dog abcd " * 30
STREAMS = [DATA[:50], DATA[:120], DATA[:50], DATA[:200], DATA[:120]]


def build(**dispatch):
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
