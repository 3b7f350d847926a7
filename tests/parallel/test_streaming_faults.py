"""Streaming sessions under injected faults.

``parallel_sessions`` runs one full :class:`StreamingMatcher` session
per worker (``run_session``); chaos at ``worker.session`` exercises
every recovery path — exception, timeout, worker exit — and each must
come back **bit-identical** to feeding the same chunks through a
serial matcher, with the faults attached to the reports they
degraded.
"""

from __future__ import annotations

import pytest

from repro.core.engine import BitGenEngine
from repro.core.streaming import StreamingMatcher
from repro.parallel.config import ScanConfig
from repro.parallel.pool import shutdown
from repro.parallel.scan import parallel_sessions
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan, ChaosRule

from .helpers import TINY

PATTERNS = ["virus[0-9]", "a(bc)*d", "cat|dog"]

#: three logical streams, chunked so matches straddle chunk borders
SESSIONS = [
    [b"xx virus1 y", b"y virus2 abcb", b"cd trailer virus3"],
    [b"hot dog abc", b"bcd cat virus7 ", b"abcd" * 8],
    [b"no matches here at all", b"still none", b"virus9 at last"],
]


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


def compile_engine():
    return BitGenEngine.compile(
        PATTERNS, config=ScanConfig(geometry=TINY, loop_fallback=True))


def serial_reports(engine):
    reports = []
    for chunks in SESSIONS:
        matcher = StreamingMatcher(engine,
                                   config=engine.config.serial())
        reports.append(matcher.feed_all(chunks))
    return reports


def session_config(**extra):
    defaults = dict(geometry=TINY, loop_fallback=True, workers=2,
                    executor="thread", min_parallel_bytes=0)
    defaults.update(extra)
    return ScanConfig(**defaults)


def assert_identical(parallel, serial):
    assert len(parallel) == len(serial)
    for got, want in zip(parallel, serial):
        assert got == want                       # matches, bit for bit
        assert got.stream_offset == want.stream_offset


def test_sessions_recover_from_worker_exception():
    engine = compile_engine()
    want = serial_reports(engine)
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.session", kind="exception",
                  max_count=2),)))
    reports = parallel_sessions(engine, SESSIONS, session_config())
    assert_identical(reports, want)
    assert engine.last_scan_faults
    assert {f.kind for f in engine.last_scan_faults} == {"error"}
    # Each fault rides on the report of the session it degraded.
    for fault in engine.last_scan_faults:
        assert fault in reports[fault.shard].faults


def test_sessions_recover_from_worker_timeout(monkeypatch):
    engine = compile_engine()
    want = serial_reports(engine)
    monkeypatch.setenv(chaos.SLEEP_ENV, "0.75")
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.session:timeout:1.0:1")
    reports = parallel_sessions(
        engine, SESSIONS,
        session_config(executor="process", worker_timeout=0.25))
    assert_identical(reports, want)
    assert engine.last_scan_faults
    assert "timeout" in {f.kind for f in engine.last_scan_faults}


def test_sessions_recover_from_worker_exit(monkeypatch):
    engine = compile_engine()
    want = serial_reports(engine)
    monkeypatch.setenv(chaos.CHAOS_ENV, "worker.session:exit:1.0:1")
    reports = parallel_sessions(engine, SESSIONS,
                                session_config(executor="process"))
    assert_identical(reports, want)
    assert engine.last_scan_faults
    # A worker exit breaks the whole pool: every unfinished session
    # recovers inline as a pool fault.
    assert {f.kind for f in engine.last_scan_faults} <= {"pool", "error"}


def test_sessions_retry_policy_recovers_transient_fault():
    engine = compile_engine()
    want = serial_reports(engine)
    chaos.install(ChaosPlan(rules=(
        ChaosRule(site="worker.session", kind="exception",
                  max_count=1),)))
    reports = parallel_sessions(
        engine, SESSIONS,
        session_config(on_fault="retry", max_retries=1,
                       retry_backoff=0.01))
    assert_identical(reports, want)
    fault, = engine.last_scan_faults
    assert fault.fallback == "retry"
    assert fault.retries == 1
    assert fault in reports[fault.shard].faults


def test_sessions_under_thread_exit_are_not_tested():
    """Documented non-goal: ``exit`` chaos in a *thread* executor
    would ``os._exit`` the test process itself — the soak matrix
    skips that cell on purpose, and so does this module."""
    rule = ChaosRule(site="worker.session", kind="exit")
    assert rule.matches("worker.session")   # the rule is expressible…
    # …but only ever armed against process executors.


def teardown_module(module):
    shutdown()
