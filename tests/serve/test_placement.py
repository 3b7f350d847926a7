"""Where a gateway request runs.

Contract: a request that cannot compile (its engine is resident, or it
feeds or closes an open session), whose engine runs the compiled
backend and whose payload is shorter than the gateway's
``INLINE_LIMIT_BYTES`` runs on the event-loop thread while nothing
else runs off it; a registry miss, a simulated engine, a larger
payload, or a request placed while one of those runs goes to the
off-loop pool.  A request refused at placement is answered on the
loop, under its own ``serve.request`` span.  The answer never depends
on where it ran, ``repro_serve_loop_offload_total`` counts exactly the
off-loop runs, and a resident engine never generates code.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

import repro
from repro import obs
from repro.backend import kernel_cache
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.serve import Gateway, ServeConfig
from repro.serve import gateway as gateway_mod
from repro.serve.config import SessionLimitError, UnknownSessionError
from repro.serve.host import EngineHost

PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]"]
DATA = b"abcbcd cat 42 dog abcd and 7 cats, 99 dogs; abcbcbcd"
SMALL = ScanConfig(backend="compiled")
#: over the inline limit the tests set: DATA runs inline, LARGE does not
LARGE = DATA * 2

OFFLOADED = obs.registry().counter("repro_serve_loop_offload_total")


@pytest.fixture(autouse=True)
def inline_limit(monkeypatch):
    monkeypatch.setattr(gateway_mod, "INLINE_LIMIT_BYTES", len(DATA) + 1)


def run(coro):
    return asyncio.run(coro)


def test_warm_small_requests_run_on_the_loop_and_the_rest_off_it(
        tmp_path):
    log = tmp_path / "access.jsonl"
    expected = [("scan", True),      # miss: compiles
                ("scan", False), ("compile", False), ("open", False),
                ("feed", False), ("feed", True),     # LARGE chunk
                ("close", False),
                ("scan", True),      # LARGE payload
                ("compile", True)]   # another tenant: a miss

    async def main():
        gw = Gateway(ServeConfig(scan=SMALL, access_log_path=str(log)))
        loop_thread = threading.get_ident()
        before = OFFLOADED.value() or 0
        cold = await gw.scan("t", PATTERNS, DATA)
        warm = await gw.scan("t", PATTERNS, DATA)
        await gw.compile("t", PATTERNS)
        opened = await gw.open_session("t", PATTERNS)
        fed = await gw.feed("t", opened["session"], DATA)
        fed_large = await gw.feed("t", opened["session"], LARGE)
        await gw.close_session("t", opened["session"])
        large = await gw.scan("t", PATTERNS, LARGE)
        await gw.compile("u", PATTERNS)
        offloads = OFFLOADED.value() - before
        await gw.close()
        return (loop_thread, offloads,
                (cold, warm, fed, fed_large, large))

    obs.start_tracing(obs.Tracer())
    try:
        loop_thread, offloads, answers = run(main())
        spans = obs.stop_tracing()
    finally:
        obs.stop_tracing()
    requests = sorted((s for s in spans if s["name"] == "serve.request"),
                      key=lambda s: s["ts"])
    assert [(s["attrs"]["op"], s["attrs"]["offloaded"])
            for s in requests] == expected
    for span in requests:
        on_loop = span["tid"] == loop_thread
        assert on_loop is not span["attrs"]["offloaded"], span
    assert offloads == sum(off for _, off in expected)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["op"], r["offloaded"]) for r in records] == expected

    cold, warm, fed, fed_large, large = answers
    reference = repro.scan(PATTERNS, DATA, config=SMALL)
    assert cold == warm == fed == reference.matches
    assert large == repro.scan(PATTERNS, LARGE, config=SMALL).matches
    stream = repro.scan(PATTERNS, DATA + LARGE, config=SMALL).matches
    assert {p: ends for p, ends in fed_large.matches.items() if ends} == \
        {p: [e for e in ends if e >= len(DATA)]
         for p, ends in stream.items()
         if any(e >= len(DATA) for e in ends)}


def test_one_warm_scan_is_one_hit_and_one_use():
    events = obs.registry().counter("repro_serve_engine_events_total")

    async def main():
        gw = Gateway(ServeConfig(scan=SMALL))
        await gw.compile("t", PATTERNS)
        (entry,) = gw.host.stats()["engines"]
        hits = events.value(event="hit") or 0
        await gw.scan("t", PATTERNS, DATA)
        (after,) = gw.host.stats()["engines"]
        hit_delta = events.value(event="hit") - hits
        await gw.close()
        return after["uses"] - entry["uses"], hit_delta

    assert run(main()) == (1, 1)


def test_warm_scans_leave_the_loop_while_a_cold_compile_runs():
    """Tenant B scans back to back, unpaced, while tenant A's cold
    compile of 1,000 signature-shaped rules runs off the loop.  B's
    scans placed during the compile run off the loop too, so the loop
    idles and the compile keeps its share of the GIL: it finishes
    within a small multiple of its time alone.  (When such scans ran
    on a loop that never idled, the same compile took 13-32 times as
    long.)  B's scans are still answered before the compile ends."""
    rules = [f"[a-y][a-y0-9]*z{index % 7}q" if index % 50 == 49
             else f"sig{index:05d}[0-9]+x" for index in range(1000)]
    kernel_cache().clear()
    alone_s = EngineHost(ServeConfig()).acquire("a", rules).compiled_s
    kernel_cache().clear()

    async def main():
        gw = Gateway(ServeConfig())
        await gw.compile("b", PATTERNS)
        compiling = asyncio.ensure_future(gw.compile("a", rules))
        while not compiling.done():
            report = await gw.scan("b", PATTERNS, DATA)
            assert report.match_count() > 0
        compiled = await compiling
        await gw.close()
        return compiled["compiled_s"]

    obs.start_tracing(obs.Tracer())
    try:
        loaded_s = run(main())
        spans = obs.stop_tracing()
    finally:
        obs.stop_tracing()
    requests = [s for s in spans if s["name"] == "serve.request"]
    (compile_span,) = [s for s in requests if s["attrs"]["tenant"] == "a"]
    begin = compile_span["ts"]
    end = begin + compile_span["dur"]
    during = [s for s in requests
              if s["attrs"]["tenant"] == "b" and s["attrs"]["op"] == "scan"
              and begin < s["ts"] and s["ts"] + s["dur"] < end]
    assert during, "no warm scan was answered during the compile"
    assert all(s["attrs"]["offloaded"] for s in during)
    assert loaded_s < 4 * alone_s, (loaded_s, alone_s)


def test_warm_simulated_requests_run_off_the_loop():
    """A simulated scan takes milliseconds to seconds (6 s for a
    40 KB input), so a simulated engine's requests never run on the
    loop, warm and short as they are."""
    simulate = ScanConfig(backend="simulate")

    async def main():
        gw = Gateway(ServeConfig(scan=simulate))
        before = OFFLOADED.value() or 0
        await gw.compile("t", PATTERNS)
        warm = await gw.scan("t", PATTERNS, DATA)
        opened = await gw.open_session("t", PATTERNS)
        fed = await gw.feed("t", opened["session"], DATA)
        await gw.close_session("t", opened["session"])
        offloads = OFFLOADED.value() - before
        await gw.close()
        return offloads, warm, fed

    offloads, warm, fed = run(main())
    assert offloads == 5
    reference = repro.scan(PATTERNS, DATA, backend="compiled").matches
    assert warm == fed == reference


def test_refused_requests_are_answered_on_the_loop_under_a_span(
        tmp_path):
    """A feed or close of an unknown session and an open past the
    session cap are refused at placement, on the loop; each still gets
    a ``serve.request`` span, and its access-log record that span's
    trace and span ids."""
    log = tmp_path / "access.jsonl"

    async def main():
        gw = Gateway(ServeConfig(scan=SMALL, max_sessions=1,
                                 access_log_path=str(log)))
        loop_thread = threading.get_ident()
        before = OFFLOADED.value() or 0
        await gw.open_session("t", PATTERNS)
        with pytest.raises(SessionLimitError):
            await gw.open_session("t", PATTERNS)
        with pytest.raises(UnknownSessionError):
            await gw.feed("t", "no-such-session", DATA)
        with pytest.raises(UnknownSessionError):
            await gw.close_session("t", "no-such-session")
        offloads = OFFLOADED.value() - before
        await gw.close()
        return loop_thread, offloads

    tracer = obs.start_tracing(obs.Tracer())
    try:
        loop_thread, offloads = run(main())
        spans = obs.stop_tracing()
    finally:
        obs.stop_tracing()
    assert offloads == 1  # the first open's compile
    refused = sorted((s for s in spans if s["name"] == "serve.request"
                      and "error" in s["attrs"]), key=lambda s: s["ts"])
    assert [(s["attrs"]["op"], s["attrs"]["error"]) for s in refused] == [
        ("open", "SessionLimitError"), ("feed", "UnknownSessionError"),
        ("close", "UnknownSessionError")]
    assert all(s["tid"] == loop_thread and not s["attrs"]["offloaded"]
               for s in refused)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    errors = [r for r in records if r["outcome"] != "ok"]
    assert [(r["op"], r["outcome"], r["trace"], r["span"])
            for r in errors] == [
        (s["attrs"]["op"], "session-limit" if s["attrs"]["op"] == "open"
         else "unknown-session", tracer.trace_id, s["id"])
        for s in refused]


def test_resident_compiled_engine_generates_no_code():
    """A compile builds every kernel, class-table kernels included, so
    the first scan on the resident engine generates nothing."""
    cache = kernel_cache()
    cache.clear()

    async def main():
        gw = Gateway(ServeConfig())
        await gw.compile("t", PATTERNS)
        misses = cache.stats.misses
        obs.start_tracing(obs.Tracer())
        try:
            report = await gw.scan("t", PATTERNS, DATA)
        finally:
            spans = obs.stop_tracing()
        await gw.close()
        return report, cache.stats.misses - misses, spans

    report, misses, spans = run(main())
    assert misses == 0
    assert not [s for s in spans if s["name"] == "codegen"]
    assert report.match_count() > 0


def test_simulated_gateway_answers_loops_longer_than_a_block():
    """Hosted engines compile with ``loop_fallback``: a loop whose
    window outgrows one block (Section 8.2's overlap limit) is a
    legitimate input, not an ``internal`` error.  4x8-bit CTAs keep
    the block at 32 bits, so 83 bytes outgrow it."""
    simulate = ScanConfig(backend="simulate",
                          geometry=CTAGeometry(threads=4, word_bits=8))
    data = b"x" + b"ab" * 40 + b"c" + b"x"

    async def main():
        gw = Gateway(ServeConfig(scan=simulate))
        report = await gw.scan("t", ["x(ab)*c"], data)
        state = gw.breaker.state()
        await gw.close()
        return report, state

    report, state = run(main())
    assert report == repro.scan(["x(ab)*c"], data,
                                backend="compiled").matches
    assert report.match_count() == 1
    assert state == "closed"
