"""Serving telemetry: /metrics endpoint, SLO tracking, access logs,
offload accounting, and idle-session eviction."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.serve import (Gateway, ServeConfig, SloTracker,
                         UnknownSessionError)
from repro.serve.telemetry import (MAX_TENANT_SERIES, OTHER_TENANT,
                                   MetricsServer, quantile,
                                   scrape_metrics)

TINY = CTAGeometry(threads=4, word_bits=8)
CONFIG = ScanConfig(geometry=TINY)
PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]"]
DATA = b"abcbcd cat 42 dog abcd and 7 cats, 99 dogs; abcbcbcd"


def run(coro):
    return asyncio.run(coro)


def gateway(**changes) -> Gateway:
    changes.setdefault("scan", CONFIG)
    return Gateway(ServeConfig(**changes))


# -- SloTracker ---------------------------------------------------------------


def test_quantile_nearest_rank():
    assert quantile([], 0.5) == 0.0
    assert quantile([3.0], 0.99) == 3.0
    values = [float(i) for i in range(1, 101)]
    assert quantile(values, 0.50) == values[round(0.50 * 99)]
    assert quantile(values, 0.99) == values[round(0.99 * 99)]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 100.0


def test_slo_tracker_windows_and_burn():
    clock = {"now": 1000.0}
    tracker = SloTracker(target_s=0.1, window_s=10.0,
                         error_budget=0.01,
                         clock=lambda: clock["now"])
    for _ in range(97):
        assert not tracker.observe("t", 0.01, ok=True)
    assert tracker.observe("t", 0.5, ok=True)     # slow -> violation
    assert tracker.observe("t", 0.5, ok=True)     # slow -> violation
    assert tracker.observe("t", 0.01, ok=False)   # failed -> violation
    row = tracker.snapshot()["t"]
    assert row["count"] == 100
    assert row["violations"] == 3
    assert row["violation_ratio"] == pytest.approx(0.03)
    # 3% violations against a 1% budget burns at 3x
    assert row["burn"] == pytest.approx(3.0)
    assert row["p50_s"] == pytest.approx(0.01)
    assert row["p99_s"] == pytest.approx(0.5)  # the slow tail shows
    # the window slides: past the horizon everything ages out
    clock["now"] += 11.0
    tracker.observe("t", 0.01, ok=True)
    row = tracker.snapshot()["t"]
    assert row["count"] == 1 and row["violations"] == 0


def test_slo_tracker_caps_tenant_cardinality():
    tracker = SloTracker(target_s=0.1, window_s=60.0,
                         error_budget=0.01, max_tenants=3)
    for index in range(10):
        tracker.observe(f"tenant-{index}", 0.01, ok=True)
    snapshot = tracker.snapshot()
    assert len(snapshot) == 4  # 3 real tenants + the overflow bucket
    assert snapshot[OTHER_TENANT]["count"] == 7
    # known tenants keep their own series
    tracker.observe("tenant-0", 0.01, ok=True)
    assert tracker.snapshot()["tenant-0"]["count"] == 2
    assert MAX_TENANT_SERIES >= 3


def test_slo_refresh_exports_gauges():
    tracker = SloTracker(target_s=0.001, window_s=60.0,
                         error_budget=0.5)
    tracker.observe("gauge-tenant", 1.0, ok=True)
    tracker.refresh()
    reg = obs.registry()
    burn = reg.gauge("repro_serve_slo_burn").value(tenant="gauge-tenant")
    assert burn == pytest.approx(2.0)  # ratio 1.0 / budget 0.5
    p99 = reg.gauge("repro_serve_slo_p99_seconds").value(
        tenant="gauge-tenant")
    assert p99 == pytest.approx(1.0)


# -- MetricsServer ------------------------------------------------------------


def test_metrics_endpoint_serves_live_registry():
    async def main():
        gw = gateway()
        server = await MetricsServer(
            port=0, refresh=gw.telemetry.refresh).start()
        await gw.scan("scrape-tenant", PATTERNS, DATA)
        status, body = await scrape_metrics("127.0.0.1", server.port)
        health_status, health = await scrape_metrics(
            "127.0.0.1", server.port, path="/healthz")
        missing_status, _ = await scrape_metrics(
            "127.0.0.1", server.port, path="/nope")
        await server.stop()
        await gw.close()
        return status, body, health_status, health, missing_status

    status, body, health_status, health, missing_status = run(main())
    assert status == 200
    assert "# TYPE repro_serve_requests_total counter" in body
    assert ('repro_serve_tenant_requests_total{outcome="ok",'
            'tenant="scrape-tenant"}') in body
    # refresh ran: the rolling gauges exist for the tenant
    assert 'repro_serve_slo_burn{tenant="scrape-tenant"}' in body
    assert health_status == 200
    assert json.loads(health) == {"ok": True}
    assert missing_status == 404


def test_scrape_counter_and_content_type():
    async def main():
        server = await MetricsServer(port=0).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        raw = await reader.read(-1)
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return raw

    raw = run(main())
    head = raw.split(b"\r\n\r\n", 1)[0].decode()
    assert "text/plain; version=0.0.4; charset=utf-8" in head
    assert "Connection: close" in head
    scrapes = obs.registry().counter(
        "repro_serve_metrics_scrapes_total")
    assert scrapes.value(path="/metrics") >= 1


def test_post_is_rejected():
    async def main():
        server = await MetricsServer(port=0).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        raw = await reader.read(-1)
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return raw

    assert b"405" in run(main()).split(b"\r\n", 1)[0]


# -- gateway integration ------------------------------------------------------


def test_offload_runs_off_the_loop_and_counts():
    """A cold scan compiles, so it runs off the loop and counts; the
    same scan warm on a compiled engine runs on the loop and does
    not."""
    offloaded = obs.registry().counter("repro_serve_loop_offload_total")

    async def main():
        gw = gateway(scan=CONFIG.replace(backend="compiled"))
        before = offloaded.value() or 0
        cold = await gw.scan("t", PATTERNS, DATA)
        after_cold = offloaded.value()
        warm = await gw.scan("t", PATTERNS, DATA)
        after_warm = offloaded.value()
        await gw.close()
        return cold, warm, after_cold - before, after_warm - before

    cold, warm, after_cold, after_warm = run(main())
    assert after_cold == 1
    assert after_warm == 1  # the warm scan ran on the loop
    assert cold == warm  # bit-identical either way


def test_access_log_joins_requests_to_trace_spans(tmp_path):
    path = tmp_path / "access.jsonl"
    tracer = obs.start_tracing(obs.Tracer())

    async def main():
        gw = gateway(access_log_path=str(path))
        await gw.scan("log-tenant", PATTERNS, DATA)
        opened = await gw.open_session("log-tenant", PATTERNS)
        await gw.feed("log-tenant", opened["session"], DATA[:8])
        await gw.close_session("log-tenant", opened["session"])
        await gw.close()  # drains + closes the ring writer

    try:
        run(main())
        spans = obs.stop_tracing()
    finally:
        obs.stop_tracing()
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    assert [r["op"] for r in records] == ["scan", "open", "feed",
                                          "close"]
    scan_record = records[0]
    assert scan_record["tenant"] == "log-tenant"
    assert scan_record["outcome"] == "ok"
    assert scan_record["bytes"] == len(DATA)
    assert scan_record["fingerprint"]
    assert scan_record["latency_s"] >= scan_record["wall_s"] >= 0
    assert scan_record["queue_delay_s"] >= 0
    assert scan_record["cpu_s"] >= 0
    feed_record = records[2]
    assert feed_record["session"] == records[1]["session"]
    # trace/span ids join the access log to the Chrome trace
    request_spans = {s["id"]: s for s in spans
                     if s["name"] == "serve.request"}
    assert scan_record["trace"] == tracer.trace_id
    joined = request_spans[scan_record["span"]]
    assert joined["attrs"]["op"] == "scan"
    assert joined["attrs"]["tenant"] == "log-tenant"


def test_access_log_without_tracer_omits_span_ids(tmp_path):
    path = tmp_path / "access.jsonl"

    async def main():
        gw = gateway(access_log_path=str(path))
        await gw.scan("t", PATTERNS, DATA)
        await gw.close()

    run(main())
    (record,) = [json.loads(line)
                 for line in path.read_text().splitlines()]
    assert "trace" not in record and "span" not in record


def test_shed_requests_reach_telemetry(tmp_path):
    path = tmp_path / "access.jsonl"

    async def main():
        gw = gateway(queue_depth=2, access_log_path=str(path))
        await gw.compile("burst", PATTERNS)
        results = await asyncio.gather(
            *(gw.scan("burst", PATTERNS, DATA) for _ in range(8)),
            return_exceptions=True)
        await gw.close()
        return results

    results = run(main())
    shed = sum(1 for r in results if isinstance(r, Exception))
    assert shed > 0
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    assert sum(1 for r in records if r["outcome"] == "overloaded") \
        == shed
    slo = obs.registry().counter("repro_serve_slo_violations_total")
    assert slo.value(tenant="burst") >= shed  # sheds violate the SLO


def test_stats_carries_telemetry_block():
    async def main():
        gw = gateway()
        await gw.scan("stats-tenant", PATTERNS, DATA)
        stats = gw.stats()
        await gw.close()
        return stats

    stats = run(main())
    telemetry = stats["telemetry"]
    assert telemetry["slo_target_s"] == 0.25
    assert telemetry["slo"]["stats-tenant"]["count"] == 1


# -- idle-session eviction ----------------------------------------------------


def test_idle_sessions_are_evicted():
    evicted = obs.registry().counter(
        "repro_serve_sessions_evicted_total")

    async def main():
        gw = gateway(session_idle_s=0.05)
        opened = await gw.open_session("t", PATTERNS)
        await gw.feed("t", opened["session"], DATA[:8])
        await asyncio.sleep(0.15)  # reaper interval is idle/4
        count = gw.evict_idle_sessions()  # deterministic backstop
        with pytest.raises(UnknownSessionError):
            await gw.feed("t", opened["session"], DATA[:8])
        stats = gw.stats()
        await gw.close()
        return count, stats

    before = evicted.value(reason="idle") or 0
    count, stats = run(main())
    assert stats["sessions"] == 0
    assert evicted.value(reason="idle") == before + 1
    assert count <= 1  # the reaper may have beaten the explicit sweep


def test_active_sessions_survive_the_reaper():
    async def main():
        gw = gateway(session_idle_s=10.0)
        opened = await gw.open_session("t", PATTERNS)
        assert gw.evict_idle_sessions() == 0
        report = await gw.feed("t", opened["session"], DATA)
        await gw.close_session("t", opened["session"])
        await gw.close()
        return report

    report = run(main())
    assert report.match_count() > 0


def test_shutdown_accounts_dropped_sessions():
    evicted = obs.registry().counter(
        "repro_serve_sessions_evicted_total")

    async def main():
        gw = gateway()
        await gw.open_session("t", PATTERNS)
        await gw.close()

    before = evicted.value(reason="shutdown") or 0
    run(main())
    assert evicted.value(reason="shutdown") == before + 1
