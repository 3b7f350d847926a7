"""``python -m repro serve`` — run (or self-test) the gateway.

Foreground server::

    python -m repro serve --port 8321 --max-engines 16 --deadline 2.0 \
        --metrics-port 9321

Self-test (CI smoke)::

    python -m repro serve --self-test

The self-test starts a server on an ephemeral port, drives a client
through the full protocol — ping, compile, one-shot scan, a chunked
streaming session, an error path, a ``/metrics`` scrape — and checks
the results against an inline :func:`repro.scan` of the same input.
Exit code 0 means every check passed; 1 means a mismatch or failure,
with the reason on stderr.  The whole round-trip runs under a deadline
(``--self-test-timeout``): a hang exits 1 with the wire error code
(``deadline``) on stderr instead of wedging CI.  It is the cheapest
end-to-end proof that the serving path still returns exactly what the
engine returns.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List

from ..core.schemes import Scheme
from ..parallel.config import BACKENDS, EXECUTORS, ScanConfig
from .config import ServeConfig

SELF_TEST_PATTERNS = ["a(bc)*d", "cat|dog", "[0-9][0-9]"]
SELF_TEST_DATA = b"abcbcd cat 42 dog abcd and 7 cats, 99 dogs; abcbcbcd"

#: serve-layer series the self-test asserts appear on /metrics
SELF_TEST_SERIES = ("repro_serve_requests_total",
                    "repro_serve_tenant_requests_total",
                    "repro_serve_slo_burn")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the persistent-engine matching gateway "
                    "(JSONL over TCP; see repro.serve).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--max-engines", type=int, default=8,
                        help="resident compiled engines before LRU "
                             "eviction")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="per-tenant admission high-water mark")
    parser.add_argument("--max-sessions", type=int, default=4096,
                        help="gateway-wide open-session cap")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-request deadline")
    parser.add_argument("--workers", type=int, default=1,
                        help="scan worker shards (1 = serial)")
    parser.add_argument("--executor", choices=EXECUTORS,
                        default="process")
    parser.add_argument("--backend", choices=BACKENDS,
                        default="compiled",
                        help="execution backend (default: compiled; "
                             "simulate also models the GPU schedule, "
                             "several times slower)")
    parser.add_argument("--scheme", choices=[s.name for s in Scheme],
                        default="ZBS")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus /metrics (and /healthz) "
                             "on this HTTP port (0 = ephemeral)")
    parser.add_argument("--access-log", default=None, metavar="PATH",
                        help="write per-request JSONL access logs here "
                             "(bounded non-blocking ring writer)")
    parser.add_argument("--session-idle", type=float, default=None,
                        metavar="SECONDS",
                        help="evict streaming sessions idle longer "
                             "than this")
    parser.add_argument("--slo-target", type=float, default=0.25,
                        metavar="SECONDS",
                        help="request-latency SLO target for the "
                             "rolling p50/p99/burn gauges")
    parser.add_argument("--no-offload", action="store_true",
                        help="run scans inline on the event loop "
                             "instead of the warm offload pool")
    parser.add_argument("--self-test", action="store_true",
                        help="start on an ephemeral port, run a client "
                             "round-trip, and exit 0/1")
    parser.add_argument("--self-test-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="deadline for the whole self-test "
                             "round-trip; on expiry exit 1 with the "
                             "wire code on stderr")
    return parser


def serve_config_from_args(args) -> ServeConfig:
    scan = ScanConfig(scheme=Scheme[args.scheme], backend=args.backend,
                      workers=args.workers, executor=args.executor,
                      loop_fallback=True)
    return ServeConfig(max_engines=args.max_engines,
                       queue_depth=args.queue_depth,
                       max_sessions=args.max_sessions,
                       deadline_s=args.deadline,
                       metrics_port=args.metrics_port,
                       access_log_path=args.access_log,
                       session_idle_s=args.session_idle,
                       slo_target_s=args.slo_target,
                       offload=not args.no_offload,
                       scan=scan)


async def _self_test_body(config: ServeConfig,
                          failures: List[str]) -> int:
    import repro
    from .server import GatewayClient, GatewayServer
    from .telemetry import scrape_metrics

    server = await GatewayServer(config=config, port=0).start()
    client = await GatewayClient("127.0.0.1", server.port).connect()
    match_count = 0
    try:
        pong = await client.ping()
        if not pong.get("ok"):
            failures.append(f"ping failed: {pong}")

        reference = repro.scan(SELF_TEST_PATTERNS, SELF_TEST_DATA,
                               config=config.scan.serial())
        match_count = reference.match_count()
        expected = {p: list(ends) for p, ends in reference.matches.items()
                    if ends}

        compiled = await client.request(
            "compile", tenant="selftest", patterns=SELF_TEST_PATTERNS)
        if not compiled.get("fingerprint"):
            failures.append(f"compile returned no fingerprint: {compiled}")

        scanned = await client.scan("selftest", SELF_TEST_PATTERNS,
                                    SELF_TEST_DATA)
        got = {int(k): v for k, v in scanned["matches"].items()}
        if got != expected:
            failures.append(
                f"one-shot scan mismatch: {got} != {expected}")

        sid = await client.open_session("selftest", SELF_TEST_PATTERNS)
        streamed: dict = {}
        for start in range(0, len(SELF_TEST_DATA), 7):
            fed = await client.feed("selftest", sid,
                                    SELF_TEST_DATA[start:start + 7])
            for k, ends in fed["matches"].items():
                streamed.setdefault(int(k), []).extend(ends)
        summary = await client.close_session("selftest", sid)
        if streamed != expected:
            failures.append(
                f"streaming session mismatch: {streamed} != {expected}")
        if summary.get("matches") != reference.match_count():
            failures.append(f"session summary mismatch: {summary}")

        try:
            await client.feed("selftest", "no-such-session", b"x")
            failures.append("feed to unknown session did not error")
        except Exception as exc:
            if getattr(exc, "code", None) != "unknown-session":
                failures.append(f"wrong error for unknown session: {exc}")

        stats = await client.request("stats")
        if stats.get("host", {}).get("resident", 0) < 1:
            failures.append(f"no resident engine after serving: {stats}")

        if server.metrics is not None:
            status, body = await scrape_metrics(
                server.metrics.host, server.metrics.port)
            if status != 200:
                failures.append(f"/metrics returned {status}")
            for series in SELF_TEST_SERIES:
                if series not in body:
                    failures.append(
                        f"/metrics missing series {series}")
    finally:
        await client.close()
        await server.stop()
    return match_count


async def _self_test(config: ServeConfig,
                     timeout_s: float = 60.0) -> int:
    if config.metrics_port is None:
        # The self-test always exercises the metrics endpoint, on an
        # ephemeral port unless the caller pinned one.
        config = config.replace(metrics_port=0)
    failures: List[str] = []
    try:
        match_count = await asyncio.wait_for(
            _self_test_body(config, failures), timeout=timeout_s)
    except asyncio.TimeoutError:
        print(f"self-test FAIL: deadline: round-trip exceeded "
              f"{timeout_s}s (wire code: deadline)", file=sys.stderr)
        return 1
    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"self-test OK: {match_count} matches, "
          f"bit-identical over one-shot and streaming paths")
    return 0


async def _serve_forever(config: ServeConfig, host: str,
                         port: int) -> int:
    from .server import GatewayServer

    server = await GatewayServer(config=config, host=host,
                                 port=port).start()
    print(f"repro serve: listening on {host}:{server.port} "
          f"(engines<={config.max_engines}, "
          f"queue<={config.queue_depth}/tenant)")
    if server.metrics is not None:
        print(f"repro serve: metrics at {server.metrics.url}")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown race
        pass
    finally:
        await server.stop()
    return 0


def serve_main(argv: List[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    config = serve_config_from_args(args)
    if args.self_test:
        return asyncio.run(_self_test(config, args.self_test_timeout))
    try:
        return asyncio.run(
            _serve_forever(config, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
