"""Served workloads: serve-scan and serve-stream.

The program under test is a ``python -m repro serve`` subprocess at CLI
defaults (simulate backend), plus an ephemeral ``/metrics`` port.  The
load generator is this process: one asyncio thread speaking the JSONL
wire protocol over at most two TCP connections.

Both workloads are closed loops: each caller sends its next request
when the previous answer arrives.  Open-loop latency at a fixed rate
did not repeat on the 2-CPU development host: requests arriving after
an idle gap ran up to twice as slow as back-to-back ones, and the share
of slow ones followed the host's load, so the median swung between 10
and 17 ms from run to run at 25 requests/s and between 12 and 22 ms at
40 requests/s.

A traced run adds ``--access-log`` to the server and scrapes
``/metrics`` once at the end, then replays the layers in this process.
The server runs without ``REPRO_TRACE``: ``BitGenEngine.scan`` walks
every span recorded so far to fill ``ScanReport.trace``, so a server
tracing for its whole life slows down with every request and its
numbers would no longer describe the plain server.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import re
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.api import fingerprint_patterns
from repro.serve import protocol
from repro.serve.cli import build_serve_parser, serve_config_from_args
from repro.serve.host import EngineHost
from repro.serve.telemetry import scrape_metrics

from common import (Stopwatch, compile_layers, format_stage_table,
                    format_tail, hermetic_env, mean, median, peak_rss_mb,
                    percentile, run_record, stage_table, tail)
from reference import prefix
from workloads import CHUNK_BYTES, admin_rules

#: serve-scan: concurrent callers, each owning every second tenant, so
#: two tenant lanes always run
SCAN_CALLERS = 2
#: serve-stream: concurrent sessions per tenant
SESSIONS_PER_TENANT = 2
#: seconds between the admin tenant's fresh compiles (a compile takes
#: 0.30-0.35 s of server time beside the feeds on the 2-CPU
#: development host, so about 80 feeds of a 10 s window overlap one)
ADMIN_INTERVAL_S = 2.0
STARTUP_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, proc, port: int, metrics_port: int):
        self.proc = proc
        self.port = port
        self.metrics_port = metrics_port

    @classmethod
    async def start(cls, work: Path, rep: int,
                    access_log: Optional[Path] = None) -> "Server":
        env = hermetic_env(REPRO_KERNEL_CACHE=str(work / f"kernels-{rep}"))
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--metrics-port", "0"]
        if access_log is not None:
            argv += ["--access-log", str(access_log)]
        with open(work / f"server-{rep}.stderr", "wb") as stderr:
            proc = await asyncio.create_subprocess_exec(
                *argv, stdout=asyncio.subprocess.PIPE, stderr=stderr,
                env=env)
        server = cls(proc, 0, 0)
        try:
            while not (server.port and server.metrics_port):
                line = (await asyncio.wait_for(proc.stdout.readline(),
                                               STARTUP_TIMEOUT_S)).decode()
                if not line:
                    raise RuntimeError("server exited during start-up")
                port = re.search(r":(\d+)", line)
                if "listening on" in line and port:
                    server.port = int(port.group(1))
                elif "metrics at" in line and port:
                    server.metrics_port = int(port.group(1))
        except BaseException:
            await server.stop()
            raise
        return server

    async def stop(self) -> None:
        """SIGINT lets the server flush its access log; a server that
        does not stop is killed."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(self.proc.wait(), 30)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()


class Client:
    """Pipelining JSONL client; ``call`` returns ``(response, seconds)``,
    error responses included.

    The load generator does not use ``repro.serve.server.GatewayClient``
    so that no change under ``src/`` can alter the offered load or how
    it is timed."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.ids = 0
        self.waiters: Dict[int, asyncio.Future] = {}
        self.pump = asyncio.ensure_future(self._read())
        #: a sample of sent request lines, for the decode replay
        self.lines: List[bytes] = []

    @classmethod
    async def connect(cls, port: int) -> "Client":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            response = json.loads(line)
            waiter = self.waiters.pop(response.get("id"), None)
            if waiter is not None:
                waiter.set_result(response)
        for waiter in self.waiters.values():
            waiter.set_result({"ok": False, "error": "disconnected"})

    async def call(self, op: str, **fields) -> Tuple[dict, float]:
        self.ids += 1
        payload = {"id": self.ids, "op": op, **fields}
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        if op in ("scan", "feed") and len(self.lines) < 64:
            self.lines.append(line)
        future = asyncio.get_running_loop().create_future()
        self.waiters[self.ids] = future
        begin = time.perf_counter()
        self.writer.write(line)
        response = await future
        return response, time.perf_counter() - begin

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
        await self.pump


def encoded(data: bytes) -> str:
    return base64.b64encode(data).decode()


def ends_of(response) -> Dict[str, List[int]]:
    return {p: list(e) for p, e in response.get("matches", {}).items()}


class Ledger:
    """Every operation of a run: outcomes, latencies and mismatches."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: (latency, ok, end time) of every timed op; a failed op counts
        #: as taking the whole window
        self.timed: List[Tuple[float, bool, float]] = []
        #: payload bytes answered correctly
        self.payload_bytes = 0
        #: a sample of scan/feed responses, for the encode replay
        self.responses: List[dict] = []

    def outcome(self, response, sample: bool = False) -> bool:
        self.attempted += 1
        ok = bool(response.get("ok"))
        if not ok:
            self.failed += 1
        elif sample and len(self.responses) < 64:
            self.responses.append(response)
        return ok

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)
        self.failed += 1

    def time(self, seconds: float, ok: bool, size: int) -> None:
        self.timed.append((seconds if ok else self.window_s, ok,
                           time.perf_counter()))
        if ok:
            self.payload_bytes += size

    def latencies(self) -> List[float]:
        return [seconds for seconds, _, _ in self.timed]


# -- serve-scan ---------------------------------------------------------------


async def warm_scan(client, workload, expected, ledger) -> None:
    """Compile every tenant's rule set and scan each payload once."""
    for tenant, (patterns, _) in workload.tenants.items():
        response, _ = await client.call("compile", tenant=tenant,
                                        patterns=patterns)
        if not response.get("ok"):
            raise RuntimeError(f"compile failed: {response}")
    for tenant, (patterns, inputs) in workload.tenants.items():
        for index, data in enumerate(inputs):
            response, _ = await client.call(
                "scan", tenant=tenant, patterns=patterns, data=encoded(data))
            if not response.get("ok") or \
                    ends_of(response) != expected[tenant][index]:
                ledger.mismatches.append(f"setup: {tenant} payload {index}")


async def scan_loop(workload, expected, clients, ledger, seconds, seed):
    """SCAN_CALLERS callers on one connection, each scanning its
    tenants' payloads in a seeded order."""
    client = clients[0]
    tenants = list(workload.tenants)
    payloads = {t: [encoded(d) for d in inputs]
                for t, (_, inputs) in workload.tenants.items()}
    stop = time.perf_counter() + seconds

    async def caller(number: int) -> None:
        mine = tenants[number::SCAN_CALLERS]
        order = random.Random(f"order:{seed}:{number}")
        op = 0
        while time.perf_counter() < stop:
            tenant = mine[op % len(mine)]
            patterns, inputs = workload.tenants[tenant]
            index = order.randrange(len(inputs))
            response, taken = await client.call(
                "scan", tenant=tenant, patterns=patterns,
                data=payloads[tenant][index])
            ok = ledger.outcome(response, sample=True)
            if ok and ends_of(response) != expected[tenant][index]:
                ledger.mismatch(f"{tenant} payload {index}")
                ok = False
            ledger.time(taken, ok, len(inputs[index]))
            op += 1

    await asyncio.gather(*(caller(n) for n in range(SCAN_CALLERS)))
    return {}


# -- serve-stream -------------------------------------------------------------


async def warm_stream(client, workload, expected, ledger) -> None:
    """Compile every tenant's rule set and feed one chunk through one
    session per tenant."""
    for tenant, (patterns, streams) in workload.tenants.items():
        response, _ = await client.call("compile", tenant=tenant,
                                        patterns=patterns)
        if not response.get("ok"):
            raise RuntimeError(f"compile failed: {response}")
        opened, _ = await client.call("open", tenant=tenant,
                                      patterns=patterns)
        fed, _ = await client.call(
            "feed", tenant=tenant, session=opened.get("session", ""),
            data=encoded(streams[0][:CHUNK_BYTES]))
        await client.call("close", tenant=tenant,
                          session=opened.get("session", ""))
        if not fed.get("ok") or \
                ends_of(fed) != prefix(expected[tenant][0], CHUNK_BYTES):
            ledger.mismatches.append(f"setup: {tenant} warm feed")


class Sessions:
    """serve-stream's session slots, each running sessions back to back
    over its tenant's streams: open, feed each chunk when the previous
    answer arrives, close, check."""

    def __init__(self, workload, expected, client, ledger):
        self.workload = workload
        self.expected = expected
        self.client = client
        self.ledger = ledger
        self.window_bytes = 0
        self.chunk_bytes = 0

    async def session(self, tenant: str, stream_index: int,
                      stop: float) -> None:
        patterns, streams = self.workload.tenants[tenant]
        stream = streams[stream_index]
        ledger = self.ledger
        response, _ = await self.client.call("open", tenant=tenant,
                                             patterns=patterns)
        if not ledger.outcome(response):
            return
        sid = response["session"]
        span = response.get("guaranteed_span", 0)
        merged: Dict[str, List[int]] = {}
        fed = carried = 0
        complete = True
        for k in range(self.workload.feeds_per_session):
            if time.perf_counter() >= stop:
                break
            chunk = stream[k * CHUNK_BYTES:(k + 1) * CHUNK_BYTES]
            response, taken = await self.client.call(
                "feed", tenant=tenant, session=sid, data=encoded(chunk))
            ok = ledger.outcome(response, sample=True)
            ledger.time(taken, ok, len(chunk))
            complete &= ok
            fed += len(chunk)
            for pattern, ends in response.get("matches", {}).items():
                merged.setdefault(pattern, []).extend(ends)
            window = carried + len(chunk)
            self.window_bytes += window
            self.chunk_bytes += len(chunk)
            carried = min(window, span)
        response, _ = await self.client.call("close", tenant=tenant,
                                             session=sid)
        ledger.outcome(response)
        if complete and merged != prefix(
                self.expected[tenant][stream_index], fed):
            ledger.mismatch(f"{tenant} stream {stream_index}: "
                            f"{fed // CHUNK_BYTES} feeds")

    async def slot(self, tenant: str, first: int, stop: float) -> None:
        streams = self.workload.tenants[tenant][1]
        number = 0
        while time.perf_counter() < stop:
            await self.session(
                tenant, (first + number * SESSIONS_PER_TENANT)
                % len(streams), stop)
            number += 1


async def admin_compiles(client, sets, ledger, stop,
                         compiles: List[Tuple[float, float, float]]) -> None:
    """A fresh rule set compiled by the admin tenant every
    ADMIN_INTERVAL_S until ``stop``: (start, end, server seconds)."""
    begin = time.perf_counter() + ADMIN_INTERVAL_S / 2
    for index, patterns in enumerate(sets):
        due = begin + index * ADMIN_INTERVAL_S
        if due >= stop:
            break
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        start = time.perf_counter()
        response, _ = await client.call("compile", tenant="admin",
                                        patterns=patterns)
        if ledger.outcome(response):
            compiles.append((start, time.perf_counter(),
                             response["compiled_s"]))


async def stream_loop(workload, expected, clients, ledger, seconds, seed):
    """Every tenant's session slots on one connection, the admin's
    compiles on the other."""
    client, admin = clients
    sets = [admin_rules(seed, index)
            for index in range(int(seconds / ADMIN_INTERVAL_S) + 1)]
    sessions = Sessions(workload, expected, client, ledger)
    compiles: List[Tuple[float, float, float]] = []
    stop = time.perf_counter() + seconds
    await asyncio.gather(
        admin_compiles(admin, sets, ledger, stop, compiles),
        *(sessions.slot(tenant, j, stop) for tenant in workload.tenants
          for j in range(SESSIONS_PER_TENANT)))
    during, idle = [], []
    for latency, ok, end in ledger.timed:
        overlaps = any(start < end and end - latency < done
                       for start, done, _ in compiles)
        (during if overlaps else idle).append(latency)
    return {
        "core.streaming.rescan_ratio":
            sessions.window_bytes / max(sessions.chunk_bytes, 1),
        "serve.host.compile_p50_s": median([c[2] for c in compiles]),
        # p75: the highest percentile with ten samples beyond it among
        # the ~80 feeds that overlap a compile
        "serve.feed_p75_during_compile_s": percentile(during, 75),
        "serve.feed_p75_idle_s": percentile(idle, 75),
        "lines": [f"  feed latency during {len(compiles)} admin compiles: "
                  f"{format_tail(tail(during))}; idle: "
                  f"{format_tail(tail(idle))}"],
    }


# -- the shared skeleton ------------------------------------------------------

WARM = {"serve-scan": warm_scan, "serve-stream": warm_stream}
LOOPS = {"serve-scan": scan_loop, "serve-stream": stream_loop}
#: the op whose latency the workload reports
TIMED_OP = {"serve-scan": "scan", "serve-stream": "feed"}


async def run(workload, expected, seconds: float, trace: bool, setups: int,
              work: Path, out: Path, seed: int) -> Dict[str, object]:
    name = workload.name
    ledger = Ledger(seconds)
    access_log = work / "access.jsonl" if trace else None
    setup_seconds = []
    server = None
    clients: List[Client] = []
    try:
        for rep in range(setups):
            last = rep == setups - 1
            with obs.span("bench.setup", category="bench", rep=rep):
                with Stopwatch() as watch:
                    server = await Server.start(work, rep,
                                                access_log if last else None)
                    clients = [await Client.connect(server.port) for _ in
                               range(2 if name == "serve-stream" else 1)]
                    await WARM[name](clients[0], workload, expected, ledger)
            setup_seconds.append(watch.seconds)
            if not last:
                for client in clients:
                    await client.close()
                await server.stop()

        window_start = time.time()
        with obs.span("bench.window", category="bench"):
            with Stopwatch() as window:
                extra = await LOOPS[name](workload, expected, clients,
                                          ledger, seconds, seed)
        window_end = time.time()
        record = run_record(
            setup_seconds, ledger.payload_bytes / window.seconds / 1e6,
            ledger.latencies(), peak_rss_mb(server.proc.pid),
            ledger.attempted, ledger.failed, ledger.mismatches)
        if trace:
            _, scraped = await scrape_metrics("127.0.0.1",
                                              server.metrics_port)
    finally:
        for client in clients:
            await client.close()
        if server is not None:
            await server.stop()
    if trace:
        layers = served_layers(workload, expected, ledger, clients[0],
                               scraped, access_log, window_start, window_end,
                               record["lines"])
        record["lines"].extend(extra.pop("lines", []))
        layers.update(extra)
        trace_path = out / f"trace-{name}-s{seed}.json"
        obs.export.write_chrome(layers.pop("spans"), str(trace_path))
        record["lines"].append(f"  chrome trace: {trace_path}")
        record["layers"] = layers
    return record


# -- per-layer extraction -----------------------------------------------------


def server_config():
    """The ServeConfig of a CLI-default ``repro serve``."""
    return serve_config_from_args(build_serve_parser().parse_args([]))


def prometheus_sum(text: str, name: str, **labels) -> float:
    """Sum of the samples of ``name`` whose labels include ``labels``."""
    total = 0.0
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            series, _, value = line.rpartition(" ")
            if all(item in series for item in wanted):
                total += float(value)
    return total


def timed_mean(fn, items, reps: int = 5) -> float:
    """Mean seconds of ``fn(item)`` over ``reps`` passes of ``items``."""
    begin = time.perf_counter()
    for _ in range(reps):
        for item in items:
            fn(item)
    return (time.perf_counter() - begin) / (reps * len(items))


def served_layers(workload, expected, ledger, client, metrics_text,
                  access_log, window_start, window_end, lines):
    """Per-layer metrics of a traced served run: request stages from the
    access log and the client, counters from the /metrics scrape, and
    in-process replays of the layers on the run's own inputs."""
    op = TIMED_OP[workload.name]
    bench_spans = obs.stop_tracing()
    records = [json.loads(line)
               for line in access_log.read_text().splitlines()]
    timed = [r for r in records if r["op"] == op
             and window_start <= r["ts"] <= window_end]
    queue = [r["queue_delay_s"] for r in timed]
    wall = [r.get("wall_s", 0.0) for r in timed]
    hop = [r["latency_s"] - q - w for r, q, w in zip(timed, queue, wall)]
    client_seconds = [s for s, ok, _ in ledger.timed if ok]
    table = stage_table(mean(client_seconds), [
        ("serve.admission.queue_delay_s", mean(queue)),
        ("serve.gateway.hop_s", mean(hop)),
        ("serve.gateway.exec_s", mean(wall)),
    ], "serve.wire_s")
    lines.extend(format_stage_table(
        f"{op} request stages ({len(client_seconds)} requests, "
        f"{len(timed)} access-log records)", table))

    layers = replay(workload, expected, client, ledger)
    parts = [("serve.host.acquire_hit_s", layers["serve.host.acquire_hit_s"]),
             ("api.scan_s", layers["api.scan_s"])] if op == "scan" \
        else [("core.streaming.feed_s", layers["core.streaming.feed_s"])]
    lines.extend(format_stage_table(
        "gateway execution, parts replayed in-process",
        stage_table(mean(wall), parts, "serve.gateway.exec_other_s")))
    hits = prometheus_sum(metrics_text, "repro_serve_engine_events_total",
                          event="hit")
    misses = prometheus_sum(metrics_text, "repro_serve_engine_events_total",
                            event="miss")
    layers["spans"] = bench_spans + layers["spans"]
    layers.update({
        "core.prefilter.active_ratio": 1.0,
        "bitstream.match_positions": mean(
            [r.get("match_count", 0) for r in ledger.responses]),
        "serve.admission.queue_delay_p50_s": median(queue),
        "serve.admission.queue_delay_p90_s": percentile(queue, 90),
        "serve.gateway.exec_p50_s": median(wall),
        "serve.gateway.hop_p50_s": median(hop),
        "serve.gateway.exec_cpu_ratio":
            sum(r.get("cpu_s", 0.0) for r in timed) / max(sum(wall), 1e-9),
        "serve.wire_p50_s": median(client_seconds)
        - median([r["latency_s"] for r in timed]),
        "serve.host.hit_ratio": hits / max(hits + misses, 1.0),
        "serve.shed_total": prometheus_sum(
            metrics_text, "repro_serve_requests_total",
            outcome="overloaded"),
        "obs.log.dropped": prometheus_sum(metrics_text,
                                          "repro_obs_log_dropped_total"),
    })
    return layers


def replay(workload, expected, client, ledger) -> Dict[str, object]:
    """Time the server's layers in this process, on the run's own rule
    sets, payloads, request lines and responses, with the server's
    configuration: compile (spans recorded), fingerprint, registry hit,
    wire codec, and the scan or feed path (outputs checked against the
    reference)."""
    config = server_config()
    host = EngineHost(config)
    tenants = [(t, patterns) for t, (patterns, _)
               in workload.tenants.items()]
    obs.start_tracing()
    matchers = {t: host.acquire(t, patterns).matcher
                for t, patterns in tenants}
    spans = obs.stop_tracing()
    layers: Dict[str, object] = compile_layers(
        spans, [m.engine for m in matchers.values()])
    layers["spans"] = spans

    def decode(line: bytes) -> None:
        protocol.decode_data(protocol.decode_line(line))

    layers.update({
        "api.fingerprint_s": timed_mean(
            lambda tp: fingerprint_patterns(tp[1], config.scan), tenants, 50),
        "serve.host.acquire_hit_s": timed_mean(
            lambda tp: host.acquire(*tp), tenants, 50),
        "serve.protocol.decode_s": timed_mean(decode, client.lines),
        "serve.protocol.encode_s": timed_mean(protocol.encode,
                                              ledger.responses),
    })
    scans, matches, feeds = [], [], []
    for tenant, (_, inputs) in workload.tenants.items():
        matcher = matchers[tenant]
        if workload.name == "serve-scan":
            for index, data in enumerate(inputs):
                with Stopwatch() as watch:
                    report = matcher.scan(data)
                scans.append(watch.seconds)
                with Stopwatch() as watch:
                    matcher.engine.match(data)
                matches.append(watch.seconds)
                got = {str(p): e for p, e in report.matches.items() if e}
                if got != expected[tenant][index]:
                    ledger.mismatch(f"scan replay: {tenant} payload {index}")
            continue
        stream = inputs[0]
        session = matcher.stream(config=matcher.config.serial())
        merged: Dict[str, List[int]] = {}
        for k in range(0, len(stream), CHUNK_BYTES):
            with Stopwatch() as watch:
                report = session.feed(stream[k:k + CHUNK_BYTES])
            feeds.append(watch.seconds)
            window = stream[max(0, k - session.guaranteed_span):
                            k + CHUNK_BYTES]
            with Stopwatch() as watch:
                matcher.engine.match(window)
            matches.append(watch.seconds)
            for pattern, ends in report.matches.items():
                if ends:
                    merged.setdefault(str(pattern), []).extend(ends)
        if merged != expected[tenant][0]:
            ledger.mismatch(f"feed replay: {tenant} stream 0")
    layers.update({"api.scan_s": mean(scans),
                   "core.engine.simulate_scan_s": mean(matches),
                   "core.streaming.feed_s": mean(feeds)})
    return layers
