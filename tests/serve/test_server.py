"""The TCP front: JSONL round-trips, error codes on the wire.

Contract: every request line gets exactly one response line with the
echoed id; failures are responses with stable error codes, never
dropped connections; wire results are bit-identical to the engine.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.gpu.machine import CTAGeometry
from repro.parallel.config import ScanConfig
from repro.serve import GatewayClient, GatewayError, GatewayServer, \
    ServeConfig
from repro.serve import protocol
from repro.serve import server as server_mod
from repro.serve.server import LINE_LIMIT_BYTES

TINY = CTAGeometry(threads=4, word_bits=8)
CONFIG = ServeConfig(scan=ScanConfig(geometry=TINY))
PATTERNS = ["a(bc)*d", "cat|dog"]
DATA = b"abcbcd cat 42 dog abcd"


def run(coro):
    return asyncio.run(coro)


async def with_server(fn):
    server = await GatewayServer(config=CONFIG, port=0).start()
    client = await GatewayClient("127.0.0.1", server.port).connect()
    try:
        return await fn(server, client)
    finally:
        await client.close()
        await server.stop()


def expected_matches() -> dict:
    report = repro.scan(PATTERNS, DATA, config=CONFIG.scan)
    return {str(p): list(ends) for p, ends in report.matches.items()
            if ends}


def test_scan_round_trip_is_bit_identical():
    async def fn(server, client):
        response = await client.scan("t", PATTERNS, DATA)
        return response

    response = run(with_server(fn))
    assert response["ok"] is True
    assert response["matches"] == expected_matches()


def test_streaming_round_trip():
    async def fn(server, client):
        sid = await client.open_session("t", PATTERNS)
        merged: dict = {}
        for start in range(0, len(DATA), 5):
            fed = await client.feed("t", sid, DATA[start:start + 5])
            for key, ends in fed["matches"].items():
                merged.setdefault(key, []).extend(ends)
        summary = await client.close_session("t", sid)
        return merged, summary

    merged, summary = run(with_server(fn))
    assert merged == expected_matches()
    assert summary["closed"] is True
    assert summary["stream_position"] == len(DATA)


def test_error_codes_reach_the_client():
    async def fn(server, client):
        with pytest.raises(GatewayError) as exc:
            await client.feed("t", "no-such-session", b"x")
        return exc.value

    error = run(with_server(fn))
    assert error.code == "unknown-session"


def test_malformed_lines_get_bad_request_responses():
    async def fn(server, client):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        for line in (b"not json at all\n",
                     b'{"id": 7, "op": "launch-missiles"}\n',
                     b'{"id": 8, "op": "scan", "tenant": "t"}\n'):
            writer.write(line)
        await writer.drain()
        responses = [json.loads(await reader.readline())
                     for _ in range(3)]
        writer.close()
        await writer.wait_closed()
        return responses

    responses = run(with_server(fn))
    by_id = {r["id"]: r for r in responses}
    assert all(r["ok"] is False for r in responses)
    assert all(r["error"] == "bad-request" for r in responses)
    assert by_id[7]["id"] == 7                  # id echoed when parseable
    assert "patterns" in by_id[8]["message"]
    assert None in by_id                        # unparseable line: id null


def test_ping_and_stats_ops():
    async def fn(server, client):
        pong = await client.ping()
        await client.scan("t", PATTERNS, DATA)
        stats = await client.request("stats")
        return pong, stats

    pong, stats = run(with_server(fn))
    assert pong["ok"] is True
    assert stats["host"]["resident"] == 1
    assert stats["breaker"] == "closed"


def test_protocol_data_validation():
    with pytest.raises(Exception) as exc:
        protocol.decode_data({"data": "!!! not base64 !!!"})
    assert getattr(exc.value, "code", None) == "bad-request"
    with pytest.raises(Exception):
        protocol.decode_data({})
    assert protocol.decode_data(
        {"data": protocol.encode_data(b"\x00\xffbytes")}) == \
        b"\x00\xffbytes"


# -- line limits --------------------------------------------------------------


def test_large_scans_and_long_responses_cross_the_wire():
    """A 66,000-byte scan (its line is over asyncio's default 64 KiB
    limit) and a 30,000-match response both round-trip, equal to
    in-process scans."""
    big = (DATA + b" ") * (66000 // (len(DATA) + 1) + 1)
    big = big[:66000]
    dense = b"a" * 30000

    async def fn(server, client):
        large = await client.scan("t", PATTERNS, big)
        many = await client.scan("t", ["a"], dense)
        return large, many

    large, many = run(with_server(fn))
    expected_large = repro.scan(PATTERNS, big, config=CONFIG.scan)
    assert large["matches"] == {str(p): ends for p, ends
                                in expected_large.found.items()}
    assert many["matches"] == {"0": list(range(30000))}
    assert many["match_count"] == 30000


def test_over_limit_line_gets_bad_request_then_the_connection_closes():
    oversized = (b'{"id": 1, "op": "scan", "tenant": "t", "data": "'
                 + b"A" * LINE_LIMIT_BYTES + b'"}\n')

    async def fn(server, client):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(oversized)
        await writer.drain()
        response = json.loads(await reader.readline())
        rest = await reader.read()
        writer.close()
        # the server still accepts connections, and the first client's
        # connection is untouched
        fresh = await GatewayClient("127.0.0.1", server.port).connect()
        pong = await fresh.ping()
        await fresh.close()
        return response, rest, pong, await client.ping()

    response, rest, pong, still = run(with_server(fn))
    assert response["ok"] is False
    assert response["error"] == "bad-request"
    assert str(LINE_LIMIT_BYTES) in response["message"]
    assert rest == b""                          # closed after answering
    assert pong["ok"] is True and still["ok"] is True


def test_client_raises_instead_of_hanging_on_an_over_limit_request():
    async def fn(server, client):
        with pytest.raises(GatewayError):
            await asyncio.wait_for(
                client.scan("t", PATTERNS, b"A" * LINE_LIMIT_BYTES), 60)
        # the connection is gone: later requests fail at once
        with pytest.raises(GatewayError):
            await asyncio.wait_for(client.ping(), 60)

    run(with_server(fn))


def test_client_raises_when_a_response_overruns_its_reader(monkeypatch):
    async def fn(server, client):
        monkeypatch.setattr(server_mod, "LINE_LIMIT_BYTES", 1024)
        small = await GatewayClient("127.0.0.1", server.port).connect()
        try:
            with pytest.raises(GatewayError) as exc:
                await asyncio.wait_for(
                    small.scan("t", ["a"], b"a" * 2000), 60)
        finally:
            await small.close()
        return exc.value

    error = run(with_server(fn))
    assert "unreadable response" in str(error)


@pytest.mark.parametrize("pattern",
                         ["a(b", "[z-a]", "*a", "a{2,1}", "\\"])
def test_unparseable_patterns_are_bad_requests_on_the_wire(pattern):
    async def fn(server, client):
        codes = []
        for op, fields in (("scan", {"data": protocol.encode_data(DATA)}),
                           ("compile", {}), ("open", {})):
            with pytest.raises(GatewayError) as exc:
                await client.request(op, tenant="t",
                                     patterns=[pattern], **fields)
            codes.append(exc.value.code)
        return codes, (await client.request("stats"))["breaker"]

    codes, breaker = run(with_server(fn))
    assert codes == ["bad-request"] * 3
    assert breaker == "closed"
