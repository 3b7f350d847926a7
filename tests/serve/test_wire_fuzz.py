"""Wire-protocol fuzz: malformed request lines only ever get stable codes.

One gateway server per test, on its own event-loop thread; Hypothesis
sends it random request lines over fresh TCP connections — undecodable
bytes, JSON that is not an object, unknown or missing ops, fields of
the wrong type, bad base64, deadlines that are not positive, patterns
that do not parse, and lines over the line limit.  Every line gets one
response that is ``ok`` or carries a stable wire code, never
``internal``, and a ``ping`` on a fresh connection is still answered
afterwards.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import GatewayServer, ServeConfig
from repro.serve import protocol
from repro.serve.config import (BAD_REQUEST, DEADLINE, OVERLOADED,
                                SESSION_LIMIT, UNKNOWN_SESSION)
from repro.serve.server import LINE_LIMIT_BYTES

STABLE_CODES = {BAD_REQUEST, DEADLINE, OVERLOADED, SESSION_LIMIT,
                UNKNOWN_SESSION}

PATTERNS = ["a(bc)*d", "cat|dog"]
DATA = protocol.encode_data(b"abcbcd hot dog")

#: a well-formed request per op, before the fuzzer breaks it
VALID = {
    "ping": {"op": "ping"},
    "stats": {"op": "stats"},
    "compile": {"op": "compile", "tenant": "t", "patterns": PATTERNS},
    "scan": {"op": "scan", "tenant": "t", "patterns": PATTERNS,
             "data": DATA},
    "open": {"op": "open", "tenant": "t", "patterns": PATTERNS},
    "feed": {"op": "feed", "tenant": "t", "session": "t-404",
             "data": DATA},
    "close": {"op": "close", "tenant": "t", "session": "t-404"},
}

UNPARSEABLE = ["a(b", "[z-a]", "*a", "a{2,1}", "\\", "[]", "a{99999}"]

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)


def line(payload) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def with_id(request_id, payload):
    return dict(payload, id=request_id)


def undecodable():
    """Bytes that are not a JSON document: random bytes (newlines and
    blank lines removed, since a line must carry one request), or
    invalid UTF-8."""
    garbage = st.binary(min_size=1, max_size=120).map(
        lambda raw: raw.replace(b"\n", b" ").replace(b"\r", b" "))
    invalid_utf8 = st.binary(max_size=40).map(
        lambda raw: b'{"op": "ping", "x": "' + raw.replace(b"\n", b" ")
        + b'\xff\xfe"}')
    return st.one_of(garbage, invalid_utf8).filter(
        lambda raw: raw.strip()).map(lambda raw: raw + b"\n")


def not_an_object():
    return st.one_of(json_scalars, st.lists(json_values, max_size=3)
                     ).map(line)


def bad_ops():
    unknown = st.text(max_size=12).filter(lambda op: op not in VALID)
    return st.one_of(
        st.builds(lambda op, rid: line({"id": rid, "op": op}),
                  st.one_of(unknown, json_values), json_scalars),
        st.builds(lambda rid, extra: line(dict(extra, id=rid)),
                  json_scalars,
                  st.dictionaries(st.sampled_from(["tenant", "data"]),
                                  json_values, max_size=2)))


def wrong_types():
    """A valid request with one of its fields replaced by a value of
    some other JSON type."""
    def mutate(op, field, value, rid):
        payload = with_id(rid, VALID[op])
        payload[field] = value
        return line(payload)

    fields = st.sampled_from(["id", "tenant", "session", "patterns"])
    wrong = st.one_of(json_values,
                      st.lists(st.one_of(st.integers(), st.none()),
                               min_size=1, max_size=3),
                      st.just([]), st.just(""))
    return st.builds(mutate, st.sampled_from(sorted(VALID)), fields,
                     wrong, json_scalars)


def bad_payloads():
    def build(op, data, rid):
        return line(dict(with_id(rid, VALID[op]), data=data))

    not_base64 = st.one_of(
        st.text(min_size=1, max_size=20).filter(
            lambda text: any(ch not in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                             "abcdefghijklmnopqrstuvwxyz0123456789+/="
                             for ch in text)),
        st.just("abc"), st.just("===="), json_values)
    return st.builds(build, st.sampled_from(["scan", "feed"]),
                     not_base64, json_scalars)


def bad_deadlines():
    def build(op, deadline, rid):
        return line(dict(with_id(rid, VALID[op]), deadline_s=deadline))

    not_positive = st.one_of(
        st.floats(max_value=0, allow_nan=False, allow_infinity=False),
        st.integers(max_value=0), st.booleans(), st.text(max_size=4),
        st.lists(st.integers(), max_size=2))
    return st.builds(build, st.sampled_from(["compile", "scan", "open",
                                             "feed"]),
                     not_positive, json_scalars)


def unparseable_patterns():
    def build(op, pattern, rid):
        return line(dict(with_id(rid, VALID[op]),
                         patterns=PATTERNS + [pattern]))

    return st.builds(build, st.sampled_from(["compile", "scan", "open"]),
                     st.sampled_from(UNPARSEABLE), json_scalars)


def over_limit():
    return st.just(b'{"op": "scan", "data": "'
                   + b"A" * LINE_LIMIT_BYTES + b'"}\n')


requests = st.one_of(undecodable(), not_an_object(), bad_ops(),
                     wrong_types(), bad_payloads(), bad_deadlines(),
                     unparseable_patterns(), over_limit(),
                     st.sampled_from(sorted(VALID)).map(
                         lambda op: line(VALID[op])))


@contextlib.contextmanager
def running_server():
    """A gateway server on its own event-loop thread; yields its port."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    holder = {}

    def serve():
        asyncio.set_event_loop(loop)
        holder["server"] = loop.run_until_complete(
            GatewayServer(config=ServeConfig(), port=0).start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(60), "server did not start"
    try:
        yield holder["server"].port
    finally:
        asyncio.run_coroutine_threadsafe(
            holder["server"].stop(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(60)
        loop.close()


def exchange(port: int, raw: bytes) -> dict:
    """Send one request line on a fresh connection; its one response."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(raw)
        with sock.makefile("rb") as stream:
            response = stream.readline()
    assert response, f"no response to {raw[:80]!r}"
    return json.loads(response)


def test_malformed_lines_only_get_stable_codes():
    with running_server() as port:
        @given(raw=requests)
        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])
        def check(raw):
            response = exchange(port, raw)
            assert response["ok"] is True or \
                response.get("error") in STABLE_CODES, response
            pong = exchange(port, line({"id": "p", "op": "ping"}))
            assert pong["ok"] is True and pong["id"] == "p"

        check()
