"""The JSONL wire protocol.

One request per line, one response per line, UTF-8 JSON.  Binary scan
payloads travel base64-encoded in the ``data`` field — JSONL keeps the
protocol debuggable with ``nc`` and a text editor, and the gateway's
unit of work (a chunk, a pattern set) is small enough that base64's
33% overhead is noise next to the scan itself.

Requests::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "compile", "tenant": "t", "patterns": ["a+b"]}
    {"id": 3, "op": "scan", "tenant": "t", "patterns": ["a+b"],
     "data": "<base64>", "deadline_s": 0.5}
    {"id": 4, "op": "open", "tenant": "t", "patterns": ["a+b"]}
    {"id": 5, "op": "feed", "tenant": "t", "session": "t-1",
     "data": "<base64>"}
    {"id": 6, "op": "close", "tenant": "t", "session": "t-1"}
    {"id": 7, "op": "stats"}

Responses echo the request ``id`` and carry ``ok``; failures carry the
stable error ``code`` from :mod:`repro.serve.config` plus a message::

    {"id": 3, "ok": true, "matches": {"0": [2, 5]}, ...}
    {"id": 3, "ok": false, "error": "overloaded", "message": "..."}
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Dict, List, Optional, Sequence

from ..parallel.report import ScanReport
from .config import BAD_REQUEST, BadRequestError, GatewayError

#: ops the server dispatches; anything else is a bad request
OPS = ("ping", "compile", "scan", "open", "feed", "close", "stats")


def encode(payload: Dict[str, object]) -> bytes:
    """One wire line (JSON + newline)."""
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one request line; malformed input is a
    :class:`BadRequestError`, never a raw decode exception.  The op is
    *not* validated here — the server does that after extracting the
    request id, so even an unknown-op response can echo the id."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"undecodable request line: {exc}")
    if not isinstance(payload, dict):
        raise BadRequestError("request must be a JSON object")
    return payload


def require_op(payload: Dict[str, object]) -> str:
    op = payload.get("op")
    if op not in OPS:
        raise BadRequestError(
            f"unknown op {op!r}; expected one of {OPS}")
    return op


def encode_data(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_data(payload: Dict[str, object]) -> bytes:
    """The request's binary payload, base64-decoded."""
    encoded = payload.get("data")
    if not isinstance(encoded, str):
        raise BadRequestError("missing or non-string 'data' field")
    try:
        return base64.b64decode(encoded.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise BadRequestError(f"'data' is not valid base64: {exc}")


def require_str(payload: Dict[str, object], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise BadRequestError(
            f"missing or non-string {field!r} field")
    return value


def require_patterns(payload: Dict[str, object]) -> List[str]:
    patterns = payload.get("patterns")
    if (not isinstance(patterns, list) or not patterns
            or not all(isinstance(p, str) for p in patterns)):
        raise BadRequestError(
            "'patterns' must be a non-empty list of strings")
    return patterns


def optional_deadline(payload: Dict[str, object]):
    """``(deadline_s, present)``: absent → ``(None, False)`` ("use the
    gateway default"); explicit ``null`` → ``(None, True)`` ("no
    deadline"); otherwise a validated positive number."""
    if "deadline_s" not in payload:
        return None, False
    value = payload["deadline_s"]
    if value is not None and (not isinstance(value, (int, float))
                              or isinstance(value, bool)
                              or value <= 0):
        raise BadRequestError("'deadline_s' must be a positive number")
    return value, True


def report_payload(report: ScanReport) -> Dict[str, object]:
    """A ScanReport on the wire: pattern → end positions (string keys,
    JSON objects can't have int keys), plus the summary fields."""
    return {"matches": {str(pattern): list(ends)
                        for pattern, ends in sorted(report.found.items())},
            "match_count": report.match_count(),
            "stream_offset": report.stream_offset,
            "input_bytes": report.input_bytes}


def ok_response(request_id, body: Dict[str, object]) -> Dict[str, object]:
    response = {"id": request_id, "ok": True}
    response.update(body)
    return response


def error_response(request_id, exc: BaseException) -> Dict[str, object]:
    code = exc.code if isinstance(exc, GatewayError) else "internal"
    return {"id": request_id, "ok": False,
            "error": code, "message": str(exc)}


def parse_response(line: bytes) -> Dict[str, object]:
    """Client-side: one response line → dict (shape not validated
    beyond being a JSON object)."""
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("response must be a JSON object")
    return payload
