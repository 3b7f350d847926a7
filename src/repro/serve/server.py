"""The asyncio TCP front of the gateway, plus a small client.

:class:`GatewayServer` binds a :class:`~repro.serve.gateway.Gateway`
to a TCP listener speaking the JSONL protocol
(:mod:`repro.serve.protocol`).  Each connection is one reader loop:
requests on a connection are *dispatched* in arrival order but resolve
concurrently across tenants (each tenant's lane serializes its own
work), and responses are written as they complete, matched to requests
by the echoed ``id``.  Both ends read lines of up to
:data:`LINE_LIMIT_BYTES`; a longer request line is answered
``bad-request`` once, and the server then closes the connection.

:class:`GatewayClient` is the matching asyncio client — enough for
tests, the CLI self-test, and the serving benchmark; it pipelines
requests and correlates responses by id, and fails every pending
request with a :class:`~repro.serve.config.GatewayError` once its
connection ends or a response line overruns the limit.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Sequence

from . import protocol
from .config import BadRequestError, GatewayError, ServeConfig
from .gateway import Gateway, _DEFAULT
from .telemetry import MetricsServer

#: the longest request or response line either end reads: room for a
#: base64 payload far above the gateway's inline limit
#: (:data:`~repro.serve.gateway.INLINE_LIMIT_BYTES`) beside a large
#: pattern list
LINE_LIMIT_BYTES = 8 * 1024 * 1024


class GatewayServer:
    """JSONL-over-TCP front for one :class:`Gateway`.

    When ``ServeConfig.metrics_port`` is set, a
    :class:`~repro.serve.telemetry.MetricsServer` is started beside
    the JSONL listener on the same event loop: ``GET /metrics`` serves
    the live Prometheus registry (serve series included) and
    ``GET /healthz`` the gateway's stats summary.
    """

    def __init__(self, gateway: Optional[Gateway] = None,
                 config: Optional[ServeConfig] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.gateway = gateway if gateway is not None \
            else Gateway(config)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.metrics: Optional[MetricsServer] = None

    async def start(self) -> "GatewayServer":
        """Bind and listen; with ``port=0`` the kernel picks a free
        port, readable from :attr:`port` afterwards."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=LINE_LIMIT_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        metrics_port = self.gateway.config.metrics_port
        if metrics_port is not None:
            self.metrics = MetricsServer(
                host=self.host, port=metrics_port,
                refresh=self.gateway.telemetry.refresh,
                health=self._health)
            await self.metrics.start()
        return self

    def _health(self) -> dict:
        stats = self.gateway.stats()
        return {"uptime_s": stats["uptime_s"],
                "sessions": stats["sessions"],
                "tenants": stats["tenants"],
                "breaker": stats["breaker"],
                "engines": stats["host"]["resident"]}

    async def stop(self) -> None:
        if self.metrics is not None:
            await self.metrics.stop()
            self.metrics = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.gateway.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                line = await self._read_line(reader)
                if line is None:
                    await self._write(writer, write_lock,
                                      protocol.error_response(
                                          None, BadRequestError(
                                              f"request line over "
                                              f"{LINE_LIMIT_BYTES} "
                                              f"bytes")))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in list(pending):
                await task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader
                         ) -> Optional[bytes]:
        """The next request line (``b""`` at end of input), or ``None``
        for a line over :data:`LINE_LIMIT_BYTES`.  An over-limit line
        is read and dropped through its newline, so closing the
        connection afterwards does not reset it before the client has
        read the answer."""
        over = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:  # end of input
                line = exc.partial
            except asyncio.LimitOverrunError as exc:
                over = True
                await reader.readexactly(exc.consumed)
                continue
            return None if over else line

    async def _serve_line(self, line: bytes,
                          writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        request_id = None
        try:
            payload = protocol.decode_line(line)
            request_id = payload.get("id")
            body = await self._dispatch(payload)
            response = protocol.ok_response(request_id, body)
        except Exception as exc:  # every failure becomes a response
            response = protocol.error_response(request_id, exc)
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock,
                     response: Dict[str, object]) -> None:
        async with write_lock:
            writer.write(protocol.encode(response))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, payload: Dict[str, object]
                        ) -> Dict[str, object]:
        op = protocol.require_op(payload)
        gateway = self.gateway
        if op == "ping":
            return await gateway.ping()
        if op == "stats":
            return gateway.stats()
        tenant = protocol.require_str(payload, "tenant")
        deadline_s, explicit = protocol.optional_deadline(payload)
        budget = deadline_s if explicit else _DEFAULT
        if op == "compile":
            return await gateway.compile(
                tenant, protocol.require_patterns(payload),
                deadline_s=budget)
        if op == "scan":
            report = await gateway.scan(
                tenant, protocol.require_patterns(payload),
                protocol.decode_data(payload), deadline_s=budget)
            return protocol.report_payload(report)
        if op == "open":
            return await gateway.open_session(
                tenant, protocol.require_patterns(payload),
                deadline_s=budget)
        if op == "feed":
            report = await gateway.feed(
                tenant, protocol.require_str(payload, "session"),
                protocol.decode_data(payload), deadline_s=budget)
            return protocol.report_payload(report)
        if op == "close":
            return await gateway.close_session(
                tenant, protocol.require_str(payload, "session"))
        raise BadRequestError(f"unhandled op {op!r}")  # pragma: no cover


class GatewayClient:
    """Minimal pipelining JSONL client (tests / benchmark / CLI)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = 0
        self._waiters: Dict[object, "asyncio.Future"] = {}
        self._pump: Optional["asyncio.Task"] = None
        #: why the response reader stopped; set once it has
        self._lost: Optional[str] = None

    async def connect(self) -> "GatewayClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT_BYTES)
        self._pump = asyncio.ensure_future(self._read_responses())
        return self

    async def close(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
            self._pump = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None

    async def _read_responses(self) -> None:
        assert self._reader is not None
        reason = "connection closed"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = protocol.parse_response(line)
                waiter = self._waiters.pop(response.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(response)
        except ValueError as exc:   # over the line limit, or not JSON
            reason = f"unreadable response: {exc}"
        except ConnectionError as exc:
            reason = f"connection lost: {exc!r}"
        finally:
            # No later response can arrive: fail whoever still waits.
            self._lost = reason
            waiters, self._waiters = self._waiters, {}
            for waiter in waiters.values():
                if not waiter.done():
                    waiter.set_exception(GatewayError(reason))

    async def request(self, op: str, **fields) -> Dict[str, object]:
        """Send one request, await its correlated response.  Error
        responses raise :class:`GatewayError` with the wire code."""
        assert self._writer is not None, "call connect() first"
        if self._lost is not None:
            raise GatewayError(self._lost)
        self._ids += 1
        request_id = self._ids
        payload = {"id": request_id, "op": op}
        payload.update(fields)
        future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        self._writer.write(protocol.encode(payload))
        await self._writer.drain()
        response = await future
        if not response.get("ok"):
            error = GatewayError(
                f"{response.get('error')}: {response.get('message')}")
            error.code = response.get("error", "internal")
            raise error
        return response

    # -- convenience wrappers -----------------------------------------------

    async def ping(self) -> Dict[str, object]:
        return await self.request("ping")

    async def scan(self, tenant: str, patterns: Sequence[str],
                   data: bytes, **fields) -> Dict[str, object]:
        return await self.request(
            "scan", tenant=tenant, patterns=list(patterns),
            data=protocol.encode_data(data), **fields)

    async def open_session(self, tenant: str,
                           patterns: Sequence[str]) -> str:
        response = await self.request(
            "open", tenant=tenant, patterns=list(patterns))
        return response["session"]

    async def feed(self, tenant: str, session: str,
                   chunk: bytes) -> Dict[str, object]:
        return await self.request(
            "feed", tenant=tenant, session=session,
            data=protocol.encode_data(chunk))

    async def close_session(self, tenant: str,
                            session: str) -> Dict[str, object]:
        return await self.request(
            "close", tenant=tenant, session=session)
