"""Asyncio HTTP/JSON front-end for the exploration service (API v1).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
frameworks, no new dependencies — serving one versioned surface:

* ``GET /v1/healthz`` — liveness (status, uptime, worker mode, build);
* ``GET /v1/stats``   — cache hit rates, dispatches, latency percentiles,
  admission/quota accounting, keep-alive connection reuse;
* ``GET /v1/metrics`` — the process-wide metrics registry in Prometheus
  text exposition format;
* ``POST /v1/explore`` — one litmus job request (see
  :meth:`~repro.service.core.ExplorationService.normalize` for the body);
* ``POST /v1/queue/<op>`` — the distributed work-queue protocol
  (:class:`~repro.distrib.http_backend.QueueHttpApi`): fleets of
  ``promising-arm work`` claim leased items here with no shared
  filesystem, fencing tokens intact over the wire;
* ``POST /v1/shutdown`` — graceful drain and stop (CI, the benchmark).

Unversioned paths answer 404.

Connections are **keep-alive**, one request at a time per connection;
pipelined requests are answered in order, as HTTP/1.1 requires, because
the next request line is read only once the response before it is
written.
Only the *read* of a request runs under a deadline; exploration time is
governed by per-job budgets, and an idle keep-alive connection is closed
quietly after :data:`KEEPALIVE_IDLE_TIMEOUT`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import signal
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs import metrics
from ..obs.logging import bind, get_logger, log_event, new_request_id, sanitize_request_id
from .core import DRAIN_TIMEOUT, ExplorationService, ServiceConfig

_log = get_logger("service.http")

#: Content type of the ``GET /metrics`` payload (Prometheus text
#: exposition format); JSON everywhere else.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Version prefix of the current HTTP surface.
API_PREFIX = "/v1"

#: Identity header the per-client explore quotas key on.
CLIENT_ID_HEADER = "x-client-id"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Ceiling on any request body; individual fields have tighter limits.
MAX_BODY_BYTES = 1 << 20

#: Ceiling on the request line + headers, and on the header count.
MAX_HEADER_BYTES = 16 * 1024
MAX_HEADERS = 100

#: A client gets this long (seconds) to deliver its complete request.
#: Exploration time is *not* under this clock — only the read is — so a
#: stalled or byte-dripping connection cannot pin a handler forever.
READ_TIMEOUT = 30.0

#: An idle keep-alive connection (no new request line) is closed quietly
#: after this long.
KEEPALIVE_IDLE_TIMEOUT = 120.0

_HTTP_CONNECTIONS = metrics.counter(
    "service_http_connections_total", "TCP connections accepted by the service front-end."
)
_HTTP_REQUESTS = metrics.counter(
    "service_http_requests_total", "HTTP requests served by the service front-end."
)


@dataclass
class _Response:
    """One response, and whether the connection closes after it."""

    status: int
    payload: Union[dict, str]
    request_id: str
    headers: dict = field(default_factory=dict)
    close: bool = False


_NOT_RECEIVED = f"request not received within {READ_TIMEOUT}s"
_TOO_LARGE = "request headers too large"


def _parse_failure(status: int, error: str) -> _Response:
    """The answer to a request that cannot be parsed: framing is lost, so it closes."""
    return _Response(status, {"ok": False, "error": error}, new_request_id(), close=True)


@dataclass(eq=False)
class _Connection:
    """Per-connection bookkeeping (the server's drain logic polls busy)."""

    writer: asyncio.StreamWriter
    busy: bool = False


class ServiceServer:
    """Bind an :class:`ExplorationService` to a listening TCP socket."""

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        queue_backend=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        # The /v1/queue mount: an explicit backend wins (tests inject
        # clock-controlled ledgers), else the configured URL, else a
        # private SQLite ledger in a temporary directory that stop()
        # removes.
        from ..distrib.backend import open_backend
        from ..distrib.http_backend import QueueHttpApi
        from ..distrib.sqlite import SqliteBackend

        if queue_backend is None:
            if service.config.queue_url:
                queue_backend = open_backend(service.config.queue_url)
            else:
                queue_backend = SqliteBackend.temporary()
        self.queue_backend = queue_backend
        self.queue_api = QueueHttpApi(queue_backend)

    async def start(self) -> tuple[str, int]:
        """Start the service and the listener; returns ``(host, port)``.

        Binding port ``0`` picks an ephemeral port, reported back here —
        that is how the tests and the benchmark avoid port collisions.
        """
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Stop admitting new cold work and let :meth:`wait_shutdown` return.

        ``POST /v1/shutdown`` and SIGTERM both land here; ``run_server``'s
        :meth:`stop` then drains what was accepted and tears everything
        down.
        """
        self.service.begin_drain()
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def stop(self) -> None:
        """Graceful stop: no new connections, drain work, then tear down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Everything accepted finishes (new cold arrivals get 503 +
        # Retry-After); only a drain-timeout overrun is hard-failed by
        # service.stop() below.
        await self.service.drain(timeout=DRAIN_TIMEOUT)
        # Give handlers a moment to flush responses already computed,
        # then close the (now idle) keep-alive connections under them.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(c.busy for c in self._connections):
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            connection.writer.close()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=5.0)
            for task in list(self._conn_tasks):
                task.cancel()
        await self.service.stop()
        self.queue_backend.close()
        self._shutdown.set()

    # -- connection handling -------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        connection = _Connection(writer)
        self._connections.add(connection)
        self.service.stats.connections += 1
        _HTTP_CONNECTIONS.inc()
        try:
            first = True
            while True:
                # Waiting for the *next* request line is the keep-alive
                # idle state: time it out quietly.  A connection that sent
                # nothing at all still gets the old explicit 400.
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(),
                        READ_TIMEOUT if first else KEEPALIVE_IDLE_TIMEOUT,
                    )
                except asyncio.TimeoutError:
                    if first:
                        await self._write(writer, _parse_failure(400, _NOT_RECEIVED))
                    break
                except ValueError:
                    # readline raises ValueError, not LimitOverrunError, for
                    # a line beyond the stream's 64 KiB limit.
                    await self._write(writer, _parse_failure(431, _TOO_LARGE))
                    break
                if not request_line:
                    break  # EOF: the client hung up between requests.
                try:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader, request_line), READ_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    parsed = 400, _NOT_RECEIVED
                except asyncio.IncompleteReadError:
                    parsed = 400, "truncated request body"
                if len(parsed) == 2:
                    # A parser error: framing is no longer trustworthy, so
                    # answer it and close.
                    await self._write(writer, _parse_failure(*parsed))
                    break
                first = False
                method, path, headers, body = parsed
                connection.busy = True
                response = await self._process(
                    method, path, headers, body, self._wants_close(parsed)
                )
                await self._write(writer, response)
                connection.busy = False
                if response.close:
                    break
        except ConnectionError:
            pass  # The client vanished; there is no one left to answer.
        finally:
            self._connections.discard(connection)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    def _wants_close(parsed) -> bool:
        _method, _path, headers, _body = parsed
        tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
        if "close" in tokens:
            return True
        # HTTP/1.0 requesters must opt *in* to keep-alive.
        version = headers.get("_http_version", "HTTP/1.1")
        return version == "HTTP/1.0" and "keep-alive" not in tokens

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: _Response) -> None:
        """Encode ``response`` onto the connection and wait until it drains."""
        if isinstance(response.payload, str):
            body = response.payload.encode()
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(response.payload).encode()
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {response.status} {_STATUS_TEXT.get(response.status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Request-Id: {response.request_id}",
        ]
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close" if response.close else "Connection: keep-alive")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _process(
        self,
        method: str,
        path: str,
        headers: dict,
        body: bytes,
        close_requested: bool,
    ) -> _Response:
        """Run one request to completion; a handler error answers 500."""
        # A client-supplied X-Request-Id (sanitized) wins, so one id can
        # correlate client logs, service logs, and the echoed header.
        request_id = sanitize_request_id(headers.get("x-request-id")) or new_request_id()
        start = time.perf_counter()
        extra = {}
        try:
            with bind(request_id=request_id):
                status, payload = await self._route(method, path, headers, body, request_id)
                # Per-request lines are debug: at keep-alive request rates
                # the aggregate lives in the metrics (request counter +
                # latency histogram) and only anomalies earn an info line.
                log_event(
                    _log,
                    "request",
                    level=logging.DEBUG if status < 400 else logging.INFO,
                    method=method,
                    path=path,
                    status=status,
                    seconds=round(time.perf_counter() - start, 6),
                )
            # Inside the try: a bad value (say a NaN retry_after) must
            # become a 500, never an exception that drops the connection.
            if isinstance(payload, dict) and "retry_after" in payload:
                extra["Retry-After"] = str(max(1, math.ceil(payload["retry_after"])))
        except Exception:
            _log.exception("request failed: %s %s", method, path)
            status, payload = 500, {"ok": False, "error": "internal server error"}
        return _Response(status, payload, request_id, extra, close_requested)

    async def _read_request(self, reader: asyncio.StreamReader, request_line: bytes):
        """Parse request line + headers + body, with hard size caps.

        Returns ``(method, path, headers, body)``, or ``(status, error)``
        for a request that cannot be served.
        """
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, "malformed request line"
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        headers = {}
        header_bytes = len(request_line)
        if header_bytes > MAX_HEADER_BYTES:
            return 431, _TOO_LARGE
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # a line beyond the stream's 64 KiB limit
                return 431, _TOO_LARGE
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES or len(headers) >= MAX_HEADERS:
                return 431, _TOO_LARGE
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if len(parts) >= 3:
            headers["_http_version"] = parts[2].upper()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, "malformed Content-Length"
        if length < 0:
            return 400, "malformed Content-Length"
        if length > MAX_BODY_BYTES:
            return 413, f"body exceeds {MAX_BODY_BYTES} bytes"
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(
        self, method: str, path: str, headers: dict, body: bytes, request_id: str
    ) -> tuple[int, Union[dict, str]]:
        _HTTP_REQUESTS.inc()
        self.service.stats.http_requests += 1
        base = path[len(API_PREFIX) :] if path.startswith(API_PREFIX + "/") else None
        if base == "/healthz":
            if method != "GET":
                return 405, {"ok": False, "error": "use GET /healthz"}
            return 200, self.service.healthz()
        if base == "/stats":
            if method != "GET":
                return 405, {"ok": False, "error": "use GET /stats"}
            return 200, self.service.stats_snapshot()
        if base == "/metrics":
            if method != "GET":
                return 405, {"ok": False, "error": "use GET /metrics"}
            return 200, self.service.metrics_text()
        if base == "/explore":
            if method != "POST":
                return 405, {"ok": False, "error": "use POST /explore"}
            try:
                payload = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"ok": False, "error": f"invalid JSON body: {exc}"}
            client_id = sanitize_request_id(headers.get(CLIENT_ID_HEADER))
            status, response = await self.service.handle_explore(
                payload, client_id=client_id, body=body
            )
            if isinstance(response, dict):
                response.setdefault("request_id", request_id)
            return status, response
        if base is not None and base.startswith("/queue/"):
            if method != "POST":
                return 405, {"ok": False, "error": "queue ops use POST"}
            op = base[len("/queue/") :]
            try:
                payload = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"ok": False, "error": f"invalid JSON body: {exc}"}
            return self.queue_api.handle(op, payload)
        if base == "/shutdown":
            if method != "POST":
                return 405, {"ok": False, "error": "use POST /shutdown"}
            self.request_shutdown()
            return 200, {"ok": True, "stopping": True}
        return 404, {"ok": False, "error": f"no such endpoint {path!r}"}


def run_server(
    config: Optional[ServiceConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    on_ready=None,
    queue_backend=None,
) -> None:
    """Blocking entry point: serve until ``POST /shutdown``, SIGTERM or Ctrl-C.

    ``on_ready(host, port)`` (optional) fires once the socket is bound —
    with ``port=0`` that is the only way to learn the chosen port.
    ``queue_backend`` (optional) overrides the ledger mounted at
    ``/v1/queue`` (tests inject clock-controlled ones).
    """

    async def _main() -> None:
        server = ServiceServer(
            ExplorationService(config), host, port, queue_backend=queue_backend
        )
        # stop() also runs when start() fails (say, the port is taken),
        # so the pool and the default queue's directory never leak.
        try:
            bound_host, bound_port = await server.start()
            # SIGTERM (kill, docker stop, systemd) drains like POST
            # /v1/shutdown.  Registered once the pool has forked, so its
            # workers keep the default action.  Only the main thread of a
            # POSIX process can take signals.
            with contextlib.suppress(NotImplementedError, RuntimeError):
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, server.request_shutdown
                )
            print(
                f"promising-arm service listening on http://{bound_host}:{bound_port} "
                f"({server.service.healthz()['pool']} pool, "
                f"{server.service.config.workers} workers)",
                flush=True,
            )
            if on_ready is not None:
                on_ready(bound_host, bound_port)
            await server.wait_shutdown()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


__all__ = [
    "API_PREFIX",
    "CLIENT_ID_HEADER",
    "KEEPALIVE_IDLE_TIMEOUT",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_HEADERS",
    "PROMETHEUS_CONTENT_TYPE",
    "READ_TIMEOUT",
    "ServiceServer",
    "run_server",
]
