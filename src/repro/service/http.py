"""Minimal asyncio HTTP front end for the scenario services.

:class:`ScenarioHTTPServer` exposes a :class:`repro.service.ScenarioService`
or :class:`repro.service.ShardedScenarioService` to real multi-client
traffic over three endpoints:

``POST /scenario``
    Body ``{"name": "fig4_5", "points": 31, "timeout": 10.0}`` (``points``
    and ``timeout`` optional; ``timeout`` is a finite positive number of
    seconds; any other key is a ``400``).  Expands the named scenario,
    awaits the whole family through the backing service (coalescing/routing
    included) and returns one JSON curve per request: ``{"tag": [...],
    "times": [...], "values": [...], "lumped_states": ...}``.
``GET /registry``
    The registered scenario specs as JSON (names, measures, grids).
``GET /metrics``
    The Prometheus text dump of the backing service's ``metrics_records()``
    plus the server's own :class:`HTTPStats`, written by
    :func:`repro.stats.render_metrics`.  On the sharded front the records
    sum every worker's ``ServiceStats``/``CacheStats`` through the
    shared-nothing snapshot protocol; either front adds this process's
    optimizer counters.

Backpressure and deadlines surface as proper status codes: a
:class:`~repro.service.QueueFull` rejection maps to ``503`` (with a
``Retry-After`` hint) and an expired deadline to ``504``, so well-behaved
clients can back off without parsing bodies.

The server is stdlib-only (``asyncio.start_server`` with a hand-rolled
HTTP/1.1 reader) — deliberately so: the container has no third-party HTTP
framework, and the protocol surface needed here is tiny.  Keep-alive is
supported; request bodies are capped at 1 MiB.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import sys
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.service.dispatcher import QueueFull, ScenarioTimeout
from repro.service.registry import MAX_GRID_POINTS
from repro.service.shard import ShardCrashed
from repro.stats import Record, keyed, render_metrics

#: Upper bound on accepted request-body sizes.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on header lines per request (anti-resource-exhaustion).
MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


#: The protocol versions a request line may name.
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

#: The (method, path) pairs the server answers; ``repro_http_requests_total``
#: labels every other request line ``route="other"``, so a client probing
#: paths cannot grow the series without bound.
_ROUTES = {("POST", "/scenario"), ("GET", "/registry"), ("GET", "/metrics")}


@dataclass
class HTTPStats(Record):
    """Requests answered, per ``(route, status)``.

    ``route`` is ``"POST /scenario"``, ``"GET /registry"`` or
    ``"GET /metrics"``, ``"other"`` for any other request line, or
    ``"connection"`` for connections refused at the ``max_connections``
    cap.  Rendered as ``repro_http_requests_total``.
    """

    label: ClassVar[str] = "http"

    requests: dict[tuple[str, int], int] = keyed(("route", "status"))


class _HTTPError(Exception):
    """Internal control flow: abort the request with a status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _content_length(value: str) -> int:
    """The body length a ``Content-Length`` value declares, or -1.

    RFC 9110 allows ``1*DIGIT`` only; ``int()`` alone would also take
    ``+16``, ``1_6`` and ``-0``, and a length read as 0 leaves the body in
    the stream, to be parsed as the next request line.
    """
    if not (value.isascii() and value.isdigit()):
        return -1
    try:
        return int(value)
    except ValueError:  # more digits than Python converts
        return -1


def _json_floats(array: np.ndarray) -> list:
    """An array as nested lists with non-finite entries mapped to ``None``.

    Long-run measures carry ``t = inf`` grid points and unreachable-target
    reward queries produce ``inf`` values; strict JSON has no spelling for
    either, so they travel as ``null``.  A finite array goes straight
    through ``tolist()``; otherwise one mask writes the ``None`` entries.
    """
    array = np.asarray(array, dtype=float)
    finite = np.isfinite(array)
    if finite.all():
        return array.tolist()
    values = array.astype(object)
    values[~finite] = None
    return values.tolist()


def _jsonable(value: Any) -> Any:
    """Make a request tag / payload JSON-serialisable (tuples, numpy types)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class ScenarioHTTPServer:
    """Serve a scenario service over HTTP (see module docstring).

    Parameters
    ----------
    service:
        The backing :class:`~repro.service.ScenarioService` or
        :class:`~repro.service.ShardedScenarioService` (anything with
        ``submit_scenario``, ``metrics_records`` and a ``registry``).  The
        server does not own the service: start and close it separately.
    host, port:
        Bind address; port ``0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`) — what the tests use.
    max_connections:
        Cap on concurrently served client connections.  A connection beyond
        the cap is answered ``503`` (with ``Retry-After``) and closed before
        any request bytes are read, so a slow-loris client cannot pin the
        server's handler tasks.  ``None`` (default) leaves it unbounded.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._server: asyncio.AbstractServer | None = None
        self._active_connections = 0
        self._draining = False
        self._idle = asyncio.Event()
        #: Requests answered; ``GET /metrics`` renders it after the service's.
        self.stats = HTTPStats()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )

    @property
    def rejected_connections(self) -> int:
        """Connections refused by the ``max_connections`` cap."""
        return self.stats.requests.get(("connection", 503), 0)

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` has been called."""
        return self._draining

    @property
    def active_connections(self) -> int:
        """Client connections currently being served."""
        return self._active_connections

    def begin_drain(self) -> None:
        """Stop accepting connections; pending requests get ``503``.

        The listening sockets close immediately (no new TCP connections),
        and every request parsed after this point — including requests on
        established keep-alive connections — is answered ``503`` with
        ``Connection: close``.  Requests already dispatched to the backing
        service finish normally; await :meth:`drain` for them.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()

    async def drain(self) -> None:
        """:meth:`begin_drain` and wait for in-flight connections to finish."""
        self.begin_drain()
        if self._active_connections:
            self._idle.clear()
            await self._idle.wait()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server is not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _count(self, route: str, status: int) -> None:
        counts = self.stats.requests
        counts[route, status] = counts.get((route, status), 0) + 1

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        over_cap = (
            self._max_connections is not None
            and self._active_connections >= self._max_connections
        )
        if not over_cap:
            self._active_connections += 1
        try:
            if over_cap:
                # Reject before reading any bytes: a slow-loris client never
                # gets to hold a handler beyond this response.
                self._count("connection", 503)
                status, content_type, body = self._json_error(
                    503, "connection limit reached"
                )
                await self._write_response(writer, status, content_type, body, False)
            else:
                await self._serve_connection(reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):  # client went away mid-request; nothing to answer
            pass
        finally:
            if not over_cap:
                self._active_connections -= 1
                if self._active_connections == 0:
                    self._idle.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The keep-alive request loop of one accepted connection."""
        while True:
            try:
                request_line = await reader.readline()
            except ValueError:  # line beyond the StreamReader limit
                self._count("other", 400)
                await self._write_response(
                    writer, 400, "text/plain", b"request line too long", False
                )
                break
            if not request_line or request_line in (b"\r\n", b"\n"):
                break
            try:
                method, raw_path, version = (
                    request_line.decode("latin-1").strip().split(" ", 2)
                )
            except ValueError:
                self._count("other", 400)
                await self._write_response(
                    writer, 400, "text/plain", b"malformed request line", False
                )
                break
            route = (method, raw_path.partition("?")[0])
            route_label = " ".join(route) if route in _ROUTES else "other"
            headers: dict[str, str] = {}
            malformed_headers = False
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # header line beyond the reader limit
                    malformed_headers = True
                    break
                if line in (b"\r\n", b"\n", b""):
                    break
                if len(headers) >= MAX_HEADER_LINES:
                    malformed_headers = True
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if malformed_headers:
                self._count(route_label, 400)
                await self._write_response(
                    writer, 400, "text/plain", b"too many or oversized headers", False
                )
                break
            keep_alive = (
                version == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
            )
            length = _content_length(headers.get("content-length", "0"))
            if version not in _VERSIONS:
                status, content_type, body = (
                    400,
                    "text/plain; charset=utf-8",
                    b"unsupported HTTP version",
                )
                keep_alive = False
            elif self._draining:
                # Drain mode: established (keep-alive) connections may still
                # deliver requests after the listener closed; refuse them
                # without reading the body and close the connection.
                status, content_type, body = self._json_error(
                    503, "server is draining; no new requests accepted"
                )
                keep_alive = False
            elif length < 0:
                status, content_type, body = (
                    400,
                    "text/plain; charset=utf-8",
                    b"malformed Content-Length",
                )
                keep_alive = False
            elif length > MAX_BODY_BYTES:
                status, content_type, body = (
                    413,
                    "text/plain; charset=utf-8",
                    b"request body too large",
                )
                keep_alive = False
            else:
                body_bytes = await reader.readexactly(length) if length else b""
                status, content_type, body = await self._dispatch(
                    method, raw_path, body_bytes
                )
            self._count(route_label, status)
            await self._write_response(
                writer, status, content_type, body, keep_alive
            )
            if not keep_alive:
                break

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status == 503:
            headers.append("Retry-After: 1")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, raw_path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        path = raw_path.partition("?")[0]
        try:
            if path == "/scenario":
                if method != "POST":
                    raise _HTTPError(405, "use POST /scenario")
                return await self._post_scenario(body)
            if path == "/registry":
                if method != "GET":
                    raise _HTTPError(405, "use GET /registry")
                return self._get_registry()
            if path == "/metrics":
                if method != "GET":
                    raise _HTTPError(405, "use GET /metrics")
                return await self._get_metrics()
            raise _HTTPError(404, f"unknown path {path!r}")
        except _HTTPError as error:
            return self._json_error(error.status, error.message)
        except QueueFull as error:
            return self._json_error(503, str(error))
        except ShardCrashed as error:
            # Transient by construction: the supervisor is restarting the
            # worker (or failover will route around it); tell the client to
            # come back rather than treating this as a server bug.
            return self._json_error(503, str(error))
        except (ScenarioTimeout, asyncio.TimeoutError) as error:
            return self._json_error(504, str(error) or "request deadline expired")
        except Exception as error:  # a poisoned scenario fails only its caller
            return self._json_error(500, f"{type(error).__name__}: {error}")

    def _json_error(self, status: int, message: str) -> tuple[int, str, bytes]:
        payload = json.dumps({"error": message, "status": status}).encode()
        return status, "application/json", payload

    def _get_registry(self) -> tuple[int, str, bytes]:
        payload = json.dumps({"scenarios": self.service.registry.describe()})
        return 200, "application/json", payload.encode()

    async def _get_metrics(self) -> tuple[int, str, bytes]:
        records = self.service.metrics_records()
        if inspect.isawaitable(records):  # the sharded front aggregates async
            records = await records
        body = render_metrics(*records, self.stats)
        return 200, "text/plain; version=0.0.4; charset=utf-8", body.encode()

    async def _post_scenario(self, body: bytes) -> tuple[int, str, bytes]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        # ValueError covers undecodable bytes, malformed JSON and integers
        # past Python's digit limit; RecursionError, nesting too deep.
        except (ValueError, RecursionError) as error:
            raise _HTTPError(400, f"body is not valid JSON: {error}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("name"), str):
            raise _HTTPError(400, 'body must be a JSON object with a "name" string')
        unknown = sorted(set(payload) - {"name", "points", "timeout"})
        if unknown:
            raise _HTTPError(
                400,
                f'unknown key {json.dumps(unknown[0])}: the body takes "name", "points" '
                'and "timeout"',
            )
        points = payload.get("points")
        if points is not None and (
            not isinstance(points, int) or not 2 <= points <= MAX_GRID_POINTS
        ):
            raise _HTTPError(400, f'"points" must be an integer from 2 to {MAX_GRID_POINTS}')
        timeout = payload.get("timeout")
        # NaN, 1e400 (parsed as inf) and true (a bool is an int) are not
        # deadlines; the upper bound also keeps huge integers out of float.
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout <= sys.float_info.max
        ):
            raise _HTTPError(
                400, '"timeout" must be a finite positive number of seconds'
            )
        # Resolve the name here so only a genuinely unknown scenario maps to
        # 404 — a KeyError escaping execution must stay a 500.
        try:
            self.service.registry.get(payload["name"])
        except KeyError as error:
            raise _HTTPError(
                404, str(error.args[0]) if error.args else "unknown scenario"
            ) from None
        pairs = await self.service.submit_scenario(
            payload["name"], points=points, timeout=timeout
        )
        curves = [
            {
                "tag": _jsonable(request.tag),
                "times": _json_floats(result.times),
                "values": _json_floats(result.squeezed),
                "lumped_states": result.lumped_states,
            }
            for request, result in pairs
        ]
        response = json.dumps(
            {"scenario": payload["name"], "count": len(curves), "curves": curves}
        )
        return 200, "application/json", response.encode()
