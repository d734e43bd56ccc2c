"""Tests for the asyncio HTTP front end (`repro.service.http`).

The acceptance round-trip runs over a real 2-shard service: ``POST
/scenario`` returns the family's JSON values (checked against a direct
in-process computation) and ``GET /metrics`` aggregates both shards'
counters.  Error mapping (400/404/405/503/504/500) is exercised against a
stub service so the status-code contract is tested without spawning
processes.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from helpers import check_exposition
from repro.analysis import AnalysisSession
from repro.cli import main
from repro.service import (
    ArtifactCache,
    QueueFull,
    ScenarioHTTPServer,
    ScenarioService,
    ScenarioTimeout,
    ShardCrashed,
    ShardedScenarioService,
    paper_registry,
)
from repro.service.http import _json_floats
from repro.service.registry import MAX_GRID_POINTS

POINTS = 7


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    keep_open: bool = False,
    reader_writer=None,
) -> tuple[int, dict[str, str], bytes, tuple]:
    """A tiny raw-socket HTTP/1.1 client (no third-party dependencies)."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = reader_writer
    connection = "keep-alive" if keep_open else "close"
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\nContent-Type: application/json\r\n"
    writer.write(head.encode() + b"\r\n" + (body or b""))
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split(b" ")[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length", "0")))
    if not keep_open:
        writer.close()
        await writer.wait_closed()
    return status, headers, payload, (reader, writer)


def run_server_test(service_factory, client):
    """Start a service + server, run the async ``client(host, port)`` body."""

    async def main():
        async with service_factory() as service:
            server = ScenarioHTTPServer(service)
            await server.start()
            host, port = server.address
            try:
                return await client(host, port, server)
            finally:
                await server.close()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# acceptance: POST /scenario + GET /metrics over two real shards
# ---------------------------------------------------------------------------
class TestShardedRoundTrip:
    def test_scenario_values_and_metrics_aggregate_both_shards(self):
        family = paper_registry().expand("fig4_5", points=POINTS)
        session = AnalysisSession()
        indices = [session.add(request) for request in family]
        session_results = session.execute()
        reference = {
            tuple(request.tag): session_results[index].squeezed
            for request, index in zip(family, indices)
        }

        async def client(host, port, server):
            body = json.dumps({"name": "fig4_5", "points": POINTS}).encode()
            status, _, payload, _ = await http_request(
                host, port, "POST", "/scenario", body
            )
            assert status == 200
            document = json.loads(payload)
            status, headers, metrics, _ = await http_request(
                host, port, "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            return document, metrics.decode()

        document, metrics = run_server_test(
            lambda: ShardedScenarioService(2, coalesce_window=0.02), client
        )

        assert document["scenario"] == "fig4_5"
        assert document["count"] == len(family)
        for curve in document["curves"]:
            expected = reference[tuple(curve["tag"])]
            np.testing.assert_allclose(curve["values"], expected, atol=1e-12)
            assert len(curve["times"]) == POINTS

        check_exposition(metrics)
        lines = metrics.splitlines()
        assert f"repro_service_requests_total {len(family)}" in lines
        assert f"repro_front_completed_total {len(family)}" in lines
        for shard in (0, 1):
            assert f'repro_shard_alive{{shard="{shard}"}} 1' in lines
        # The family spans one chain family; routed totals must cover it all.
        routed = sum(
            int(line.rpartition(" ")[2])
            for line in lines
            if line.startswith("repro_shard_routed_total{")
        )
        assert routed == len(family)
        assert any(
            line.startswith('repro_http_requests_total{route="POST /scenario"')
            for line in lines
        )


# ---------------------------------------------------------------------------
# GET /metrics: bounded route labels, the same records on every front
# ---------------------------------------------------------------------------
class TestMetricsBody:
    def test_unknown_request_lines_share_one_series_per_status(self):
        async def client(host, port, server):
            paths = ['/a"b}'] + [f"/nope{n}" for n in range(5)]
            paths += [f"/probe/{n}" for n in range(50)]
            lines = [("GET", path) for path in paths] + [("BREW", "/x\\y")]
            for method, path in lines:
                status, _, _, _ = await http_request(host, port, method, path)
                assert status == 404
            status, _, _, _ = await http_request(host, port, "GET", "/registry")
            assert status == 200
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GARBAGE\r\n\r\n")  # no method, path and version
            assert (await reader.readline()).startswith(b"HTTP/1.1 400")
            writer.close()
            await writer.wait_closed()
            _, _, metrics, _ = await http_request(host, port, "GET", "/metrics")
            return metrics.decode()

        metrics = run_server_test(
            lambda: ScenarioService(artifacts=ArtifactCache()), client
        )
        kind, samples = check_exposition(metrics)["repro_http_requests_total"]
        assert kind == "counter"
        name = "repro_http_requests_total"
        assert samples == {
            (name, (("route", "other"), ("status", "404"))): 57.0,
            (name, (("route", "other"), ("status", "400"))): 1.0,
            (name, (("route", "GET /registry"), ("status", "200"))): 1.0,
        }

    def test_every_front_renders_the_service_cache_and_optimizer_families(
        self, capsys
    ):
        async def client(host, port, server):
            body = json.dumps({"name": "fig3", "points": 5}).encode()
            status, _, _, _ = await http_request(host, port, "POST", "/scenario", body)
            assert status == 200
            _, _, metrics, _ = await http_request(host, port, "GET", "/metrics")
            return metrics.decode()

        in_process = run_server_test(
            lambda: ScenarioService(artifacts=ArtifactCache()), client
        )
        one_shard = run_server_test(lambda: ShardedScenarioService(1), client)
        assert main(["serve", "--scenarios", "fig3", "--fast", "--metrics"]) == 0
        serve_dump = capsys.readouterr().out.partition("\n\n")[2]
        shared = ("repro_service_", "repro_cache_", "repro_optimizer_")
        families = [
            {name for name in check_exposition(text) if name.startswith(shared)}
            for text in (in_process, one_shard, serve_dump)
        ]
        assert families[0] == families[1] == families[2]
        for prefix in shared:
            assert any(name.startswith(prefix) for name in families[0])


# ---------------------------------------------------------------------------
# JSON encoding of result arrays
# ---------------------------------------------------------------------------
def json_floats_per_element(array) -> list:
    """The per-element conversion ``_json_floats`` replaced (the reference)."""

    def convert(value):
        if isinstance(value, list):
            return [convert(item) for item in value]
        return value if value is not None and np.isfinite(value) else None

    return convert(np.asarray(array, dtype=float).tolist())


@pytest.mark.parametrize(
    "array",
    [
        np.array([0.5, np.inf, -np.inf, np.nan, -0.0, 1e-300, 0.0]),
        np.array([[1.0, -0.0, np.nan], [np.inf, 2.5, -np.inf]]),
        np.random.default_rng(5).random((3, 4)),
        np.array([[0.1, 0.2], [-0.0, 0.3]]),
        np.array([[np.nan]]),
        np.array(np.inf),
        np.array(-0.0),
        np.zeros((2, 0)),
        [1, 2, 3],
    ],
    ids=["mixed", "2d-mixed", "2d-finite", "2d-negative-zero", "2d-nan", "0d-inf",
         "0d-negative-zero", "empty-2d", "int-list"],
)
def test_json_floats_bytes_match_the_per_element_conversion(array):
    assert json.dumps(_json_floats(array)) == json.dumps(json_floats_per_element(array))


# ---------------------------------------------------------------------------
# protocol behaviour against the in-process service (no worker spawn)
# ---------------------------------------------------------------------------
class TestProtocol:
    def _factory(self):
        return ScenarioService(artifacts=ArtifactCache(), coalesce_window=0.0)

    def test_registry_unknown_paths_and_methods(self):
        async def client(host, port, server):
            status, _, payload, _ = await http_request(host, port, "GET", "/registry")
            assert status == 200
            names = [spec["name"] for spec in json.loads(payload)["scenarios"]]
            assert "fig4_5" in names and "table2" in names

            status, _, payload, _ = await http_request(host, port, "GET", "/nope")
            assert status == 404
            status, _, payload, _ = await http_request(host, port, "GET", "/scenario")
            assert status == 405
            status, _, payload, _ = await http_request(
                host, port, "POST", "/scenario", b"not json"
            )
            assert status == 400
            status, _, payload, _ = await http_request(
                host, port, "POST", "/scenario", json.dumps({"name": 5}).encode()
            )
            assert status == 400
            status, _, payload, _ = await http_request(
                host,
                port,
                "POST",
                "/scenario",
                json.dumps({"name": "fig4_5", "points": 1}).encode(),
            )
            assert status == 400
            status, _, payload, _ = await http_request(
                host, port, "POST", "/scenario", json.dumps({"name": "ghost"}).encode()
            )
            assert status == 404
            assert "unknown scenario" in json.loads(payload)["error"]

        run_server_test(self._factory, client)

    def test_keep_alive_serves_sequential_requests_on_one_connection(self):
        async def client(host, port, server):
            status, _, _, pair = await http_request(
                host, port, "GET", "/registry", keep_open=True
            )
            assert status == 200
            status, _, payload, pair = await http_request(
                host, port, "GET", "/registry", keep_open=True, reader_writer=pair
            )
            assert status == 200
            assert json.loads(payload)["scenarios"]
            reader, writer = pair
            writer.close()
            await writer.wait_closed()

        run_server_test(self._factory, client)


class TestErrorMapping:
    """Status-code contract, driven through stub services."""

    class _StubService:
        def __init__(self, error: Exception | None = None):
            self.error = error
            self.registry = paper_registry()

        async def submit_scenario(self, name, points=None, timeout=None):
            if self.error is not None:
                raise self.error
            return []

        def metrics_records(self):
            return []

    def _run(
        self, error: Exception | None, body: bytes = b'{"name": "fig4_5"}'
    ) -> tuple[int, dict, dict[str, str]]:
        async def main():
            server = ScenarioHTTPServer(self._StubService(error))
            await server.start()
            host, port = server.address
            try:
                status, headers, payload, _ = await http_request(
                    host, port, "POST", "/scenario", body
                )
                return status, json.loads(payload), headers
            finally:
                await server.close()

        return asyncio.run(main())

    def test_queue_full_maps_to_503_with_retry_after(self):
        status, document, headers = self._run(QueueFull("portfolio queue at cap"))
        assert status == 503
        assert "portfolio queue at cap" in document["error"]
        assert headers.get("retry-after") == "1"

    def test_timeout_maps_to_504(self):
        status, document, _ = self._run(ScenarioTimeout("deadline expired"))
        assert status == 504
        assert "deadline expired" in document["error"]

    def test_shard_crashed_maps_to_503_with_retry_after(self):
        # A crashed shard is transient (the supervisor is restarting it),
        # so callers get 503 + Retry-After, not a generic 500.
        status, document, headers = self._run(
            ShardCrashed("shard 1 worker exited with code -9")
        )
        assert status == 503
        assert "shard 1" in document["error"]
        assert headers.get("retry-after") == "1"

    def test_unexpected_failure_maps_to_500(self):
        status, document, _ = self._run(RuntimeError("boom"))
        assert status == 500
        assert "boom" in document["error"]

    @pytest.mark.parametrize("timeout", ["NaN", "Infinity", "1e400", "true"])
    def test_timeout_that_is_not_a_finite_positive_number_is_a_400(self, timeout):
        body = f'{{"name": "fig3", "points": 3, "timeout": {timeout}}}'.encode()
        status, document, _ = self._run(None, body)
        assert status == 400
        assert document["error"] == '"timeout" must be a finite positive number of seconds'

    @pytest.mark.parametrize("points", ["1000000000000", str(2**70), "1", "true", "2.5"])
    def test_grid_outside_the_bounds_is_a_400(self, points):
        # A trillion points asked numpy for 7.28 TiB, 2**70 overflowed its
        # size check; both were 500s before the bound.
        status, document, _ = self._run(None, f'{{"name": "fig3", "points": {points}}}'.encode())
        assert status == 400
        assert document["error"] == f'"points" must be an integer from 2 to {MAX_GRID_POINTS}'

    def test_largest_grid_is_accepted(self):
        body = f'{{"name": "fig3", "points": {MAX_GRID_POINTS}}}'.encode()
        status, document, _ = self._run(None, body)
        assert status == 200
        assert document == {"scenario": "fig3", "count": 0, "curves": []}

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 100000 + b"]" * 100000,
            b'{"name": "fig3", "points": ' + b"9" * 5000 + b"}",
            b'{"name": "fig3", "timeout": ' + b"9" * 5000 + b"}",
        ],
        ids=["nested-too-deep", "points-past-the-digit-limit", "timeout-past-the-digit-limit"],
    )
    def test_json_the_parser_cannot_take_is_a_400(self, body):
        # These raised RecursionError and ValueError, which were 500s.
        status, document, _ = self._run(None, body)
        assert status == 400
        assert document["error"].startswith("body is not valid JSON: ")

    def test_unknown_key_is_a_400_naming_it(self):
        # A typo of "points" used to be ignored: 200 on the registry grid.
        status, document, _ = self._run(None, b'{"name": "fig3", "point": 5}')
        assert status == 400
        assert document["error"] == (
            'unknown key "point": the body takes "name", "points" and "timeout"'
        )

    def test_finite_positive_timeout_is_accepted(self):
        status, document, _ = self._run(None, b'{"name": "fig3", "timeout": 0.5}')
        assert status == 200
        assert document == {"scenario": "fig3", "count": 0, "curves": []}

    #: An 18-byte body the stub serves with a 200.
    FIG45 = b'{"name": "fig4_5"}'

    def _raw(self, request: bytes) -> tuple[bytes, dict]:
        """Raw request bytes in; every reply byte up to the close, and the
        server's per-(route, status) counts, out."""

        async def main():
            server = ScenarioHTTPServer(self._StubService())
            await server.start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(request)
                await writer.drain()
                reply = await asyncio.wait_for(reader.read(), 30)
                writer.close()
                await writer.wait_closed()
                return reply, dict(server.stats.requests)
            finally:
                await server.close()

        return asyncio.run(main())

    @pytest.mark.parametrize(
        "length", ["+18", "1_8", "-0", "\xb2", "", "9" * 5000],
        ids=[
            "plus", "underscore", "minus-zero", "superscript-digit", "empty",
            "past-the-digit-limit",
        ],
    )
    def test_malformed_content_length_is_a_400(self, length):
        # int() took "+18" and "1_8" (both served 200) and read "-0" as 0,
        # which left the body in the stream to be parsed as the next
        # request line of a keep-alive connection.
        head = (
            "POST /scenario HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        reply, counts = self._raw(head.encode("latin-1") + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.endswith(b"\r\n\r\nmalformed Content-Length")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert counts == {("POST /scenario", 400): 1}

    @pytest.mark.parametrize("version", ["FOO", "HTTP/2.0", "http/1.1", "HTTP/1.1 x"])
    def test_request_line_with_another_version_is_a_400(self, version):
        # Each of these was served 200.
        head = f"POST /scenario {version}\r\nHost: test\r\nContent-Length: 18\r\n\r\n"
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.endswith(b"\r\n\r\nunsupported HTTP version")
        assert counts == {("POST /scenario", 400): 1}

    def test_conflicting_content_lengths_are_a_400(self):
        # The last value was read, so this request was served 200.
        head = (
            "POST /scenario HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            "Content-Length: 5\r\nContent-Length: 18\r\n\r\n"
        )
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert reply.endswith(b"\r\n\r\nconflicting Content-Length headers")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert counts == {("POST /scenario", 400): 1}

    def test_repeated_equal_content_lengths_are_served(self):
        head = (
            "POST /scenario HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            "Content-Length: 18\r\nContent-Length: 18\r\n\r\n"
        )
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert counts == {("POST /scenario", 200): 1}

    def test_transfer_encoding_is_a_501_that_closes_the_connection(self):
        # A chunked body was read as empty (a 400), and its chunk-size line
        # was then parsed as a second request line (a 400 under "other").
        # The request asks for keep-alive: the reply reaching the end of
        # the stream shows the server closed the connection.
        head = (
            "POST /scenario HTTP/1.1\r\nHost: test\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        )
        chunked = b"12\r\n" + self.FIG45 + b"\r\n0\r\n\r\n"
        reply, counts = self._raw(head.encode() + chunked)
        assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.endswith(
            b"\r\n\r\nTransfer-Encoding is not supported; send Content-Length"
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        assert counts == {("POST /scenario", 501): 1}

    @pytest.mark.parametrize(
        "fields",
        [
            "Content-Length : 18\r\n",
            "Content-Length\t: 18\r\n",
            "Content-Length: 18\r\n 5\r\n",
            "Content-Length: 18\r\n\tX-Fold: 5\r\n",
            " Content-Length: 18\r\n",
            "Content-Length: 18\r\nX-No-Colon\r\n",
            "Content-Length: 18\r\n: empty name\r\n",
        ],
        ids=[
            "space-before-colon", "tab-before-colon", "obs-fold", "tab-obs-fold",
            "leading-space", "no-colon", "empty-name",
        ],
    )
    def test_malformed_field_lines_are_a_400_that_closes(self, fields):
        # The name was stripped, so "Content-Length : 18" was read as a
        # length and served 200, and a folded or colon-less line was kept
        # as a header. The request asks for keep-alive: the reply reaching
        # the end of the stream shows the server closed the connection.
        head = f"POST /scenario HTTP/1.1\r\nHost: test\r\n{fields}\r\n"
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.endswith(b"\r\n\r\nmalformed header line")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert counts == {("POST /scenario", 400): 1}

    @pytest.mark.parametrize("length", ["Content-Length:18", "Content-Length:   18  "])
    def test_whitespace_after_the_colon_is_served(self, length):
        head = (
            "POST /scenario HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            f"{length}\r\n\r\n"
        )
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert counts == {("POST /scenario", 200): 1}

    @pytest.mark.parametrize(
        ("version", "hosts"),
        [
            ("HTTP/1.1", ""),
            ("HTTP/1.1", "Host: test\r\nHost: test\r\n"),
            ("HTTP/1.1", "Host: a\r\nHost: b\r\n"),
            ("HTTP/1.0", "Host: a\r\nHost: a\r\n"),
        ],
        ids=["missing", "repeated", "two-values", "repeated-on-1.0"],
    )
    def test_missing_or_repeated_host_is_a_400_that_closes(self, version, hosts):
        # RFC 9112 3.2: an HTTP/1.1 request needs exactly one Host line, and
        # no request may carry two. Each of these was served 200. The 1.1
        # requests ask for keep-alive: the reply reaching the end of the
        # stream shows the server closed the connection.
        head = f"POST /scenario {version}\r\n{hosts}Content-Length: 18\r\n\r\n"
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert reply.endswith(b"\r\n\r\nmissing or repeated Host header")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert counts == {("POST /scenario", 400): 1}

    def test_http_1_0_without_host_is_served(self):
        head = "POST /scenario HTTP/1.0\r\nContent-Length: 18\r\n\r\n"
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert counts == {("POST /scenario", 200): 1}

    @pytest.mark.parametrize("version", ["HTTP/1.0", "HTTP/1.1"])
    def test_digit_lengths_on_both_versions_are_served(self, version):
        head = (
            f"POST /scenario {version}\r\nHost: test\r\nConnection: close\r\n"
            "Content-Length: 0018\r\n\r\n"
        )
        reply, counts = self._raw(head.encode() + self.FIG45)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert counts == {("POST /scenario", 200): 1}


class TestConnectionCap:
    def _factory(self):
        return ScenarioService(artifacts=ArtifactCache(), coalesce_window=0.0)

    def test_excess_connections_get_503_with_retry_after(self):
        async def client(host, port, server):
            # Hold the cap's worth of keep-alive connections open.
            status, _, _, first = await http_request(
                host, port, "GET", "/registry", keep_open=True
            )
            assert status == 200
            status, _, _, second = await http_request(
                host, port, "GET", "/registry", keep_open=True
            )
            assert status == 200
            assert server.active_connections == 2
            # The connection over the cap is rejected before its request
            # body is read, with a Retry-After hint, and closed.
            status, headers, payload, _ = await http_request(
                host, port, "GET", "/registry"
            )
            assert status == 503
            assert headers.get("retry-after") == "1"
            assert "connection limit" in json.loads(payload)["error"]
            assert server.rejected_connections == 1
            # Releasing a held connection frees a slot.
            reader, writer = first
            writer.close()
            await writer.wait_closed()
            while server.active_connections > 1:
                await asyncio.sleep(0.01)
            status, _, _, _ = await http_request(host, port, "GET", "/registry")
            assert status == 200
            reader, writer = second
            writer.close()
            await writer.wait_closed()

        async def main():
            async with self._factory() as service:
                server = ScenarioHTTPServer(service, max_connections=2)
                await server.start()
                host, port = server.address
                try:
                    await client(host, port, server)
                finally:
                    await server.close()

        asyncio.run(main())

    def test_uncapped_server_accepts_many_connections(self):
        async def client(host, port, server):
            pairs = []
            for _ in range(8):
                status, _, _, pair = await http_request(
                    host, port, "GET", "/registry", keep_open=True
                )
                assert status == 200
                pairs.append(pair)
            assert server.rejected_connections == 0
            for reader, writer in pairs:
                writer.close()
                await writer.wait_closed()

        run_server_test(self._factory, client)


class TestGracefulDrain:
    def _factory(self):
        return ScenarioService(artifacts=ArtifactCache(), coalesce_window=0.0)

    def test_drain_rejects_new_requests_and_waits_for_idle(self):
        async def client(host, port, server):
            status, _, _, pair = await http_request(
                host, port, "GET", "/registry", keep_open=True
            )
            assert status == 200
            assert not server.draining

            server.begin_drain()
            assert server.draining
            # The established keep-alive connection can still talk, but a
            # new request on it is refused and the connection is closed.
            status, headers, payload, pair = await http_request(
                host, port, "GET", "/registry", keep_open=True, reader_writer=pair
            )
            assert status == 503
            assert headers.get("connection") == "close"
            assert "draining" in json.loads(payload)["error"]
            reader, writer = pair
            writer.close()
            await writer.wait_closed()

            # drain() resolves once every connection has finished.
            await asyncio.wait_for(server.drain(), timeout=5)
            assert server.active_connections == 0

            # The listener is closed: no new connections are accepted.
            with pytest.raises((ConnectionError, OSError, asyncio.TimeoutError)):
                await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=0.5
                )

        run_server_test(self._factory, client)

    def test_drain_with_no_connections_returns_immediately(self):
        async def client(host, port, server):
            await asyncio.wait_for(server.drain(), timeout=1)
            assert server.draining
            assert server.active_connections == 0

        run_server_test(self._factory, client)


class TestBackpressureOverHTTP:
    def test_saturated_service_returns_503_then_recovers(self):
        """End-to-end: a real service at max_pending=1 rejects over HTTP."""

        async def main():
            service = ScenarioService(
                artifacts=ArtifactCache(),
                coalesce_window=0.5,  # hold the first batch open
                max_pending=1,
                registry=paper_registry(),
            )
            async with service:
                server = ScenarioHTTPServer(service)
                await server.start()
                host, port = server.address
                try:
                    body = json.dumps({"name": "fig4_5", "points": POINTS}).encode()
                    first = asyncio.ensure_future(
                        http_request(host, port, "POST", "/scenario", body)
                    )
                    await asyncio.sleep(0.1)  # the family saturates the queue
                    status, _, payload, _ = await http_request(
                        host, port, "POST", "/scenario", body
                    )
                    assert status == 503
                    assert "max_pending" in json.loads(payload)["error"]
                    # The idle service admitted the first family whole,
                    # although it is larger than the bound, and serves it.
                    status, _, _, _ = await first
                    assert status == 200
                    status, _, _, _ = await http_request(
                        host, port, "GET", "/metrics"
                    )
                    assert status == 200
                finally:
                    await server.close()

        asyncio.run(main())
