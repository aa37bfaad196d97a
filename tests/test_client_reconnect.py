"""Stale keep-alive reconnect matrix for both service clients.

Both :class:`SyncServiceClient` and the async :class:`ServiceClient`
promise the same retry contract on their one persistent connection:

- **fresh-fail**: a *fresh* connection that drops before one response
  byte is fatal immediately — there is no stale connection to blame;
- **stale-retry-success**: a *reused* connection that drops before one
  response byte is the stale keep-alive signature — reconnect and
  re-send exactly once;
- **stale-retry-fail**: when the one retry also drops pre-response, the
  failure is fatal (never a second retry);
- **mid-response-fatal**: once a response has started, any drop is
  fatal with no retry at all — the request was dispatched and must not
  be re-dispatched (a slow sweep must never run twice).

Each case runs against a scripted TCP server whose per-connection
behaviour is canned, so the matrix asserts not just the raised error
but how many connections and requests the server actually saw, plus
the client's ``connections_opened``/``reuses`` counters.  The scripted
server also serves the malformed-response regression: a 2xx response
without ``Content-Length`` must raise a structured 502 from the async
client instead of silently decoding an empty body as ``{}``.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.errors import BackendUnavailableError
from repro.service.client import (
    ServiceClient,
    SyncServiceClient,
    request_json,
)
from repro.service.errors import ServiceError

OK_BODY = json.dumps({"ok": True, "schema_version": 1,
                      "result": {"pong": True}}).encode()
OK_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(OK_BODY)).encode() + b"\r\n"
    b"Connection: keep-alive\r\n"
    b"\r\n" + OK_BODY
)
PARTIAL_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 100\r\n"
    b"Connection: keep-alive\r\n"
    b"\r\n"
    b"0123456789"  # 10 of the promised 100 bytes, then the drop
)
NO_LENGTH_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Connection: close\r\n"
    b"\r\n" + OK_BODY
)


class ScriptedServer:
    """A TCP server whose per-connection behaviour is a canned script.

    Behaviours:

    - ``"ok"``            answer every request on the connection
    - ``"ok-then-drop"``  answer the first request, close on the second
    - ``"drop"``          read the request, close without one response byte
    - ``"partial"``       send a truncated response, then close
    - ``"no-length"``     send a 2xx response without Content-Length
    """

    def __init__(self, script):
        self.script = list(script)
        self.connections_seen = 0
        self.requests_seen = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _read_request(self, connection) -> bool:
        """Consume one full request; False on EOF before any byte."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = connection.recv(65536)
            if not chunk:
                return False
            rest += chunk
        self.requests_seen += 1
        return True

    def _serve(self) -> None:
        while self.script:
            behaviour = self.script.pop(0)
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.connections_seen += 1
            with connection:
                if behaviour == "ok":
                    while self._read_request(connection):
                        connection.sendall(OK_RESPONSE)
                elif behaviour == "ok-then-drop":
                    if self._read_request(connection):
                        connection.sendall(OK_RESPONSE)
                    self._read_request(connection)  # then drop it on the floor
                elif behaviour == "drop":
                    self._read_request(connection)
                elif behaviour == "partial":
                    if self._read_request(connection):
                        connection.sendall(PARTIAL_RESPONSE)
                elif behaviour == "no-length":
                    if self._read_request(connection):
                        connection.sendall(NO_LENGTH_RESPONSE)
        self._listener.close()

    def close(self) -> None:
        self._listener.close()


@pytest.fixture
def scripted():
    servers = []

    def start(*script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


# ---------------------------------------------------------------------------
# the synchronous client
# ---------------------------------------------------------------------------


class TestSyncReconnectMatrix:
    def test_fresh_connection_drop_is_fatal_no_retry(self, scripted):
        server = scripted("drop", "ok")  # a retry would find a healthy conn
        client = SyncServiceClient(port=server.port)
        with pytest.raises(BackendUnavailableError):
            client.request("GET", "/stats")
        assert server.connections_seen == 1  # the "ok" script never ran
        assert client.connections_opened == 0
        assert client.reuses == 0

    def test_stale_reused_connection_retries_exactly_once_and_succeeds(
        self, scripted
    ):
        server = scripted("ok-then-drop", "ok")
        client = SyncServiceClient(port=server.port)
        first = client.request("GET", "/stats")
        second = client.request("GET", "/stats")  # stale drop -> reconnect
        client.close()
        assert first["result"]["pong"] and second["result"]["pong"]
        assert client.connections_opened == 2
        assert client.reuses == 0  # both answers arrived on fresh conns
        assert server.connections_seen == 2
        assert server.requests_seen == 3  # the dropped re-send counts

    def test_stale_retry_that_also_drops_is_fatal(self, scripted):
        server = scripted("ok-then-drop", "drop", "ok")
        client = SyncServiceClient(port=server.port)
        client.request("GET", "/stats")
        with pytest.raises(BackendUnavailableError):
            client.request("GET", "/stats")
        assert server.connections_seen == 2  # one retry, never a second
        assert client.connections_opened == 1

    def test_mid_response_drop_is_fatal_and_never_redispatches(self, scripted):
        server = scripted("partial", "ok")
        client = SyncServiceClient(port=server.port)
        with pytest.raises(BackendUnavailableError, match="mid-response"):
            client.request("GET", "/stats")
        assert server.connections_seen == 1
        assert server.requests_seen == 1  # dispatched once, never again

    def test_reuse_counters_on_a_healthy_connection(self, scripted):
        server = scripted("ok")
        client = SyncServiceClient(port=server.port)
        for _ in range(3):
            assert client.request("GET", "/stats")["result"]["pong"]
        client.close()
        assert client.connections_opened == 1
        assert client.reuses == 2
        assert server.connections_seen == 1
        assert server.requests_seen == 3


# ---------------------------------------------------------------------------
# the asyncio client
# ---------------------------------------------------------------------------


def _async_requests(port, n):
    """Run n sequential requests on one ServiceClient; return outcomes."""

    async def run():
        outcomes = []
        async with ServiceClient("127.0.0.1", port) as client:
            for _ in range(n):
                try:
                    outcomes.append(await client.request("GET", "/stats"))
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes, client.connections_opened, client.reuses

    return asyncio.run(run())


class TestAsyncReconnectMatrix:
    def test_fresh_connection_drop_is_fatal_no_retry(self, scripted):
        server = scripted("drop", "ok")
        outcomes, opened, reuses = _async_requests(server.port, 1)
        assert isinstance(outcomes[0], BackendUnavailableError)
        assert server.connections_seen == 1
        assert (opened, reuses) == (1, 0)  # opened, but never answered

    def test_stale_reused_connection_retries_exactly_once_and_succeeds(
        self, scripted
    ):
        server = scripted("ok-then-drop", "ok")
        outcomes, opened, reuses = _async_requests(server.port, 2)
        assert all(o["result"]["pong"] for o in outcomes)
        assert opened == 2
        assert reuses == 0
        assert server.connections_seen == 2
        assert server.requests_seen == 3

    def test_stale_retry_that_also_drops_is_fatal(self, scripted):
        server = scripted("ok-then-drop", "drop", "ok")
        outcomes, opened, _ = _async_requests(server.port, 2)
        assert outcomes[0]["result"]["pong"]
        assert isinstance(outcomes[1], BackendUnavailableError)
        assert server.connections_seen == 2
        assert opened == 2

    def test_mid_response_drop_is_fatal_and_never_redispatches(self, scripted):
        server = scripted("partial", "ok")
        outcomes, _, _ = _async_requests(server.port, 1)
        assert isinstance(outcomes[0], BackendUnavailableError)
        assert "mid-response" in str(outcomes[0])
        assert server.connections_seen == 1
        assert server.requests_seen == 1

    def test_reuse_counters_on_a_healthy_connection(self, scripted):
        server = scripted("ok")
        outcomes, opened, reuses = _async_requests(server.port, 3)
        assert all(o["result"]["pong"] for o in outcomes)
        assert (opened, reuses) == (1, 2)
        assert server.requests_seen == 3


# ---------------------------------------------------------------------------
# malformed 2xx responses (the silent empty-body regression)
# ---------------------------------------------------------------------------


class TestMalformedResponses:
    def test_2xx_without_content_length_is_a_structured_502(self, scripted):
        """The async client must not read a missing body as ``{}``."""
        server = scripted("no-length")
        outcomes, _, _ = _async_requests(server.port, 1)
        error = outcomes[0]
        assert isinstance(error, ServiceError), error
        assert error.status == 502
        assert error.code == "bad-response"
        assert "Content-Length" in str(error)
        assert server.requests_seen == 1  # structured failure, no retry

    def test_error_response_without_content_length_keeps_old_semantics(self):
        """Non-2xx without Content-Length still maps to a service error
        (read as an empty error payload), not to the 502 framing error."""

        async def run():
            async def handler(reader, writer):
                await reader.readline()
                while (await reader.readline()).strip():
                    pass
                writer.write(
                    b"HTTP/1.1 503 Unavailable\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                writer.close()

            inline = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = inline.sockets[0].getsockname()[1]
            try:
                async with ServiceClient("127.0.0.1", port) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client.request("GET", "/stats")
                    return excinfo.value
            finally:
                inline.close()
                await inline.wait_closed()

        error = asyncio.run(run())
        assert error.code == "internal"  # empty error payload, not framing


# ---------------------------------------------------------------------------
# the one-shot request_json helper (the socket-leak regression)
# ---------------------------------------------------------------------------


class _RecordingConnection(http.client.HTTPConnection):
    """HTTPConnection that counts ``close()`` calls per instance."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.close_calls = 0
        _RecordingConnection.instances.append(self)

    def close(self):
        self.close_calls += 1
        super().close()


@pytest.fixture
def recorded_connections(monkeypatch):
    _RecordingConnection.instances = []
    monkeypatch.setattr(http.client, "HTTPConnection", _RecordingConnection)
    return _RecordingConnection.instances


class TestRequestJsonClosesOnEveryExit:
    """``request_json`` promises the connection is closed on *every*
    exit path — success, connect refusal, and a server that drops the
    socket before one response byte — so scripts hammering the helper
    in a loop can never leak sockets (the contract its docstring pins).
    """

    def test_success_path_closes(self, scripted, recorded_connections):
        server = scripted("ok")
        status, body = request_json(
            "127.0.0.1", server.port, "GET", "/stats"
        )
        assert status == 200
        assert body["result"]["pong"]
        (connection,) = recorded_connections
        assert connection.close_calls >= 1

    def test_connection_refused_closes(self, recorded_connections):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        vacant_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(OSError):
            request_json("127.0.0.1", vacant_port, "GET", "/stats",
                         timeout=2.0)
        (connection,) = recorded_connections
        assert connection.close_calls >= 1

    def test_drop_before_response_closes(self, scripted,
                                         recorded_connections):
        server = scripted("drop")  # reads the request, then hangs up
        with pytest.raises((http.client.HTTPException, OSError)):
            request_json("127.0.0.1", server.port, "GET", "/stats",
                         timeout=2.0)
        assert server.requests_seen == 1  # dispatched, then dropped
        (connection,) = recorded_connections
        assert connection.close_calls >= 1
