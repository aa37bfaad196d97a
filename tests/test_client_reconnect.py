"""Reconnect matrices for the one keep-alive HTTP client routine.

:class:`SyncServiceClient` and the worker's :class:`ClusterClient` run
on the same connection loop (:class:`KeepAliveClient`) under two retry
policies, each fixed by the client class.  The service client must
never dispatch a request twice:

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

The cluster protocol is at-least-once, so its client re-sends once
after *any* failure on a reused connection, a mid-response drop
included; a fresh connection's failure and a second failure stay fatal.

Each case runs against a scripted TCP server whose per-connection
behaviour is canned, so the matrices assert not just the raised error
but how many connections and requests the server actually saw, plus
the client's ``connections_opened``/``reuses`` counters.  The scripted
server also serves malformed responses, which must surface as
structured :class:`ServiceError`s: a body that is not a JSON object is
a 502 ``bad-response``, and an error without a structured body keeps
its HTTP status.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.errors import BackendUnavailableError
from repro.service.client import SyncServiceClient, request_json
from repro.service.cluster.worker import ClusterClient, run_worker
from repro.service.errors import ServiceError
from repro.transport import FRAME_CONTENT_TYPE, encode_message

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
FRAME_BODY = bytes(encode_message({"ok": True, "pong": True}))
FRAME_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: " + FRAME_CONTENT_TYPE.encode() + b"\r\n"
    b"Content-Length: " + str(len(FRAME_BODY)).encode() + b"\r\n"
    b"Connection: keep-alive\r\n"
    b"\r\n" + FRAME_BODY
)


def canned(status_line, body, content_type="text/html"):
    """A complete ``Connection: close`` response with ``body``."""
    return (
        b"HTTP/1.1 " + status_line + b"\r\n"
        b"Content-Type: " + content_type.encode() + b"\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"Connection: close\r\n"
        b"\r\n" + body
    )


def chunked(*lines):
    """A chunked ndjson stream response, one chunk per line."""
    head = (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n")
    chunks = b"".join(b"%x\r\n%s\r\n" % (len(line), line) for line in lines)
    return head + chunks + b"0\r\n\r\n"


class ScriptedServer:
    """A TCP server whose per-connection behaviour is a canned script.

    Behaviours:

    - ``"ok"``            answer every request on the connection
    - ``"ok-then-drop"``  answer the first request, close on the second
    - ``"drop"``          read the request, close without one response byte
    - ``"partial"``       send a truncated response, then close
    - ``"ok-then-partial"`` answer the first request, truncate the second
    - ``"no-length"``     send a 2xx response without Content-Length
    - ``bytes``           send these bytes as the response, then close

    ``response`` is the answer of ``"ok"`` (a JSON envelope by default).
    """

    def __init__(self, script, response=OK_RESPONSE):
        self.script = list(script)
        self.response = response
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
                        connection.sendall(self.response)
                elif behaviour == "ok-then-drop":
                    if self._read_request(connection):
                        connection.sendall(self.response)
                    self._read_request(connection)  # then drop it on the floor
                elif behaviour == "ok-then-partial":
                    if self._read_request(connection):
                        connection.sendall(self.response)
                    if self._read_request(connection):
                        connection.sendall(PARTIAL_RESPONSE)
                elif behaviour == "drop":
                    self._read_request(connection)
                elif behaviour == "partial":
                    if self._read_request(connection):
                        connection.sendall(PARTIAL_RESPONSE)
                elif behaviour == "no-length":
                    if self._read_request(connection):
                        connection.sendall(NO_LENGTH_RESPONSE)
                elif isinstance(behaviour, bytes):
                    if self._read_request(connection):
                        connection.sendall(behaviour)
        self._listener.close()

    def close(self) -> None:
        self._listener.close()


@pytest.fixture
def scripted():
    servers = []

    def start(*script, response=OK_RESPONSE):
        server = ScriptedServer(script, response)
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
# the cluster worker's client: at-least-once
# ---------------------------------------------------------------------------


class TestClusterReconnectMatrix:
    @pytest.mark.parametrize("failure", ["drop", "partial"])
    def test_fresh_connection_failure_is_fatal_no_retry(self, scripted,
                                                        failure):
        server = scripted(failure, "ok", response=FRAME_RESPONSE)
        client = ClusterClient("127.0.0.1", server.port)
        with pytest.raises(BackendUnavailableError, match="coordinator"):
            client.call("/cluster/lease", {"worker_id": "w"})
        assert server.connections_seen == 1  # the "ok" script never ran
        assert server.requests_seen == 1
        assert client.connections_opened == 0

    @pytest.mark.parametrize("failure", ["ok-then-drop", "ok-then-partial"])
    def test_reused_connection_failure_is_retried_exactly_once(
        self, scripted, failure
    ):
        server = scripted(failure, "ok", response=FRAME_RESPONSE)
        client = ClusterClient("127.0.0.1", server.port)
        try:
            first = client.call("/cluster/lease", {"worker_id": "w"})
            second = client.call("/cluster/lease", {"worker_id": "w"})
        finally:
            client.close()
        assert first == second == {"ok": True, "pong": True}
        assert server.connections_seen == 2
        assert server.requests_seen == 3  # the failed request was re-sent
        assert client.connections_opened == 2
        assert client.reuses == 0

    @pytest.mark.parametrize("failure", ["drop", "partial"])
    def test_second_failure_is_fatal(self, scripted, failure):
        server = scripted("ok-then-drop", failure, "ok",
                          response=FRAME_RESPONSE)
        client = ClusterClient("127.0.0.1", server.port)
        client.call("/cluster/lease", {"worker_id": "w"})
        with pytest.raises(BackendUnavailableError):
            client.call("/cluster/lease", {"worker_id": "w"})
        assert server.connections_seen == 2  # one retry, never a second
        assert server.requests_seen == 3
        assert client.connections_opened == 1

    def test_reuse_counters_on_a_healthy_connection(self, scripted):
        server = scripted("ok", response=FRAME_RESPONSE)
        client = ClusterClient("127.0.0.1", server.port)
        try:
            for _ in range(3):
                assert client.call("/cluster/lease", {}) == {
                    "ok": True, "pong": True}
        finally:
            client.close()
        assert (client.connections_opened, client.reuses) == (1, 2)
        assert (server.connections_seen, server.requests_seen) == (1, 3)

    def test_service_client_never_resends_a_mid_response_drop(self, scripted):
        """The same drop the cluster client re-sends is fatal for the
        service client: its request was dispatched once and stays so."""
        server = scripted("ok-then-partial", "ok")
        client = SyncServiceClient(port=server.port)
        client.request("GET", "/stats")
        with pytest.raises(BackendUnavailableError, match="mid-response"):
            client.request("GET", "/stats")
        assert server.connections_seen == 1
        assert server.requests_seen == 2


# ---------------------------------------------------------------------------
# malformed responses: structured errors from the one decode path
# ---------------------------------------------------------------------------

HTML_502 = canned(b"502 Bad Gateway", b"<html><body>Bad Gateway</body></html>")
NOT_AN_OBJECT = {
    "proxy-html-502": HTML_502,
    "text-200": canned(b"200 OK", b"pong", content_type="text/plain"),
    "json-array-200": canned(b"200 OK", b"[1, 2]",
                             content_type="application/json"),
}


def _stream(client):
    return list(client.stream_pareto({"apps": ["nerf"]}))


class TestMalformedResponses:
    def test_2xx_without_content_length_reads_to_eof(self, scripted):
        """``Connection: close`` frames the body: it ends at EOF."""
        server = scripted("no-length")
        with SyncServiceClient(port=server.port) as client:
            assert client.request("GET", "/stats")["result"]["pong"]
        assert server.requests_seen == 1

    def test_bare_error_response_keeps_its_http_status(self, scripted):
        """A non-2xx without a body is an empty error payload with the
        response's own status, not a framing error and not a 500."""
        server = scripted(b"HTTP/1.1 503 Unavailable\r\n"
                          b"Connection: close\r\n\r\n")
        with SyncServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/stats")
        assert excinfo.value.code == "internal"
        assert excinfo.value.status == 503

    def test_structured_error_keeps_its_own_status(self, scripted):
        body = json.dumps({"ok": False, "error": {
            "status": 404, "code": "not-on-grid", "message": "no",
            "axis": "app"}}).encode()
        server = scripted(canned(b"400 Bad Request", body,
                                 content_type="application/json"))
        with SyncServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/stats")
        error = excinfo.value
        assert (error.status, error.code) == (404, "not-on-grid")
        assert error.details == {"axis": "app"}

    @pytest.mark.parametrize("call", [
        lambda client: client.request("GET", "/stats"), _stream,
    ], ids=["request", "stream"])
    @pytest.mark.parametrize("response", list(NOT_AN_OBJECT.values()),
                             ids=list(NOT_AN_OBJECT))
    def test_body_that_is_not_a_json_object_is_a_502(self, scripted,
                                                     response, call):
        server = scripted(response)
        with SyncServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                call(client)
        assert (excinfo.value.status, excinfo.value.code) == (
            502, "bad-response")

    def test_malformed_stream_line_is_a_502(self, scripted):
        server = scripted(chunked(b'{"event": "progress"}\n',
                                  b"<html>oops</html>\n"))
        with SyncServiceClient(port=server.port) as client:
            events = client.stream_pareto({"apps": ["nerf"]})
            assert next(events) == {"event": "progress"}
            with pytest.raises(ServiceError) as excinfo:
                next(events)
        assert (excinfo.value.status, excinfo.value.code) == (
            502, "bad-response")


NO_CLUSTER_404 = canned(
    b"404 Not Found",
    json.dumps({"ok": False, "error": {
        "status": 404, "code": "no-cluster",
        "message": "this server has no shard coordinator mounted"}}).encode(),
    content_type="application/json",
)


class TestWorkerAgainstAServerWithoutCluster:
    """A worker pointed at a server with no coordinator gets a JSON 404,
    not a frame: the cluster client raises it as the structured error,
    and the worker exits non-zero with one log line."""

    def test_json_404_is_a_structured_service_error(self, scripted):
        server = scripted(NO_CLUSTER_404)
        client = ClusterClient("127.0.0.1", server.port)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.call("/cluster/register", {"host": "h", "pid": 1})
        finally:
            client.close()
        assert (excinfo.value.status, excinfo.value.code) == (
            404, "no-cluster")

    def test_worker_exits_non_zero_with_one_log_line(self, scripted):
        server = scripted(NO_CLUSTER_404)
        lines = []
        code = run_worker("127.0.0.1", server.port,
                          log=lambda line, flush=False: lines.append(line))
        assert code == 1
        assert len(lines) == 1 and "no-cluster" in lines[0]
        assert server.requests_seen == 1


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
