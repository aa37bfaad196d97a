"""Clients for the sweep service's HTTP API (JSON, plus result frames).

Three flavours, all stdlib-only, all keep-alive:

- :class:`ServiceClient` — asyncio client; holds one connection open
  across requests (reconnecting transparently when the server or an
  idle timeout dropped it) so a query session pays the TCP handshake
  once, not per call.  Used by the test harness and any async embedder.
- :class:`SyncServiceClient` — synchronous twin over
  :mod:`http.client`, with the same persistent-connection semantics;
  powers :class:`repro.api.RemoteBackend` and therefore the
  ``python -m repro query`` subcommand and the CI smoke; it asks for a
  finished ``/result`` as one binary :mod:`repro.transport` frame.
- :func:`request_json` — one-shot synchronous helper (opens and closes
  a connection per call) for fire-and-forget scripts.

Non-2xx responses raise :class:`~repro.service.errors.ServiceError`
rebuilt from the structured body, so an ambiguous-axis 400 surfaces
client-side with its ``.details["axis"]`` intact.  Transport failures
(nothing listening, connection dropped mid-response) raise
:class:`~repro.errors.BackendUnavailableError`.  Both derive from
:class:`~repro.errors.ReproError`, the facade's one exception base.

Clients negotiate the payload schema: every POST body carries the
``schema_version`` this build speaks, and every response's stamped
version is validated before the payload is interpreted.

Against a server running with a tenants file (``repro serve --tenants``)
every flavour authenticates by bearer key: pass ``api_key`` and each
request carries ``Authorization: Bearer <key>``.  Rejections surface as
the server's structured errors — 401 ``unauthenticated``, 403
``forbidden``, 429 ``rate-limited``/``overloaded`` with a
``retry_after_s`` detail.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    SweepResult,
    check_schema_version,
)
from repro.errors import BackendUnavailableError
from repro.service.errors import ServiceError
from repro.transport import FRAME_CONTENT_TYPE, FrameError, decode_frame


def _check_response_schema(payload: Dict[str, Any]) -> None:
    """Reject a response stamped with a version this build cannot read."""
    try:
        check_schema_version(payload.get("schema_version"))
    except ValueError as exc:
        raise ServiceError(502, "unsupported-schema", str(exc))


def _decoded(status: int, data: bytes) -> Dict[str, Any]:
    """A JSON response's envelope; a non-2xx one raises its error."""
    payload = json.loads(data or b"{}")
    _check_response_schema(payload)
    if 200 <= status < 300 and payload.get("ok", True):
        return payload
    raise ServiceError.from_payload(payload)


def _frame_result(data: bytes) -> SweepResult:
    """A ``/result`` frame as a :class:`SweepResult`, validated exactly as
    a JSON payload is; a corrupt frame is a 502 ``bad-frame``."""
    try:
        meta, columns = decode_frame(data)
    except FrameError as exc:
        raise ServiceError(502, "bad-frame", str(exc))
    _check_response_schema(meta)
    return SweepResult.from_payload(dict(meta, **columns))


def _negotiated(payload: Optional[Dict]) -> Dict:
    """A request body advertising the schema version this client speaks."""
    body = dict(payload or {})
    body.setdefault("schema_version", PAYLOAD_SCHEMA_VERSION)
    return body


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict] = None,
    timeout: float = 60.0,
    api_key: Optional[str] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One synchronous JSON round trip; returns (status, decoded body).

    The connection is closed on *every* exit path — including
    ``connect``/``request``/``getresponse`` raising (e.g. a connection
    refused, a timeout waiting for the response) — so a script
    hammering this helper in a loop can never leak sockets;
    ``tests/test_client_reconnect.py`` pins this contract.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if api_key is not None:
            headers["Authorization"] = f"Bearer {api_key}"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data or b"{}")
    finally:
        connection.close()


class _StaleConnection(Exception):
    """A reused connection died before one response byte arrived.

    The signature of a keep-alive connection the server (or an idle
    timeout) closed between requests — the only failure the clients
    retry, by reconnecting once.  Timeouts and mid-response drops are
    never retried, so a slow in-flight evaluation is not re-dispatched.
    """


class SyncServiceClient:
    """Blocking client with one persistent keep-alive connection.

    The first request opens the connection; subsequent requests reuse
    it (the server's ``/stats`` counts the reuses under ``http``).  A
    reused connection that turns out stale — it drops before a single
    response byte — is re-opened and the request re-sent once; a
    timeout or a mid-response failure raises immediately instead, so a
    merely-slow query is never dispatched twice.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 120.0, api_key: Optional[str] = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: bearer key sent as ``Authorization: Bearer <key>`` (multi-
        #: tenant servers; None against an open server)
        self.api_key = api_key
        self._connection: Optional[http.client.HTTPConnection] = None
        #: connections this client opened (1 == everything was reused)
        self.connections_opened = 0
        #: requests completed over an already-open connection
        self.reuses = 0

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SyncServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict[str, Any]:
        """One round trip; raises :class:`ServiceError` on failure.

        Returns the JSON envelope — ``{"ok": true, "result":
        SweepResult}`` when the server answered a frame (a finished
        ``/result``: this client accepts them).
        """
        body = None if payload is None else json.dumps(_negotiated(payload))
        headers = {"Content-Type": "application/json",
                   "Accept": f"{FRAME_CONTENT_TYPE}, application/json",
                   "Connection": "keep-alive"}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in (0, 1):
            fresh = self._connection is None
            if fresh:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=body, headers=headers)
                response = self._connection.getresponse()
            except (ConnectionResetError, BrokenPipeError) as exc:
                # no response byte arrived: the stale keep-alive signature
                self.close()
                if fresh or attempt:
                    raise BackendUnavailableError(
                        f"sweep service at {self.host}:{self.port} "
                        f"unavailable ({exc})",
                        host=self.host, port=self.port,
                    ) from exc
                continue  # reconnect and re-send once
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                # timeouts and transport failures: never re-dispatch
                self.close()
                raise BackendUnavailableError(
                    f"sweep service at {self.host}:{self.port} "
                    f"unavailable ({exc})",
                    host=self.host, port=self.port,
                ) from exc
            try:
                data = response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                raise BackendUnavailableError(
                    f"sweep service at {self.host}:{self.port} dropped "
                    f"the connection mid-response ({exc})",
                    host=self.host, port=self.port,
                ) from exc
            if not fresh:
                self.reuses += 1
            else:
                self.connections_opened += 1
            if response.will_close:
                self.close()
            if response.getheader("Content-Type") == FRAME_CONTENT_TYPE:
                return {"ok": True, "result": _frame_result(data)}
            return _decoded(response.status, data)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoint wrappers ---------------------------------------------------
    def healthz(self) -> Dict:
        return self.request("GET", "/healthz")

    def stats(self) -> Dict:
        return self.request("GET", "/stats")["result"]

    def sweep_summary(self, grid: Optional[Dict] = None) -> Dict:
        return self.request("POST", "/sweep", {"grid": grid or {}})["result"]

    def fetch_result(self, grid: Optional[Dict] = None) -> SweepResult:
        """The served :class:`SweepResult`: one binary frame, or the JSON
        payload from a server that does not send frames."""
        result = self.request("POST", "/result", {"grid": grid or {}})["result"]
        return (result if isinstance(result, SweepResult)
                else SweepResult.from_payload(result))

    def records(self, grid: Optional[Dict] = None,
                limit: Optional[int] = None) -> list:
        body: Dict[str, Any] = {"grid": grid or {}}
        if limit is not None:
            body["limit"] = limit
        return self.request("POST", "/records", body)["result"]

    def pareto_front(self, grid: Optional[Dict] = None, **query) -> list:
        return self.request("POST", "/pareto", {"grid": grid or {}, **query})[
            "result"
        ]

    def cheapest_point_meeting_fps(
        self, grid: Optional[Dict], app: Optional[str], fps: float, **query
    ) -> Optional[Dict]:
        body = {"grid": grid or {}, "app": app, "fps": fps, **query}
        return self.request("POST", "/cheapest", body)["result"]

    def cheapest_point_meeting_train_rate(
        self, grid: Optional[Dict], app: Optional[str], steps_per_s: float,
        **query,
    ) -> Optional[Dict]:
        body = {"grid": grid or {}, "app": app,
                "train_steps_per_s": steps_per_s, **query}
        return self.request("POST", "/cheapest", body)["result"]

    def point(self, grid: Optional[Dict] = None, **selectors) -> Dict:
        return self.request("POST", "/point", {"grid": grid or {}, **selectors})[
            "result"
        ]

    def result_wait(self, grid: Optional[Dict] = None,
                    wait_s: float = 0.0) -> Dict:
        """Long-poll ``/result?wait=``; returns the full envelope.

        ``{"ok": true, "result": SweepResult}`` when the sweep finished
        inside the wait window, ``{"ok": true, "pending": true,
        "progress": {...}}`` (HTTP 202) when it is still evaluating.
        """
        return self.request(
            "POST", f"/result?wait={wait_s:g}", {"grid": grid or {}}
        )

    def stream_pareto(self, grid: Optional[Dict] = None,
                      scheme: Optional[str] = None,
                      n_pixels: Optional[int] = None,
                      app: Optional[str] = None,
                      **selectors):
        """Stream ``/sweep/stream`` events; a generator of event dicts.

        Yields the server's ndjson events in order — ``progress``
        snapshots, refining partial ``front`` lists, and a terminal
        ``complete`` — as they arrive over a *dedicated* connection
        (streams are ``Connection: close``, so the persistent keep-alive
        connection is left untouched for ordinary requests).  ``error``
        events raise the rebuilt :class:`ServiceError`; abandoning the
        generator early closes the connection, which cancels the
        server-side subscription without disturbing the sweep.
        """
        fields = dict(scheme=scheme, n_pixels=n_pixels, app=app, **selectors)
        payload: Dict[str, Any] = {"grid": grid or {}}
        payload.update((k, v) for k, v in fields.items() if v is not None)
        body = json.dumps(_negotiated(payload)).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        stream_headers = {"Content-Type": "application/json",
                          "Connection": "close"}
        if self.api_key is not None:
            stream_headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            try:
                connection.request(
                    "POST", "/sweep/stream", body=body,
                    headers=stream_headers,
                )
                response = connection.getresponse()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                raise BackendUnavailableError(
                    f"sweep service at {self.host}:{self.port} "
                    f"unavailable ({exc})",
                    host=self.host, port=self.port,
                ) from exc
            encoding = (response.getheader("Transfer-Encoding") or "").lower()
            if encoding != "chunked":
                # pre-stream failure: an ordinary structured JSON response
                _decoded(response.status, response.read())
                raise ServiceError(
                    502, "bad-response",
                    "expected a chunked ndjson stream from /sweep/stream",
                )
            try:
                # http.client undoes the chunking; iteration yields lines
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if event.get("event") == "error":
                        raise ServiceError.from_payload(
                            {"ok": False, "error": event["error"]}
                        )
                    yield event
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                raise BackendUnavailableError(
                    f"sweep service at {self.host}:{self.port} dropped "
                    f"the stream ({exc})",
                    host=self.host, port=self.port,
                ) from exc
        finally:
            connection.close()


class ServiceClient:
    """Asyncio client mirroring the service's request/response endpoints.

    ``/sweep/stream`` has one client-side reader,
    :meth:`SyncServiceClient.stream_pareto` (what the remote backend's
    ``Sweep.watch()`` runs).

    Keep-alive: one ``asyncio.open_connection`` stream is reused across
    requests until the server closes it (then the next request
    reconnects).  Concurrent ``request()`` calls on one instance are
    safe — they serialize on an internal lock, since a single stream
    can carry one in-flight request at a time.  Call :meth:`close` — or
    use ``async with`` — when done so the server's handler can finish
    promptly.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 api_key: Optional[str] = None):
        self.host = host
        self.port = port
        #: bearer key sent as ``Authorization: Bearer <key>`` (multi-
        #: tenant servers; None against an open server)
        self.api_key = api_key
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self.connections_opened = 0
        self.reuses = 0

    async def close(self) -> None:
        if self._writer is None:
            return
        writer, self._reader, self._writer = self._writer, None, None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _round_trip(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, bool]:
        """Write one request and read one response on the open stream."""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
        )
        if self.api_key is not None:
            head += f"Authorization: Bearer {self.api_key}\r\n"
        head += "\r\n"
        try:
            self._writer.write(head.encode("latin-1") + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
        except (ConnectionError, OSError) as exc:
            raise _StaleConnection() from exc
        if not status_line:
            raise _StaleConnection()
        # a response has started: any failure past here is fatal (the
        # request was dispatched — it must not be re-sent)
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServiceError(502, "bad-response", "malformed status line")
        status = int(parts[1])
        length = None
        server_keeps = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                server_keeps = value.strip().lower() != "close"
        if length is None:
            if 200 <= status < 300:
                # a success response this client cannot frame: reading
                # zero bytes would silently decode to {} and corrupt the
                # stream for the next request — fail structured instead
                await self.close()
                raise ServiceError(
                    502, "bad-response",
                    f"{status} response carries no Content-Length; "
                    "the body cannot be framed",
                    status_line=status_line.decode("latin-1").strip(),
                )
            length = 0
        data = await self._reader.readexactly(length) if length else b""
        return status, data, server_keeps

    async def request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict[str, Any]:
        """One JSON round trip; raises :class:`ServiceError` on failure."""
        body = (
            b"" if payload is None
            else json.dumps(_negotiated(payload)).encode("utf-8")
        )
        async with self._lock:  # one in-flight request per stream
            return await self._request_locked(method, path, body)

    async def _request_locked(
        self, method: str, path: str, body: bytes
    ) -> Dict[str, Any]:
        for attempt in (0, 1):
            fresh = self._writer is None
            if fresh:
                try:
                    self._reader, self._writer = await asyncio.open_connection(
                        self.host, self.port
                    )
                except (ConnectionError, OSError) as exc:
                    raise BackendUnavailableError(
                        f"sweep service at {self.host}:{self.port} "
                        f"unavailable ({exc})",
                        host=self.host, port=self.port,
                    ) from exc
                self.connections_opened += 1
            try:
                status, data, server_keeps = await self._round_trip(
                    method, path, body
                )
            except _StaleConnection as exc:
                # no response byte arrived: reconnect and re-send once
                await self.close()
                if fresh or attempt:
                    raise BackendUnavailableError(
                        f"sweep service at {self.host}:{self.port} "
                        f"unavailable ({exc.__cause__ or 'connection closed'})",
                        host=self.host, port=self.port,
                    ) from exc
                continue
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                # the response started and died: never re-dispatch
                await self.close()
                raise BackendUnavailableError(
                    f"sweep service at {self.host}:{self.port} dropped "
                    f"the connection mid-response ({exc})",
                    host=self.host, port=self.port,
                ) from exc
            if not fresh:
                self.reuses += 1
            if not server_keeps:
                await self.close()
            return _decoded(status, data)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoint wrappers ---------------------------------------------------
    async def healthz(self) -> Dict:
        return await self.request("GET", "/healthz")

    async def stats(self) -> Dict:
        return (await self.request("GET", "/stats"))["result"]

    async def sweep(self, grid: Optional[Dict] = None) -> Dict:
        return (await self.request("POST", "/sweep", {"grid": grid or {}}))["result"]

    async def pareto_front(self, grid: Optional[Dict] = None, **query) -> list:
        body = {"grid": grid or {}, **query}
        return (await self.request("POST", "/pareto", body))["result"]

    async def cheapest_point_meeting_fps(
        self, grid: Optional[Dict], app: Optional[str], fps: float, **query
    ) -> Optional[Dict]:
        body = {"grid": grid or {}, "app": app, "fps": fps, **query}
        return (await self.request("POST", "/cheapest", body))["result"]

    async def cheapest_point_meeting_train_rate(
        self, grid: Optional[Dict], app: Optional[str], steps_per_s: float,
        **query,
    ) -> Optional[Dict]:
        body = {"grid": grid or {}, "app": app,
                "train_steps_per_s": steps_per_s, **query}
        return (await self.request("POST", "/cheapest", body))["result"]

    async def point(self, grid: Optional[Dict] = None, **selectors) -> Dict:
        body = {"grid": grid or {}, **selectors}
        return (await self.request("POST", "/point", body))["result"]

    async def fetch_result(self, grid: Optional[Dict] = None) -> SweepResult:
        """Fetch and rebuild a full :class:`SweepResult` (served arrays)."""
        payload = (await self.request("POST", "/result", {"grid": grid or {}}))[
            "result"
        ]
        return SweepResult.from_payload(payload)

    async def result_wait(self, grid: Optional[Dict] = None,
                          wait_s: float = 0.0) -> Dict:
        """Long-poll ``/result?wait=``; returns the full envelope.

        ``{"ok": true, "result": {...}}`` when the sweep finished inside
        the wait window, ``{"ok": true, "pending": true, "progress":
        {...}}`` (HTTP 202) when it is still evaluating.
        """
        return await self.request(
            "POST", f"/result?wait={wait_s:g}", {"grid": grid or {}}
        )
