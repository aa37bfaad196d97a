"""Clients for the sweep service's HTTP API (JSON, plus result frames).

Every client-side HTTP connection of the package runs through one
stdlib routine, :class:`KeepAliveClient`: one persistent
:mod:`http.client` connection with one open/send/read/reconnect loop,
one header builder and one spelling of
:class:`~repro.errors.BackendUnavailableError`.  Its callers:

- :class:`SyncServiceClient` — the service client; powers
  :class:`repro.api.RemoteBackend` and therefore the
  ``python -m repro query`` subcommand and the CI smoke; it asks for a
  finished ``/result`` as one binary :mod:`repro.transport` frame and
  reads ``/sweep/stream`` as ndjson events;
- :class:`repro.service.cluster.worker.ClusterClient` — the worker's
  framed ``/cluster/*`` client;
- :func:`request_json` — one-shot helper (opens and closes a connection
  per call) for fire-and-forget scripts.

Non-2xx responses raise :class:`~repro.service.errors.ServiceError`
rebuilt from the structured body, so an ambiguous-axis 400 surfaces
client-side with its ``.details["axis"]`` intact; an error response
without that envelope keeps its HTTP status, and a body that is not a
JSON object (a proxy's HTML error page) is a 502 ``bad-response``.
Transport failures (nothing listening, connection dropped
mid-response) raise :class:`~repro.errors.BackendUnavailableError`.
Both derive from :class:`~repro.errors.ReproError`, the facade's one
exception base.

Clients negotiate the payload schema: every POST body carries the
``schema_version`` this build speaks, and every response's stamped
version is validated before the payload is interpreted.

Against a server running with a tenants file (``repro serve --tenants``)
the service client authenticates by bearer key: pass ``api_key`` and
each request carries ``Authorization: Bearer <key>``.  Rejections
surface as the server's structured errors — 401 ``unauthenticated``,
403 ``forbidden``, 429 ``rate-limited``/``overloaded`` with a
``retry_after_s`` detail.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, Optional, Tuple

from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    SweepResult,
    check_schema_version,
)
from repro.errors import BackendUnavailableError
from repro.service.errors import ServiceError
from repro.transport import FRAME_CONTENT_TYPE, decode_frame


def _check_response_schema(payload: Dict[str, Any]) -> None:
    """Reject a response stamped with a version this build cannot read."""
    try:
        check_schema_version(payload.get("schema_version"))
    except ValueError as exc:
        raise ServiceError(502, "unsupported-schema", str(exc))


def _json_object(data: bytes) -> Dict[str, Any]:
    """One JSON object: a response body or one ndjson stream line.

    Anything else — a proxy's HTML error page, a truncated line — is a
    structured 502 ``bad-response``, never a raw decode error.
    """
    try:
        payload = json.loads(data or b"{}")
    except ValueError:  # also UnicodeDecodeError
        payload = None
    if not isinstance(payload, dict):
        raise ServiceError(
            502, "bad-response",
            f"expected a JSON object, got {bytes(data[:80])!r}",
        )
    return payload


def _decoded(status: int, data: bytes) -> Dict[str, Any]:
    """A JSON response's envelope; a non-2xx one raises its error, which
    keeps the HTTP status when the body names none."""
    payload = _json_object(data)
    _check_response_schema(payload)
    if 200 <= status < 300 and payload.get("ok", True):
        return payload
    error = dict(payload.get("error") or {})
    error.setdefault("status", status)
    raise ServiceError.from_payload({"error": error})


def _frame_result(data: bytes) -> SweepResult:
    """A ``/result`` frame as a :class:`SweepResult`, validated exactly as
    a JSON payload is; a corrupt frame, or a column whose shape the grid
    does not admit, is a 502 ``bad-frame``."""
    try:
        meta, columns = decode_frame(data)
        payload = dict(meta, **columns)
        _check_response_schema(payload)
        return SweepResult.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:  # FrameError included
        raise ServiceError(502, "bad-frame", str(exc))


def _negotiated(payload: Optional[Dict]) -> Dict:
    """A request body advertising the schema version this client speaks."""
    body = dict(payload or {})
    body.setdefault("schema_version", PAYLOAD_SCHEMA_VERSION)
    return body


class KeepAliveClient:
    """One persistent :mod:`http.client` connection and its reconnect loop.

    The first request opens the connection (``TCP_NODELAY``: requests
    are latency-bound small messages); later requests reuse it until the
    server closes it.  A failure on a *fresh* connection is fatal —
    there is no stale connection to blame.  On a *reused* connection the
    class fixes the policy through :attr:`resend_after_any_failure`:

    - False (the service client): re-send once only when the connection
      died before one response byte, the signature of a keep-alive
      connection the server or an idle timeout closed between requests.
      Timeouts and mid-response drops are fatal, so a dispatched request
      — a slow sweep — is never dispatched twice;
    - True (the cluster worker): re-send once after any failure, for a
      protocol that is at-least-once by design.

    A re-sent request that fails again is fatal.
    """

    #: re-send once after any failure on a reused connection, not only
    #: after the pre-response stale keep-alive signature
    resend_after_any_failure = False
    #: the server, as transport errors name it
    peer = "sweep service"

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

    def __enter__(self) -> "KeepAliveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _unavailable(self, exc: BaseException,
                     what: str = "unavailable") -> BackendUnavailableError:
        return BackendUnavailableError(
            f"{self.peer} at {self.host}:{self.port} {what} ({exc})",
            host=self.host, port=self.port,
        )

    def _round_trip(
        self, method: str, path: str, body, content_type: str,
        accept: Optional[str] = None, stream: bool = False,
    ) -> Tuple[http.client.HTTPResponse, Optional[bytes]]:
        """One request; returns the response and its body bytes.

        With ``stream`` the request asks ``Connection: close`` and the
        body is left unread on the returned response, which then owns
        the socket: the caller iterates it and closes it.
        """
        headers = {"Content-Type": content_type,
                   "Connection": "close" if stream else "keep-alive"}
        if accept is not None:
            headers["Accept"] = accept
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for _ in (0, 1):  # a failed attempt closes: the second is fresh
            fresh = self._connection is None
            if fresh:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            response = None
            try:
                if fresh:
                    self._connection.connect()
                    self._connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                self._connection.request(method, path, body=body,
                                         headers=headers)
                response = self._connection.getresponse()
                data = None if stream else response.read()
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                stale = response is None and isinstance(
                    exc, (ConnectionResetError, BrokenPipeError)
                )
                if fresh or not (stale or self.resend_after_any_failure):
                    raise self._unavailable(
                        exc, "unavailable" if response is None
                        else "dropped the connection mid-response",
                    ) from exc
                continue  # reconnect and re-send once
            if fresh:
                self.connections_opened += 1
            else:
                self.reuses += 1
            if response.will_close and not stream:
                self.close()
            return response, data
        raise AssertionError("unreachable")  # pragma: no cover


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
    with KeepAliveClient(host, port, timeout, api_key) as client:
        body = None if payload is None else json.dumps(payload)
        response, data = client._round_trip(method, path, body,
                                            "application/json")
        return response.status, _json_object(data)


class SyncServiceClient(KeepAliveClient):
    """Blocking service client on one persistent keep-alive connection.

    The first request opens the connection; subsequent requests reuse
    it (the server's ``/stats`` counts the reuses under ``http``).  A
    reused connection that turns out stale — it drops before a single
    response byte — is re-opened and the request re-sent once; a
    timeout or a mid-response failure raises immediately instead, so a
    merely-slow query is never dispatched twice.
    """

    def request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict[str, Any]:
        """One round trip; raises :class:`ServiceError` on failure.

        Returns the JSON envelope — ``{"ok": true, "result":
        SweepResult}`` when the server answered a frame (a finished
        ``/result``: this client accepts them).
        """
        body = None if payload is None else json.dumps(_negotiated(payload))
        response, data = self._round_trip(
            method, path, body, "application/json",
            accept=f"{FRAME_CONTENT_TYPE}, application/json",
        )
        if response.getheader("Content-Type") == FRAME_CONTENT_TYPE:
            return {"ok": True, "result": _frame_result(data)}
        return _decoded(response.status, data)

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
        body = json.dumps(_negotiated(payload))
        with KeepAliveClient(self.host, self.port, self.timeout,
                             self.api_key) as stream:
            response, _ = stream._round_trip(
                "POST", "/sweep/stream", body, "application/json", stream=True
            )
            # the response owns the socket: close it on every exit,
            # including a consumer abandoning the generator early
            with response:
                try:
                    encoding = (response.getheader("Transfer-Encoding")
                                or "").lower()
                    if encoding != "chunked":
                        # pre-stream failure: an ordinary structured JSON
                        # response
                        _decoded(response.status, response.read())
                        raise ServiceError(
                            502, "bad-response",
                            "expected a chunked ndjson stream from "
                            "/sweep/stream",
                        )
                    # http.client undoes the chunking; iteration yields lines
                    for raw in response:
                        line = raw.strip()
                        if not line:
                            continue
                        event = _json_object(line)
                        if event.get("event") == "error":
                            raise ServiceError.from_payload(
                                {"ok": False, "error": event["error"]}
                            )
                        yield event
                except (http.client.HTTPException, OSError) as exc:
                    raise stream._unavailable(
                        exc, "dropped the stream") from exc
