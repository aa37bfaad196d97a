"""Structured JSON logging for the serving stack.

One operator-facing line per event, each a single JSON object, so every
line the service emits is machine-parseable — `jq`-able in a terminal,
ingestible by any log pipeline — while staying readable enough that the
CI smoke's ``listening on http://host:port`` regex still matches (the
human-oriented text rides along in the ``message`` field).

:class:`JsonLogger` is deliberately tiny and stdlib-only: a level
filter, a thread lock around the write (handlers run on the event loop
*and* logs may be emitted from executor threads), ISO-8601 UTC
timestamps, and a ``default=str`` escape hatch so an exotic field can
never take the logger down.  :meth:`JsonLogger.request` is the access
log: tenant, method, path, status, wall milliseconds plus whatever
structured fields the caller attaches (the HTTP layer adds the error
``code`` on rejections and ``streamed`` on ndjson streams).
"""

from __future__ import annotations

import datetime
import json
import sys
import threading
from typing import Any, Dict, Optional, TextIO

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class JsonLogger:
    """Thread-safe one-JSON-object-per-line logger.

    ``stream`` defaults to stdout (the service's operator channel; the
    CI smoke reads it line by line).  ``level`` filters: events below it
    are dropped before serialization.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        level: str = "info",
        service: str = "repro",
    ):
        if level not in _LEVELS:
            raise ValueError(f"unknown log level {level!r}; choose from {sorted(_LEVELS)}")
        self._stream = stream if stream is not None else sys.stdout
        self._threshold = _LEVELS[level]
        self.service = service
        self._lock = threading.Lock()
        #: lines actually written (a cheap health signal for tests/metrics)
        self.lines = 0

    def log(self, level: str, event: str, message: Optional[str] = None,
            **fields: Any) -> None:
        if _LEVELS.get(level, 20) < self._threshold:
            return
        record: Dict[str, Any] = {
            "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="milliseconds"
            ),
            "level": level,
            "service": self.service,
            "event": event,
        }
        if message is not None:
            record["message"] = message
        record.update(fields)
        line = json.dumps(record, default=str)
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (ValueError, OSError):  # closed stream: logging never raises
                return
            self.lines += 1

    def debug(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        self.log("debug", event, message, **fields)

    def info(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        self.log("info", event, message, **fields)

    def warning(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        self.log("warning", event, message, **fields)

    def error(self, event: str, message: Optional[str] = None, **fields: Any) -> None:
        self.log("error", event, message, **fields)

    def request(
        self,
        tenant: str,
        method: str,
        path: str,
        status: int,
        wall_ms: float,
        level: str = "info",
        **fields: Any,
    ) -> None:
        """One access-log line per served request (event ``http.request``)."""
        self.log(
            level, "http.request",
            tenant=tenant, method=method, path=path,
            status=int(status), wall_ms=round(float(wall_ms), 3),
            **fields,
        )
