"""Shard-cluster worker: lease blocks, evaluate, stream arrays back.

A worker is one blocking process (``python -m repro worker``) that
connects to a coordinator-serving instance (``repro serve --engine
cluster`` or an embedded :class:`~repro.api.DistributedBackend`):

1. **register** — receives its worker id plus the coordinator's
   calibration constants, installed once via
   :func:`repro.core.dse.install_worker_state`;
2. **lease** — long-polls ``/cluster/lease``; an empty poll loops, a
   task is evaluated with the job's base config through the vectorized
   block path (:func:`repro.core.dse.evaluate_block`) after
   reinstalling calibration if the job's generation changed;
3. **complete** — streams the dense float64 block arrays back as one
   binary frame body (:mod:`repro.transport` — zero-copy columns, no
   pickle anywhere on the wire) and immediately polls for the next
   lease.

The worker holds one keep-alive connection (``TCP_NODELAY``: leases and
completions are latency-bound small messages).  A dropped connection or
an unregistered-worker response re-registers and retries; after
``max_failures`` consecutive transport failures the worker exits — the
coordinator's lease timeout re-queues anything it still held, so a
worker death never loses work.

``block_delay_s`` is a fault-injection knob (sleep per block) used by
the re-lease tests and chaos drills to hold blocks in the leased state
long enough to kill the worker mid-sweep; it is off in production.
"""

from __future__ import annotations

import http.client
import os
import socket
import time
from typing import Dict, Optional

from repro.core.dse import evaluate_block, install_worker_state
from repro.errors import BackendUnavailableError
from repro.service.errors import ServiceError
from repro.transport import FRAME_CONTENT_TYPE, decode_message, encode_message


class ClusterClient:
    """Blocking keep-alive client for the framed ``/cluster/*`` protocol.

    Deliberately *not* the JSON :class:`~repro.service.client.
    SyncServiceClient` transport: that client must never re-dispatch a
    request (a retried sweep could evaluate twice), so it retries only
    the pre-response stale-keep-alive signature.  The cluster protocol
    is at-least-once by design — register/lease/complete are safe to
    repeat (a lost lease response merely expires and re-queues; a
    repeated completion is ignored as stale) — so this client retries
    any transport failure once, which is what lets workers ride out a
    coordinator hiccup instead of dying.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def call(self, path: str, payload: Dict, method: str = "POST") -> Dict:
        """One framed round trip; retries once on a stale keep-alive."""
        body = encode_message(payload)
        headers = {"Content-Type": FRAME_CONTENT_TYPE,
                   "Connection": "keep-alive"}
        for attempt in (0, 1):
            fresh = self._connection is None
            if fresh:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                if fresh:
                    self._connection.connect()
                    self._connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                self._connection.request(method, path, body=body, headers=headers)
                response = self._connection.getresponse()
                data = response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                if fresh or attempt:
                    raise BackendUnavailableError(
                        f"coordinator at {self.host}:{self.port} "
                        f"unavailable ({exc})",
                        host=self.host, port=self.port,
                    ) from exc
                continue  # stale keep-alive: reconnect and re-send once
            if response.will_close:
                self.close()
            decoded = decode_message(data)
            if isinstance(decoded, dict) and decoded.get("ok") is False:
                raise ServiceError.from_payload(decoded)
            return decoded
        raise AssertionError("unreachable")  # pragma: no cover


def run_worker(
    host: str = "127.0.0.1",
    port: int = 8787,
    block_delay_s: float = 0.0,
    max_idle_s: Optional[float] = None,
    max_failures: int = 5,
    log=print,
) -> int:
    """Blocking worker loop; returns an exit code for the CLI.

    Exits 0 on a coordinator-requested stop or after ``max_idle_s``
    without work, 1 after ``max_failures`` consecutive transport
    failures (coordinator gone).
    """
    client = ClusterClient(host, port)
    worker_id = None
    installed = None  # the calibration currently live in this process
    idle_since = time.monotonic()
    failures = 0
    blocks = 0
    try:
        while True:
            try:
                if worker_id is None:
                    registration = client.call("/cluster/register", {
                        "host": socket.gethostname(), "pid": os.getpid(),
                    })
                    worker_id = registration["worker_id"]
                    installed = registration["calibration"]
                    install_worker_state(installed)
                    log(f"repro worker: registered as {worker_id[:8]} "
                        f"with http://{host}:{port}", flush=True)
                lease = client.call("/cluster/lease", {"worker_id": worker_id})
                failures = 0
            except BackendUnavailableError as exc:
                failures += 1
                if failures >= max_failures:
                    log(f"repro worker: giving up after {failures} "
                        f"failures ({exc})", flush=True)
                    return 1
                time.sleep(min(2.0 ** failures * 0.1, 5.0))
                continue
            except ServiceError as exc:
                if exc.code == "unknown-worker":  # coordinator restarted
                    worker_id = None
                    continue
                raise
            if lease.get("stop"):
                reason = lease.get("reason", "coordinator stopped")
                log(f"repro worker: stopping ({reason}); exiting", flush=True)
                return 0
            if "task" not in lease:  # empty poll
                if (max_idle_s is not None
                        and time.monotonic() - idle_since > max_idle_s):
                    log(f"repro worker: idle for {max_idle_s:g}s; exiting",
                        flush=True)
                    return 0
                continue
            completion = {
                "worker_id": worker_id,
                "job_id": lease["job_id"],
                "task_id": lease["task_id"],
            }
            try:
                if lease["calibration"] != installed:  # new generation
                    install_worker_state(lease["calibration"])
                    installed = lease["calibration"]
                if block_delay_s:
                    time.sleep(block_delay_s)
                completion["arrays"] = evaluate_block(
                    lease["task"], lease["ngpc"]
                )
            except Exception as exc:
                # report the failure instead of dying: an unreported crash
                # would re-lease the same poison block around the cluster
                # while the client waits out its full sweep timeout
                completion["error"] = f"{type(exc).__name__}: {exc}"
                log(f"repro worker: block evaluation failed "
                    f"({completion['error']})", flush=True)
            try:
                client.call("/cluster/complete", completion)
            except ServiceError as exc:
                # bad-block (shape drift) or stale job: drop and move on —
                # the coordinator already re-queued or finished the block
                log(f"repro worker: completion rejected ({exc.code}): {exc}",
                    flush=True)
            except BackendUnavailableError as exc:
                # coordinator hiccup mid-completion: the lease will expire
                # and re-queue this block — back off like any transport
                # failure instead of dying with the result in hand
                failures += 1
                if failures >= max_failures:
                    log(f"repro worker: giving up after {failures} "
                        f"failures ({exc})", flush=True)
                    return 1
                time.sleep(min(2.0 ** failures * 0.1, 5.0))
                continue
            blocks += 1
            idle_since = time.monotonic()
    except KeyboardInterrupt:
        log(f"repro worker: interrupted after {blocks} blocks", flush=True)
        return 0
    finally:
        client.close()


def spawn_local_workers(
    host: str,
    port: int,
    n_workers: int,
    block_delay_s: float = 0.0,
    max_idle_s: Optional[float] = None,
):
    """Start ``n_workers`` local ``python -m repro worker`` subprocesses.

    The convenience path of ``repro serve --engine cluster --workers N``
    and the embedded :class:`~repro.api.DistributedBackend`; remote
    hosts join the same coordinator by running ``repro worker`` against
    its host/port themselves.  Returns the :class:`subprocess.Popen`
    handles; pass them to :func:`terminate_workers` on shutdown.
    """
    import subprocess
    import sys

    import repro

    command = [sys.executable, "-m", "repro", "worker",
               "--host", host, "--port", str(port)]
    if block_delay_s:
        command += ["--block-delay", str(block_delay_s)]
    if max_idle_s is not None:
        command += ["--max-idle", str(max_idle_s)]
    # make this very repro importable in the child regardless of the
    # caller's cwd (a relative PYTHONPATH=src breaks outside the repo root)
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    return [
        subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
        for _ in range(n_workers)
    ]


def terminate_workers(processes, timeout: float = 5.0) -> None:
    """Terminate spawned workers, escalating to kill after ``timeout``."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    deadline = time.monotonic() + timeout
    for process in processes:
        remaining = max(0.0, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except Exception:
            process.kill()
            process.wait()
