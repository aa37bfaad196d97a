"""Pluggable execution backends behind :class:`repro.api.Session`.

A backend answers exactly two evaluation primitives — a dense grid
sweep returning a :class:`~repro.core.dse.SweepResult`, and a memoized
scalar point returning an :class:`~repro.core.dse.EmulationResult` —
plus introspection (``stats``/``health``) and lifecycle (``close``).
Everything richer (Pareto fronts, FPS constraints, records) is computed
on the returned :class:`SweepResult` by the
:class:`~repro.api.session.Sweep` handle, which is what makes the
backends bit-identical by construction: the remote backend ships the
*same dense arrays* over HTTP (``POST /result``, as one binary
:mod:`repro.transport` frame of the raw float64 columns) that the local
backend computes in-process.

- :class:`LocalBackend` — evaluates in-process: the process-wide sweep
  memo, then :func:`~repro.store.tiered_sweep` (the one tier ladder
  every backend runs), plus the memoized scalar
  :func:`~repro.core.emulator.emulate` path.  Pass ``store=`` (a
  :class:`~repro.store.ResultStore` or directory path) to give the
  ladder its disk rungs: sweeps load memory-mapped from disk when
  previously persisted — by this process, an earlier run, or a service
  replica sharing the directory — and cold grids reuse every persisted
  block, evaluating only the missing slices.
- :class:`RemoteBackend` — wraps
  :class:`~repro.service.client.SyncServiceClient`, one keep-alive
  connection reused across every call; an unreachable service raises
  :class:`~repro.errors.BackendUnavailableError`.
- :class:`DistributedBackend` — embeds a
  :class:`~repro.service.cluster.ShardCoordinator` (plus optionally
  spawned local worker processes) behind a
  :class:`~repro.service.SweepService`, and evaluates sweeps by leasing
  the grid's contiguous vectorized blocks to every worker that joins —
  local subprocesses and remote ``repro worker`` hosts alike — behind
  the same four methods.

Streams share one schema too: every backend that streams emits the
events of :func:`~repro.service.progress.progress_events` — built on the
caller's thread from a local helper thread's or the embedded service's
progress, and as received over ``/sweep/stream`` for the remote one.
"""

from __future__ import annotations

import contextvars
import dataclasses
import sys
import threading
import time
from dataclasses import replace
from typing import Dict, Optional, Union

from repro.core.config import NGPCConfig
from repro.core.dse import (
    _ENGINES,
    _SWEEP_CACHE,
    _SWEEP_CACHE_MAX_POINTS,
    EmulationResult,
    SweepGrid,
    SweepResult,
    sweep_fingerprint,
    validate_selectors,
)
from repro.core.emulator import emulate, emulate_with_config
from repro.errors import BackendUnavailableError
from repro.service.client import SyncServiceClient
from repro.service.errors import ServiceError
from repro.service.progress import SweepProgress, progress_events
from repro.store import (
    STORE_ENGINE,
    ResultStore,
    new_tier_counters,
    tiered_sweep,
)


class _StreamClosed(Exception):
    """Raised into a local stream's evaluation when its consumer left."""


def _follow(progress: SweepProgress, ticks, scheme, n_pixels, app, selectors):
    """Stream a subscribed progress's events, built on this thread.

    Blocks on ``ticks`` (the progress's wake-up queue) while the sweep
    runs, coalescing bursts, and asks the one event builder for each
    state; a failed sweep's error is re-raised here.  Unsubscribes when
    done or abandoned.
    """
    events = progress_events(
        progress, scheme, n_pixels=n_pixels, app=app, **selectors
    )
    try:
        while True:
            if progress.state() == (None, None):
                ticks.get()
                while not ticks.empty():
                    ticks.get_nowait()
            batch = next(events)
            yield from batch
            if batch[-1]["event"] == "complete":
                return
    finally:
        progress.unsubscribe(ticks)


class Backend:
    """The backend contract (duck-typed; subclassing is optional)."""

    name: str = "abstract"

    def sweep(self, grid: SweepGrid) -> SweepResult:
        raise NotImplementedError

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        raise NotImplementedError

    def stats(self) -> Dict:
        raise NotImplementedError

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ):
        """Progress + refining-Pareto-front events for one sweep, or None.

        Backends that can stream return a plain (sync) generator of the
        event dicts :func:`~repro.service.progress.progress_events`
        builds (``progress`` / ``front`` / ``complete``; a failed sweep
        raises out of the generator); in-process backends keep the dense
        :class:`SweepResult` under ``"result_obj"`` in the ``complete``
        event so
        :meth:`~repro.api.session.Sweep.watch` materializes it without a
        second evaluation.  ``None`` means streaming is unsupported and
        the caller should fall back to one dense sweep.
        """
        return None

    def health(self) -> Dict:
        return {"ok": True, "backend": self.name}

    def close(self) -> None:
        pass


class LocalBackend(Backend):
    """In-process evaluation: sweep memo -> tier ladder, + the scalar memo.

    :meth:`sweep` and :meth:`stream_events` run one path — the
    process-wide sweep memo, then :func:`~repro.store.tiered_sweep`
    with the in-process block runner (store-tiered when ``store`` is
    given) — and differ only in whether a
    :class:`~repro.service.progress.SweepProgress` watches the blocks.
    """

    name = "local"

    def __init__(
        self,
        engine: str = "vectorized",
        ngpc: Optional[NGPCConfig] = None,
        use_cache: bool = True,
        store: Union[ResultStore, str, None] = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.engine = engine
        self.ngpc = ngpc
        self.use_cache = use_cache
        if isinstance(store, str):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.tier = new_tier_counters()

    def sweep(self, grid: SweepGrid) -> SweepResult:
        return self._sweep(grid.resolve(self.ngpc))

    def _sweep(self, grid: SweepGrid, on_plan=None, on_block=None) -> SweepResult:
        """The RAM rung — the process-wide sweep memo, keyed and sized as
        in :func:`~repro.core.dse.sweep_grid` — then the tier ladder."""
        engine = STORE_ENGINE if self.store is not None else self.engine
        cacheable = self.use_cache and grid.size <= _SWEEP_CACHE_MAX_POINTS
        if cacheable:
            key = (grid, engine, sweep_fingerprint(grid, self.ngpc))
            cached = _SWEEP_CACHE.get(key)
            if cached is not None:
                self.tier["ram_hits"] += 1
                return cached
        result = tiered_sweep(
            grid, self.ngpc, self.store, self.tier, on_plan, on_block,
            engine=self.engine,
        )
        if cacheable:
            _SWEEP_CACHE.put(key, result)
        return result

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        """One fully specified point via the memoized scalar path."""
        if self.ngpc is None:
            return emulate(app, scheme, scale_factor, n_pixels)
        config = replace(self.ngpc, scale_factor=scale_factor)
        return emulate_with_config(app, scheme, config, n_pixels)

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ):
        """:meth:`sweep`'s path on a helper thread, followed as it lands.

        Blocks run window-major (stream plan, or the store's block plan
        with persisted blocks streamed too), so the first exact partial
        front lands early; a memoized or persisted sweep streams just
        the terminal events.  Closing the generator stops the evaluation
        after the block in flight; evaluation errors re-raise here.
        """
        grid = grid.resolve(self.ngpc)
        validate_selectors(grid, scheme, n_pixels, app, **selectors)
        progress = SweepProgress(grid, self.ngpc)
        abandoned = threading.Event()

        def on_block(placement, block):
            if abandoned.is_set():  # the consumer left: stop evaluating
                raise _StreamClosed
            progress.record(placement, block)

        def evaluate():
            try:
                progress.finish(self._sweep(grid, progress.set_plan, on_block))
            except _StreamClosed:
                pass
            except Exception as exc:  # re-raised on the consumer's thread
                progress.fail(exc)

        ticks = progress.subscribe()
        # in a copy of this context: the helper evaluates under the
        # caller's calibration, the one the sweep's keys are taken under
        helper = threading.Thread(
            target=contextvars.copy_context().run, args=(evaluate,),
            name="repro-local-stream", daemon=True,
        )
        helper.start()
        try:
            yield from _follow(progress, ticks, scheme, n_pixels, app, selectors)
        finally:
            # joined, so an abandoned stream's evaluation never overlaps
            # the caller's next call
            abandoned.set()
            helper.join()

    def stats(self) -> Dict:
        stats = {
            "backend": self.name,
            "engine": self.engine,
            "cache": _SWEEP_CACHE.info(),
        }
        if self.store is not None:
            stats["cache"] = {**stats["cache"], **dict(self.tier)}
            stats["store"] = self.store.stats()
        return stats


class RemoteBackend(Backend):
    """Evaluation delegated to a running ``python -m repro serve``.

    The service evaluates (and caches, and coalesces) the sweep; the
    full dense result ships back over one keep-alive connection — the
    client asks ``/result`` (JSON by default) for a binary frame of the
    raw float64 arrays — and is rebuilt with
    :meth:`SweepResult.from_payload`, the validation a JSON payload
    gets, so every downstream query runs on numbers identical to the
    local backend's.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 120.0,
        client: Optional[SyncServiceClient] = None,
        api_key: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self._client = client or SyncServiceClient(
            host, port, timeout=timeout, api_key=api_key
        )

    def sweep(self, grid: SweepGrid) -> SweepResult:
        return self._client.fetch_result(grid.to_dict())

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        grid = SweepGrid(
            apps=(app,),
            schemes=(scheme,),
            scale_factors=(scale_factor,),
            pixel_counts=(n_pixels,),
        )
        record = self._client.point(grid.to_dict())
        # a schema-drifted server may serve a record missing fields this
        # build expects; fail structured (naming them) instead of with a
        # raw KeyError from deep inside the dict comprehension
        field_names = [f.name for f in dataclasses.fields(EmulationResult)]
        missing = [name for name in field_names if name not in record]
        if missing:
            raise ServiceError(
                502, "bad-response",
                f"served point record is missing field(s) "
                f"{', '.join(missing)} (schema-drifted server?)",
                missing=missing,
            )
        return EmulationResult(**{name: record[name] for name in field_names})

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ):
        """The server's ``/sweep/stream`` ndjson events, as received.

        The final front is computed server-side from the same dense
        arrays ``sweep`` would ship, so it is bit-identical to the
        local backends' — only ``result_obj`` is absent (the stream
        carries fronts, not the hypercube).
        """
        return self._client.stream_pareto(
            grid.to_dict(), scheme=scheme, n_pixels=n_pixels, app=app,
            **selectors,
        )

    def stats(self) -> Dict:
        stats = self._client.stats()
        stats["backend"] = self.name
        stats["client"] = {
            "connections_opened": self._client.connections_opened,
            "reuses": self._client.reuses,
        }
        return stats

    def health(self) -> Dict:
        health = self._client.healthz()
        health["backend"] = self.name
        return health

    def admin(self, op: str) -> Dict:
        """Operator actions against the live server (``repro admin``).

        ``"drain"`` retires the cluster's current worker generation
        (admin tenants only); ``"ops"`` fetches the ops section of
        ``/stats`` — tenants, admission counters, readiness — without
        needing a metrics stack.  Raises the server's structured
        :class:`~repro.service.errors.ServiceError` on refusal (401/
        403/404) and :class:`~repro.errors.BackendUnavailableError`
        when nothing is listening.
        """
        if op == "drain":
            return self._client.request("POST", "/cluster/drain")["result"]
        if op == "ops":
            return self._client.stats().get("ops", {})
        raise ValueError(f"unknown admin op {op!r} (want 'drain' or 'ops')")

    def close(self) -> None:
        self._client.close()


class DistributedBackend(Backend):
    """Multi-host evaluation: block shards leased to a worker cluster.

    Embeds a :class:`~repro.service.cluster.ShardCoordinator` behind a
    :class:`~repro.service.SweepService` (so identical concurrent
    sweeps single-flight-coalesce and completed results LRU-cache,
    exactly as on the remote backend) on a private event-loop thread,
    and serves the worker protocol on ``http://host:port`` — spawning
    ``workers`` local ``repro worker`` subprocesses and accepting any
    remote host that runs ``repro worker --host <host> --port <port>``.

    Evaluation is the service's tier ladder
    (:func:`~repro.store.tiered_sweep`) with the coordinator's
    ``sweep_fn`` at its evaluate rung, which runs the local block
    executor (:func:`~repro.core.dse.run_plan`) with the block runner
    swapped for the cluster's: the grid's contiguous vectorized block
    tasks are leased to workers (re-leased on worker death or lease
    timeout), each evaluated under the calibration its lease names, and
    the float64 block columns stream back for assembly into one
    :class:`SweepResult` — so results are bit-identical to a local
    evaluation.  ``run_coroutine_threadsafe`` runs each call in a copy
    of the caller's context, so under the caller's calibration.
    Persistent workers amortize interpreter/NumPy startup across
    sweeps.  Streams follow the service's
    :class:`~repro.service.progress.SweepProgress`, so they carry the
    same events as a local or remote stream.

    ``lease_timeout_s`` bounds how long a dead worker can strand a
    block; ``block_delay_s`` is the fault-injection knob forwarded to
    spawned workers (tests/chaos only).

    The embedded service logs to stderr at warning and writes nothing
    to the caller's stdout; ``repro serve`` keeps the operator log.
    """

    name = "distributed"

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ngpc: Optional[NGPCConfig] = None,
        lease_timeout_s: float = 10.0,
        sweep_timeout_s: Optional[float] = 600.0,
        max_cached_sweeps: int = 32,
        ready_timeout_s: float = 60.0,
        block_delay_s: float = 0.0,
    ):
        import asyncio

        from repro.service import SweepService, start_http_server
        from repro.service.cluster import (
            ShardCoordinator,
            spawn_local_workers,
            terminate_workers,
        )
        from repro.service.ops import OpsLayer
        from repro.service.ops.logging import JsonLogger

        self._terminate_workers = terminate_workers
        self.ngpc = ngpc
        self.coordinator = ShardCoordinator(
            ngpc=ngpc, lease_timeout_s=lease_timeout_s,
            sweep_timeout_s=sweep_timeout_s,
        )
        self.service = SweepService(
            engine="cluster", ngpc=ngpc, sweep_fn=self.coordinator.sweep_fn,
            max_cached_sweeps=max_cached_sweeps,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._workers = []
        self._closed = False
        started = threading.Event()
        startup_error = []

        def serve():
            async def main():
                try:
                    self._server = await start_http_server(
                        self.service, host, port, cluster=self.coordinator,
                        ops=OpsLayer(logger=JsonLogger(
                            stream=sys.stderr, level="warning"
                        )),
                    )
                except Exception as exc:
                    startup_error.append(exc)
                    started.set()
                    return
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                started.set()
                await self._stop.wait()
                await self._server.close()

            asyncio.run(main())

        self._thread = threading.Thread(
            target=serve, name="repro-distributed", daemon=True
        )
        self._thread.start()
        ready = started.wait(timeout=ready_timeout_s)
        if startup_error:
            raise BackendUnavailableError(
                f"could not start the shard coordinator on {host}:{port} "
                f"({startup_error[0]})", host=host, port=port,
            ) from startup_error[0]
        if not ready or self._server is None:
            self._closed = True
            raise BackendUnavailableError(
                f"shard coordinator on {host}:{port} did not come up "
                f"within {ready_timeout_s:g}s", host=host, port=port,
            )
        self.host = host
        #: the coordinator's bound port — remote workers join here
        self.port = self._server.port
        if workers:
            self._workers = spawn_local_workers(
                self.host, self.port, workers, block_delay_s=block_delay_s
            )
            self._wait_for_workers(workers, ready_timeout_s)

    def _alive_workers(self) -> int:
        # counted on the event loop: registrations mutate the worker
        # dict there, racing a direct off-thread iteration
        async def collect():
            return self.coordinator.n_alive_workers

        return self._run(collect)

    def _wait_for_workers(self, n_workers: int, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._alive_workers() >= n_workers:
                return
            if any(p.poll() is not None for p in self._workers):
                break  # a spawned worker already died: fail fast
            time.sleep(0.05)
        alive = self._alive_workers()
        self.close()
        raise BackendUnavailableError(
            f"only {alive} of {n_workers} local "
            f"workers registered within {timeout_s:g}s",
            host=self.host, port=self.port,
        )

    def _run(self, coro_factory):
        import asyncio

        # checked before the coroutine is created, so a closed backend
        # raises without leaving a never-awaited coroutine behind
        if self._closed or self._loop is None:
            raise BackendUnavailableError(
                "distributed backend is closed", host=self.host, port=self.port
            )
        return asyncio.run_coroutine_threadsafe(
            coro_factory(), self._loop
        ).result()

    def sweep(self, grid: SweepGrid) -> SweepResult:
        return self._run(lambda: self.service.sweep(grid))

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ):
        """The embedded service's sweep, streamed on the caller's thread.

        The service joins or starts the sweep on its loop (coalescing
        with every other request for it, or finished at once when
        cached); its :class:`~repro.service.progress.SweepProgress` —
        fed by workers' blocks on the coordinator loop — is then followed
        here exactly as a local stream follows its helper thread's.
        Abandoning the generator only unsubscribes: the sweep keeps
        running to completion and lands in the service LRU.
        """
        validate_selectors(
            grid.resolve(self.ngpc), scheme, n_pixels, app, **selectors
        )
        progress = self._run(lambda: self.service.sweep_progress(grid))
        yield from _follow(
            progress, progress.subscribe(), scheme, n_pixels, app, selectors
        )

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        """One fully specified point, evaluated as a singleton sweep.

        Distributed sessions keep *all* evaluation on the workers (the
        client process never needs the calibration warm), so the scalar
        path is a one-point grid through the same lease machinery; the
        service's LRU makes repeats cheap.
        """
        grid = SweepGrid(
            apps=(app,),
            schemes=(scheme,),
            scale_factors=(scale_factor,),
            pixel_counts=(n_pixels,),
        )
        return self.sweep(grid).point(app, scheme, scale_factor, n_pixels)

    def stats(self) -> Dict:
        # collected on the event loop: the coordinator's worker/lease
        # dicts mutate there, and iterating them from this thread could
        # race a registration or reaper eviction mid-snapshot
        async def collect():
            return self.service.stats()

        stats = self._run(collect)
        stats["backend"] = self.name
        stats["endpoint"] = {"host": self.host, "port": self.port}
        return stats

    def health(self) -> Dict:
        if self._closed or self._loop is None:
            return {"ok": False, "backend": self.name, "workers_alive": 0}
        alive = self._alive_workers()
        return {
            "ok": alive > 0,
            "backend": self.name,
            "workers_alive": alive,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._workers:
            self._terminate_workers(self._workers)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
