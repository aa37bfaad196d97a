"""Asyncio query service over the batched DSE engine.

:class:`SweepService` is the in-process async API the HTTP layer
(:mod:`repro.service.http`) and any embedding application share.  These
properties make it safe to put in front of many concurrent users:

- **LRU result cache.**  Completed :class:`~repro.core.dse.SweepResult`s
  live in a :class:`~repro.core.cache.ModelCache` (``lru=True``) keyed
  on :func:`~repro.core.dse.sweep_fingerprint` — the canonical
  grid + config + calibration key — so any request naming the same
  design space (in any axis order) is a cache hit.  The cache is
  instance-owned (``register=False``): it lives and dies with its
  service rather than being pinned by the global cache registry.
- **Single-flight coalescing.**  Concurrent requests for the same
  fingerprint — dense or streamed — attach to one in-flight
  :class:`~repro.service.progress.SweepProgress`, the sweep's only
  record of its result or error; exactly one evaluation runs no matter
  how many clients ask (``tests/test_service.py`` asserts 32 concurrent
  requests -> 1 evaluation on a 10k-point grid), and a cancelled
  request only stops waiting.
- **Off-loop evaluation down the one tier ladder.**  A RAM miss runs
  :func:`~repro.store.tiered_sweep` — the ladder every backend shares —
  in an executor thread: the event loop keeps serving cached queries
  (< 50 ms, gated by ``benchmarks/bench_service.py``) while a 50k-point
  sweep is cold; only a sweep a stream or long-poll started feeds its
  blocks to a :class:`~repro.service.progress.SweepProgress` (see
  :class:`SweepService`).  More cores and hosts are the shard
  cluster's job (``sweep_fn``).
- **Persistent disk tier (optional).**  Pass ``store=`` (a
  :class:`~repro.store.ResultStore` or a directory path) to slot the
  content-addressed persistent store *under* the RAM LRU: the ladder
  first probes the store (memory-mapped load, milliseconds) before
  evaluating, evaluations reuse persisted blocks and only compute the
  missing hypercube slices, and completed sweeps are persisted — so a
  restarted replica serves its predecessor's sweeps warm, and N
  replicas sharing one directory evaluate each sweep once.
  ``stats()["cache"]`` reports the tiers truthfully (``ram_hits`` /
  ``disk_hits`` / ``evaluations``), so ``/stats`` can never report a
  "miss" that was actually served from disk.

Scalar queries against a swept axis without an explicit selector raise
:class:`~repro.core.dse.AmbiguousAxisError`, which the error layer maps
to a structured 400 naming the axis.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
from typing import AsyncIterator, Dict, Hashable, List, Optional, Set, Union

from repro.core.cache import ModelCache
from repro.core.dse import (
    _ENGINES,
    PAYLOAD_SCHEMA_VERSION,
    DesignPoint,
    EmulationResult,
    SweepGrid,
    SweepResult,
    point_index,
    sweep_fingerprint,
    validate_selectors,
)
from repro.core.config import NGPCConfig
from repro.service.errors import as_service_error
from repro.service.progress import SweepProgress, progress_events
from repro.store import ResultStore, new_tier_counters, tiered_sweep

GridLike = Union[SweepGrid, Dict, None]

#: finished SweepProgress entries retained for late /stats // long-poll reads
_PROGRESS_RETAIN = 8


def _as_grid(grid: GridLike) -> SweepGrid:
    if grid is None:
        return SweepGrid()
    if isinstance(grid, SweepGrid):
        return grid
    return SweepGrid.from_dict(grid)


class SweepService:
    """Async, coalescing, LRU-cached front end of the DSE engine.

    All public query methods are coroutines; each validates its
    selectors, then ensures the named grid is evaluated
    (``await self.sweep(grid)``) and answers from the dense result.  An
    in-flight sweep is recorded once, as its
    :class:`~repro.service.progress.SweepProgress`: every coalesced
    request awaits :meth:`SweepProgress.wait`, which the one evaluation
    task finishes or fails, and a cancelled request only unsubscribes.
    Counters:

    - ``evaluations``: sweeps that reached the evaluate rung of the
      ladder (the number that must stay 1 under request coalescing; a
      disk-tier hit is *not* an evaluation),
    - ``coalesced``: requests that attached to an in-flight evaluation,
    - cache ``hits``/``misses``: requests served from / admitted to the
      completed-result LRU (coalesced requests count as neither),
    - tier counters (``ram_hits``/``disk_hits``/``evaluations`` plus the
      ``blocks_*`` triple) in ``stats()["cache"]`` and
      ``stats()["store"]`` whenever a ``store`` is attached.

    When a sweep uses the stream plan: a sweep *started* by
    :meth:`sweep_progress` (a stream, ``Sweep.watch()``, a
    ``/result?wait=`` long-poll) is watched — the ladder runs the
    window-major stream plan and every landed block is scattered into
    its :class:`~repro.service.progress.SweepProgress`.  A sweep started
    by :meth:`sweep` or any query on it (``/sweep``, ``/result``,
    ``/records``, ``/pareto``, ``/cheapest``, ``/point``, a distributed
    backend's ``sweep``) is not: it runs one block per (app, scheme)
    pair and reports only its plan size.  A stream that joins an
    unwatched sweep still gets progress snapshots and the exact terminal
    events, just no partial fronts.

    ``sweep_fn`` replaces the ladder's in-process block plan — the
    shard cluster's :meth:`~repro.service.cluster.ShardCoordinator.sweep_fn`,
    or a counting or artificially slow test wrapper.  It is called as
    ``sweep_fn(grid, engine=, ngpc=, on_block=)`` and must report every
    landed block to ``on_block(placement, block)`` (that is what
    streams see, and what the ladder counts as its plan size).  With a
    ``store`` it keeps the disk tiers: a persisted sweep never reaches
    it, and its result is persisted whole; only the built-in plan
    reuses persisted blocks.
    """

    def __init__(
        self,
        engine: str = "vectorized",
        ngpc: Optional[NGPCConfig] = None,
        max_cached_sweeps: int = 32,
        sweep_fn=None,
        store: Union[ResultStore, str, None] = None,
    ):
        # an injected sweep_fn may carry its own engine label (the shard
        # cluster registers as "cluster"); the built-in path must name a
        # real local engine
        if sweep_fn is None and engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.engine = engine
        self.ngpc = ngpc
        self._sweep_fn = sweep_fn
        if isinstance(store, str):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.tier = new_tier_counters()
        # register=False: the cache's lifetime is this service's, not the
        # process's (the global registry would pin every instance forever)
        self._cache = ModelCache(
            "sweep_service", maxsize=max_cached_sweeps, lru=True, register=False
        )
        #: the progress of each in-flight sweep: its only record of the
        #: result or error every coalesced request waits on
        self._inflight: Dict[Hashable, SweepProgress] = {}
        # streaming progress per grid fingerprint: one live entry per
        # in-flight sweep plus a short tail of finished ones (late
        # long-poll 202 bodies and /stats still see them); the lock
        # guards the dict, each entry synchronizes itself
        self._progress: Dict[Hashable, SweepProgress] = {}
        self._progress_lock = threading.Lock()
        self._tasks: Set[asyncio.Task] = set()
        self.coalesced = 0
        # filled in by the HTTP layer: keep-alive connection accounting
        # ("reused" counts requests served on an already-open connection)
        self.http = {"connections": 0, "requests": 0, "reused": 0}
        #: extra stats sections merged into :meth:`stats` by name — the
        #: HTTP layer mounts the shard coordinator's counters here
        self.stats_extra: Dict[str, object] = {}
        #: optional admission controller (mounted by the ops layer): caps
        #: how many *cold* evaluations run concurrently.  Cached reads and
        #: coalesced joins never consult it — only a sweep about to burn
        #: an executor slot does, which is what keeps cached-query latency
        #: flat while one tenant floods the grid.
        self.admission = None

    @property
    def evaluations(self) -> int:
        """Sweeps evaluated (not served by a cache tier) so far."""
        return self.tier["evaluations"]

    # -- sweeps --------------------------------------------------------------
    async def sweep(self, grid: GridLike = None) -> SweepResult:
        """Evaluate ``grid`` (cached, coalesced); return the dense result.

        The grid is resolved against the service's base config and
        normalized (axis values sorted and de-duplicated) before
        fingerprinting, so every spelling of the same design space maps
        to one cache entry and one in-flight evaluation.
        """
        joined = await self._join_or_start(grid, watched=False)
        if isinstance(joined, SweepProgress):
            # cancelling this wait only unsubscribes: the evaluation runs
            # on for every other request and still lands in the cache
            return await joined.wait()
        return joined

    async def sweep_progress(self, grid: GridLike = None) -> SweepProgress:
        """The :class:`SweepProgress` of ``grid``'s sweep, joining or
        starting it as :meth:`sweep` does; a cached result's progress is
        simply already finished.  What every stream and long-poll
        follows; a sweep started here is watched."""
        joined = await self._join_or_start(grid, watched=True)
        if isinstance(joined, SweepProgress):
            return joined
        progress = SweepProgress(
            joined.grid, self.ngpc, loop=asyncio.get_running_loop()
        )
        progress.finish(joined)
        return progress

    async def _join_or_start(self, grid: GridLike, watched: bool):
        """The cached result, or the in-flight sweep's progress to attach to.

        Coalesces onto an in-flight evaluation of ``grid`` (``coalesced``),
        serves a completed one from the LRU (``ram_hits``), or takes a
        cold slot and starts one, ``watched`` or not.  A slot wait that
        yielded to the loop re-checks both, so a queued duplicate never
        burns a second slot.
        """
        grid = _as_grid(grid).resolve(self.ngpc).normalized()
        key = sweep_fingerprint(grid, self.ngpc)
        progress = self._inflight.get(key)
        if progress is None:
            cached = self._cache.get(key)
            if cached is not None:
                self.tier["ram_hits"] += 1
                return cached
            # a cold slot from the mounted admission controller (a
            # structured 429 when its cap and queue are full); the
            # uncontended acquire never yields to the loop, so the checks
            # above hold unless ``release.queued`` says it waited
            release = None
            if self.admission is not None:
                release = await self.admission.acquire_cold()
            if release is None or not getattr(release, "queued", False):
                return self._start_evaluation(key, grid, release, watched)
            progress = self._inflight.get(key)
            if progress is None:
                cached = self._cache.get(key)
                if cached is None:
                    return self._start_evaluation(key, grid, release, watched)
                release()
                self.tier["ram_hits"] += 1
                return cached
            release()
        self.coalesced += 1
        return progress

    def _start_evaluation(
        self, key: Hashable, grid: SweepGrid, release, watched: bool
    ) -> SweepProgress:
        """Launch one evaluation task; return its progress.

        Must run on the service loop with no in-flight entry under
        ``key``.  The progress is also kept (with a short tail of
        finished ones) for ``/stats`` and long-poll 202 bodies.
        """
        loop = asyncio.get_running_loop()
        progress = SweepProgress(grid, self.ngpc, loop=loop)
        self._inflight[key] = progress
        with self._progress_lock:
            self._progress[key] = progress
            finished = [
                k for k, p in self._progress.items()
                if p.state() != (None, None)
            ]
            for stale in finished[: max(0, len(finished) - _PROGRESS_RETAIN)]:
                del self._progress[stale]
        task = loop.create_task(
            self._evaluate(key, grid, progress, release, watched)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return progress

    async def _evaluate(
        self,
        key: Hashable,
        grid: SweepGrid,
        progress: SweepProgress,
        release,
        watched: bool,
    ) -> None:
        """Run the tier ladder in an executor thread.

        ``asyncio.to_thread`` carries this task's context over, so the
        sweep evaluates under the calibration its ``key`` was taken
        under (:func:`repro.calibration.current`).  Only a watched sweep
        reports its blocks (the ladder then runs the stream plan); the
        ladder always announces the size of the plan that evaluated, so
        a stream that joins an unwatched sweep ends on the true count.
        The result or error goes to ``progress``, which wakes every
        request waiting on it; a failure is not cached.
        """
        try:
            result = await asyncio.to_thread(
                tiered_sweep, grid, self.ngpc, self.store, self.tier,
                progress.set_plan, progress.record if watched else None,
                engine=self.engine, sweep_fn=self._sweep_fn,
            )
        except Exception as exc:  # raised to every coalesced request
            progress.fail(exc)
        else:
            self._cache.put(key, result)
            progress.finish(result)
        finally:
            self._inflight.pop(key, None)
            if release is not None:
                release()  # give the cold slot back (success or failure)

    # -- streaming -----------------------------------------------------------
    async def sweep_stream(
        self,
        grid: GridLike = None,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> AsyncIterator[Dict]:
        """Evaluate ``grid`` and stream progress + refining Pareto fronts.

        An async generator of the
        :func:`~repro.service.progress.progress_events` events, built in
        the executor on every tick; the final front is bit-identical to
        ``/pareto`` on the same selectors.  A failed evaluation ends the
        stream with ``{"event": "error", "error": {...}}``, the body a
        plain request would have gotten.  Selectors are validated before
        anything evaluates, and the sweep is joined or started as by
        :meth:`sweep` — a cached one streams just the terminal triple.
        Abandoning the generator (client disconnect) only unsubscribes:
        the evaluation keeps running for every other subscriber and
        still lands in the cache.
        """
        # fail before any event: the HTTP layer ships a pre-stream
        # error as a plain structured response
        grid = self._validated(grid, scheme, n_pixels, app, **selectors)
        progress = await self.sweep_progress(grid)
        loop = asyncio.get_running_loop()
        queue = progress.subscribe()
        events = progress_events(
            progress, scheme, n_pixels=n_pixels, app=app, **selectors
        )
        try:
            while True:
                try:
                    batch = await loop.run_in_executor(None, next, events)
                except Exception as exc:
                    payload = as_service_error(exc).to_payload()
                    yield {"event": "error", "error": payload["error"]}
                    return
                for event in batch:
                    yield event
                if batch[-1]["event"] == "complete":
                    return
                # block for the next tick, then drain the burst — a slow
                # consumer coalesces ticks instead of falling behind
                await queue.get()
                while not queue.empty():
                    queue.get_nowait()
        finally:
            progress.unsubscribe(queue)

    # -- queries -------------------------------------------------------------
    def _validated(self, grid: GridLike, scheme, n_pixels, app, **selectors):
        """The normalized grid, once :func:`validate_selectors` passed."""
        resolved = _as_grid(grid).resolve(self.ngpc).normalized()
        validate_selectors(resolved, scheme, n_pixels, app, **selectors)
        return resolved

    async def pareto_front(
        self,
        grid: GridLike = None,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> List[DesignPoint]:
        """Non-dominated (area, speedup) configurations of the grid."""
        grid = self._validated(grid, scheme, n_pixels, app, **selectors)
        result = await self.sweep(grid)
        return result.pareto_front(
            scheme, n_pixels=n_pixels, app=app, **selectors
        )

    async def cheapest_point_meeting_fps(
        self,
        grid: GridLike,
        app: str,
        fps: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        **selectors,
    ) -> Optional[DesignPoint]:
        """Cheapest-area configuration hitting ``fps``, or None.

        The endpoint keeps a None-on-infeasible contract (the wire
        payload is ``result: null``); the
        :class:`~repro.errors.InfeasibleQueryError` contract lives in
        the client-side facade, which reconstructs the structured error
        from the dense result it fetched.
        """
        grid = self._validated(grid, scheme, n_pixels, app, **selectors)
        result = await self.sweep(grid)
        return result.cheapest_point_meeting_fps(
            app, fps, n_pixels=n_pixels, scheme=scheme, **selectors
        )

    async def cheapest_point_meeting_train_rate(
        self,
        grid: GridLike,
        app: str,
        steps_per_s: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        **selectors,
    ) -> Optional[DesignPoint]:
        """Cheapest-area configuration training at ``steps_per_s``, or None.

        The training-throughput twin of
        :meth:`cheapest_point_meeting_fps`, with the same
        None-on-infeasible wire contract.
        """
        grid = self._validated(grid, scheme, n_pixels, app, **selectors)
        result = await self.sweep(grid)
        return result.cheapest_point_meeting_train_rate(
            app, steps_per_s, n_pixels=n_pixels, scheme=scheme, **selectors
        )

    async def point(
        self,
        grid: GridLike,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        scale_factor: Optional[int] = None,
        n_pixels: Optional[int] = None,
        **selectors,
    ) -> EmulationResult:
        """One grid point's :class:`EmulationResult`.

        Every selector follows the ambiguity rule: optional when its
        axis is a singleton, a structured 400 naming the axis otherwise.
        """
        grid = _as_grid(grid).resolve(self.ngpc).normalized()
        point_index(
            grid, app=app, scheme=scheme, scale_factor=scale_factor,
            n_pixels=n_pixels, **selectors,
        )
        result = await self.sweep(grid)
        return result.point(app, scheme, scale_factor, n_pixels, **selectors)

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict:
        """Cache/coalescing counters (the ``/stats`` endpoint body).

        ``cache`` describes the *tiered* cache, not just the in-RAM
        LRU: ``size``/``hits``/``misses`` are the LRU's own view, and
        ``ram_hits``/``disk_hits``/``evaluations`` split every resolved
        sweep by the tier that actually served it (without a store,
        ``disk_hits`` is simply always 0).  With a store attached,
        ``store`` carries its catalogue and block-reuse counters.
        """
        stats = {
            "engine": self.engine,
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "evaluations": self.evaluations,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
            "cache": {
                **self._cache.info(),
                "ram_hits": self.tier["ram_hits"],
                "disk_hits": self.tier["disk_hits"],
                "evaluations": self.tier["evaluations"],
            },
            "http": dict(self.http),
            "progress": self._progress_stats(),
        }
        if self.store is not None:
            stats["store"] = {
                **self.store.stats(),
                "blocks_total": self.tier["blocks_total"],
                "blocks_cached": self.tier["blocks_cached"],
                "blocks_evaluated": self.tier["blocks_evaluated"],
            }
        for name, provider in self.stats_extra.items():
            stats[name] = provider() if callable(provider) else provider
        return stats

    def _progress_stats(self) -> Dict[str, Dict]:
        """Per-sweep progress counters, keyed by a short fingerprint digest.

        The digest is stable for the lifetime of the process (it hashes
        the sweep fingerprint), so a dashboard polling ``/stats`` can
        follow one sweep's ``points_done`` across requests.
        """
        with self._progress_lock:
            entries = list(self._progress.items())
        return {
            hashlib.sha256(repr(key).encode()).hexdigest()[:12]: p.snapshot()
            for key, p in entries
        }
