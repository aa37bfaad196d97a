"""Per-sweep streaming progress: landed blocks, fronts, subscribers.

One :class:`SweepProgress` exists per streamed sweep — in flight in a
:class:`~repro.service.sweep_service.SweepService` or on a local
backend's helper thread, or already finished (a cached result is
simply a finished progress).  The evaluation side — any block runner
under :func:`~repro.store.tiered_sweep`, or the shard coordinator's
``on_block`` hook — calls :meth:`SweepProgress.record` from whatever
thread completes a block; a streaming consumer subscribes, and on each
tick asks :func:`progress_events`, the one event builder, for the
events of the current state.

:class:`PartialSweep` keeps each landed block's timing columns as they
arrived, filed under its configuration window by app; nothing
grid-shaped is allocated.  A window is complete once every app has a
block there — every plan (:func:`~repro.core.dse.shard_plan`, which
:func:`~repro.core.dse.stream_plan` and the cluster cut with, and
:func:`~repro.core.dse.store_block_plan`) cuts each (app, scheme) pair
into the same windows — so a grid point competes exactly when its
window is complete, each front is exact over the evaluated subset,
fronts only ever refine, and the moment the last block lands the
partial front is the dense result's front bit for bit.

A partial front has one algorithm, the running merge: since
front(A ∪ B) = front(front(A) ∪ B), each tick gathers only the windows
completed since the last one (:meth:`PartialSweep.gather`; the walk
runs under the lock, each app's speedup ``baseline / accelerated`` at
the query plane is divided outside it), reduces them over the batch
axis (:func:`~repro.core.dse.reduce_batches`) and merges them into the
running front with :func:`~repro.core.dse.pareto_front`.  Candidates
are ranked in flat-index order, so the merge keeps the dense front's
lowest-flat-index tie-break.  :meth:`PartialSweep.pareto_front` is a
fresh running front advanced once over every complete window.
"""

from __future__ import annotations

import asyncio
import threading
import time
from queue import Queue
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import NGPCConfig
from repro.core.dse import (
    DesignPoint,
    QuerySlice,
    SweepGrid,
    axis_index,
    design_point,
    pareto_front,
    query_slice,
    reduce_batches,
)
from repro.core.area_power import ngpc_area_power_batch

__all__ = ["PartialSweep", "SweepProgress", "progress_events"]


class PartialSweep:
    """The landed blocks of one sweep, filed by configuration window."""

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig]):
        self.grid = grid
        self._lock = threading.Lock()
        #: (scheme, windows) -> {app index: (baseline_ms, accelerated_ms)}
        self._blocks: Dict[Tuple, Dict[int, Tuple]] = {}
        #: complete (scheme, windows) keys in completion order (what
        #: :meth:`gather` walks)
        self._recorded: List[Tuple] = []
        # the exact cost arrays are free: they depend only on the grid
        # axes, identically to finalize_sweep_result's attach
        cost = ngpc_area_power_batch(
            np.asarray(grid.scale_factors),
            ngpc.nfp if ngpc else None,
            clocks_ghz=grid.clocks_ghz,
            grid_sram_kb=grid.grid_sram_kb,
            n_engines=grid.n_engines,
        )
        self.area_overhead_pct = cost["area_overhead_pct"]
        self.power_overhead_pct = cost["power_overhead_pct"]

    def record(self, placement: Tuple, block: Dict[str, np.ndarray]) -> int:
        """File one evaluated block; returns the newly covered points.

        The block's timing columns are kept as they landed.  A window
        is complete once every app has a block there: every plan cuts
        each (app, scheme) pair into the same windows.
        """
        i, j, windows = placement
        columns = (np.asarray(block["baseline_ms"]),
                   np.asarray(block["accelerated_ms"]))
        with self._lock:
            apps = self._blocks.setdefault((j, windows), {})
            if i in apps:
                return 0
            apps[i] = columns
            if len(apps) == len(self.grid.apps):
                self._recorded.append((j, windows))
        return int(np.prod([hi - lo for lo, hi in windows]))

    def gather(self, query: QuerySlice, cursor: int):
        """The query plane's windows completed since window ``cursor``.

        Returns the new cursor and one ``(corner, speedup)`` per window
        holding the plane: ``corner`` the window's first (scale, clock,
        SRAM, engines, batches) plane index and ``speedup`` every app's
        speedup over the window.  Only the walk runs under the lock.
        """
        with self._lock:
            keys = self._recorded[cursor:]
            landed = [(windows, self._blocks[(j, windows)])
                      for j, windows in keys if j == query.scheme]
        # the plane's position along each configuration axis, None
        # along the axes it spans
        plane = (None, query.pixels) + (None,) * 4 + query.enc
        gathered = []
        for windows, apps in landed:
            spans = list(zip(plane, windows))
            if any(pos is not None and not lo <= pos < hi
                   for pos, (lo, hi) in spans):
                continue
            shape = tuple(hi - lo for lo, hi in windows)
            local = tuple(slice(None) if pos is None else pos - lo
                          for pos, (lo, _) in spans)
            box = [(lo, hi) for pos, (lo, hi) in spans if pos is None]
            speedup = np.empty((len(apps),) + tuple(hi - lo for lo, hi in box))
            for a, (baseline, accelerated) in apps.items():
                # element-wise division, as SweepResult.speedup divides
                # the dense arrays, so the values are bit-identical
                np.divide(np.broadcast_to(baseline, shape)[local],
                          np.broadcast_to(accelerated, shape)[local],
                          out=speedup[a])
            gathered.append((tuple(lo for lo, _ in box), speedup))
        return cursor + len(keys), gathered

    def pareto_front(
        self,
        scheme: str,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> List[DesignPoint]:
        """Exact Pareto front over the fully evaluated grid points.

        A point is a candidate once *every* app's block at its
        configuration has landed (the returned ``speedups`` dict must
        be complete).  Same selectors, arithmetic and tie-breaks as
        :meth:`repro.core.dse.SweepResult.pareto_front`, so with every
        block recorded the output is bit-identical to the dense front.
        A stream's running front advanced once over every complete
        window: streams merge the same front window by window.
        """
        running = _RunningFront(self, scheme, n_pixels, app, selectors)
        running.advance()
        return running.points()


class _RunningFront:
    """One stream's exact partial front, merged window by window.

    Holds the front's cells in front order — flat index over the query
    plane's (scale, clock, SRAM, engines, batches) shape, benefit, and
    every app's speedup — and :meth:`advance` folds in the windows
    completed since its last call.
    """

    def __init__(self, partial: PartialSweep, scheme, n_pixels, app,
                 selectors):
        grid = partial.grid
        self.partial = partial
        self.query = query_slice(grid, scheme, n_pixels, **selectors)
        self.app = None if app is None else axis_index("app", app, grid.apps)
        self.shape = grid.shape[2:3] + grid.shape[4:8]
        self.cursor = 0
        self.flat = np.empty(0, dtype=np.intp)
        self.value = np.empty(0)
        self.speedups = np.empty((0, len(grid.apps)))

    def advance(self) -> bool:
        """Merge the newly complete windows; True when the front changed."""
        self.cursor, gathered = self.partial.gather(self.query, self.cursor)
        if not gathered:
            return False
        flats, values, speedups = [self.flat], [self.value], [self.speedups]
        for corner, speedup in gathered:
            benefit = (
                speedup.mean(axis=0) if self.app is None
                else speedup[self.app]
            )
            value, batch = reduce_batches(benefit)
            # every cell of the window, with its best batch
            local = np.unravel_index(np.arange(batch.size), batch.shape) \
                + (batch.reshape(-1),)
            flats.append(np.ravel_multi_index(
                tuple(pos + lo for pos, lo in zip(local, corner)), self.shape
            ))
            values.append(value.reshape(-1))
            speedups.append(speedup[(slice(None),) + local].T)
        # flat-index order: pareto_front's lowest-input-index tie-break
        # is then the dense front's lowest-flat-index one
        flat = np.concatenate(flats)
        order = np.argsort(flat)
        flat = flat[order]
        cost = self.partial.area_overhead_pct.reshape(-1)[
            flat // self.shape[-1]
        ]
        value = np.concatenate(values)[order]
        keep = pareto_front(cost, value)
        changed = not np.array_equal(flat[keep], self.flat)
        self.flat, self.value = flat[keep], value[keep]
        self.speedups = np.concatenate(speedups)[order][keep]
        return changed

    def points(self) -> List[DesignPoint]:
        partial = self.partial
        return [
            design_point(
                partial.grid, partial.area_overhead_pct,
                partial.power_overhead_pct,
                np.unravel_index(flat, self.shape) + self.query.enc, speedups,
            )
            for flat, speedups in zip(self.flat, self.speedups)
        ]


class SweepProgress:
    """Progress counters + pub/sub hub for one in-flight sweep.

    Thread-safe on the producer side (:meth:`record` / :meth:`finish` /
    :meth:`fail` run on executor threads or the coordinator loop).
    Subscribers on the service's event loop (``loop``) get
    :class:`asyncio.Queue` objects woken via ``call_soon_threadsafe``;
    any other thread gets a :class:`queue.Queue` woken directly.  Ticks
    are cheap notifications — subscribers read counters through
    :meth:`snapshot` and compute fronts from :attr:`partial` at their
    own pace, so a slow consumer coalesces ticks instead of queueing
    work.  The :class:`PartialSweep` is built only for a watcher, on
    the first :meth:`record` or read of :attr:`partial`.
    """

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig],
                 loop=None):
        self._grid, self._ngpc = grid, ngpc
        self._partial: Optional[PartialSweep] = None
        self._lock = threading.Lock()
        self._loop = loop
        self._queues: set = set()
        self.points_total = grid.size
        self.points_done = 0
        self.blocks_total: Optional[int] = None
        self.blocks_done = 0
        self.started_at = time.monotonic()
        self.result = None
        self.error: Optional[BaseException] = None

    @property
    def partial(self) -> PartialSweep:
        with self._lock:
            if self._partial is None:
                self._partial = PartialSweep(self._grid, self._ngpc)
            return self._partial

    # -- producer side -------------------------------------------------------
    def set_plan(self, n_blocks: int) -> None:
        # no tick: the plan size rides along with the first block's
        with self._lock:
            self.blocks_total = int(n_blocks)

    def record(self, placement: Tuple, block: Dict[str, np.ndarray]) -> None:
        fresh = self.partial.record(placement, block)
        with self._lock:
            self.blocks_done += 1
            self.points_done += fresh
        self._publish()

    def finish(self, result) -> None:
        with self._lock:
            self.result = result
            self.points_done = self.points_total
            # every announced block ran, reported or not (an unwatched
            # sweep announces its plan only); with no plan announced the
            # reported blocks are the plan — 0 of 0 for a cache hit
            if self.blocks_total is None:
                self.blocks_total = self.blocks_done
            self.blocks_done = self.blocks_total
        self._publish()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self.error = error
        self._publish()

    def _publish(self) -> None:
        with self._lock:
            queues = list(self._queues)
        for queue in queues:
            if not isinstance(queue, asyncio.Queue):
                queue.put_nowait(True)  # thread-safe
                continue
            try:
                self._loop.call_soon_threadsafe(queue.put_nowait, True)
            except RuntimeError:
                pass  # loop already closed mid-shutdown

    # -- consumer side -------------------------------------------------------
    def subscribe(self):
        """Register one wake-up queue: an :class:`asyncio.Queue` when
        called on the progress's event loop, else a :class:`queue.Queue`
        for a consumer blocking on its own thread."""
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:  # no loop running on this thread
            on_loop = False
        queue = asyncio.Queue() if on_loop else Queue()
        with self._lock:
            self._queues.add(queue)
        return queue

    def unsubscribe(self, queue) -> None:
        with self._lock:
            self._queues.discard(queue)

    async def wait(self):
        """The finished result, awaited on the progress's event loop.

        A failed sweep raises its error.  Cancelling the wait (a
        long-poll window closing, a coalesced request going away) only
        unsubscribes; the evaluation is not this wait's to stop.
        """
        queue = self.subscribe()
        try:
            while True:
                result, error = self.state()
                if error is not None:
                    raise error
                if result is not None:
                    return result
                await queue.get()
        finally:
            self.unsubscribe(queue)

    def state(self) -> Tuple:
        """Atomic (result, error) pair."""
        with self._lock:
            return self.result, self.error

    def snapshot(self) -> Dict:
        """JSON-safe progress counters (for ``/stats`` and 202 bodies)."""
        with self._lock:
            return {
                "points_done": self.points_done,
                "points_total": self.points_total,
                "blocks_done": self.blocks_done,
                "blocks_total": self.blocks_total,
                "done": self.result is not None,
                "failed": self.error is not None,
                "subscribers": len(self._queues),
                "elapsed_s": round(time.monotonic() - self.started_at, 6),
            }


def progress_events(
    progress: SweepProgress,
    scheme: Optional[str] = None,
    n_pixels: Optional[int] = None,
    app: Optional[str] = None,
    **selectors,
) -> Iterator[List[Dict]]:
    """The stream events of one sweep, one list per ``next()``.

    The one event builder every streaming backend runs: each call reads
    ``progress`` once, on the calling thread, and returns a ``progress``
    snapshot event, plus a ``front`` (``final: False``) when the exact
    partial front is non-empty and changed.  Once the sweep is done it
    returns the terminal triple — the finished snapshot, the dense
    front (``final: True``) and ``complete`` (``engine``, ``cached`` =
    no block ran, ``elapsed_s``, and the dense ``result_obj`` for
    in-process consumers) — and stops.  A failed sweep raises its error.
    """
    running = None
    while True:
        snapshot = progress.snapshot()
        result, error = progress.state()
        if snapshot["failed"]:
            raise error
        events = [{"event": "progress", **snapshot}]
        if snapshot["done"]:
            points = result.pareto_front(
                scheme, n_pixels=n_pixels, app=app, **selectors
            )
            events.append({"event": "front", "final": True,
                           "points": [p.to_dict() for p in points]})
            events.append({"event": "complete", "engine": result.engine,
                           "cached": snapshot["blocks_total"] == 0,
                           "elapsed_s": snapshot["elapsed_s"],
                           "result_obj": result})
            yield events
            return
        if snapshot["points_done"]:
            if running is None:
                running = _RunningFront(
                    progress.partial, scheme, n_pixels, app, selectors
                )
            if running.advance() and running.flat.size:
                events.append({"event": "front", "final": False,
                               "points": [p.to_dict()
                                          for p in running.points()]})
        yield events
