"""Per-sweep streaming progress: partial arrays, fronts, subscribers.

One :class:`SweepProgress` exists per streamed sweep — in flight in a
:class:`~repro.service.sweep_service.SweepService` or on a local
backend's helper thread, or already finished (a cached result is
simply a finished progress).  The evaluation side — any block runner
under :func:`~repro.store.tiered_sweep`, or the shard coordinator's
``on_block`` hook — calls :meth:`SweepProgress.record` from whatever
thread completes a block; a streaming consumer subscribes, and on each
tick asks :func:`progress_events`, the one event builder, for the
events of the current state.

:class:`PartialSweep` holds dense speedup arrays that blocks scatter
into, plus a validity mask of the evaluated entries, and answers
**exact partial Pareto fronts** through the query kernel of
:mod:`repro.core.dse`: :func:`~repro.core.dse.query_slice` applies the
selector rule and :func:`~repro.core.dse.front_points` ranks the plane
with the mask as :func:`~repro.core.dse.front`'s ``valid`` argument.  A
grid point competes only once every app's entry at it is evaluated, so
each front is exact over the evaluated subset, fronts only ever refine,
and the moment the last block lands the partial front is the dense
result's front bit for bit (a dense sweep is the all-valid case of the
same code).

A stream does not re-rank the partial grid on every tick: since
front(A ∪ B) = front(front(A) ∪ B), each tick gathers only the cells
that became complete since the last one (:meth:`PartialSweep.gather`,
O(block) under the lock), reduces them over the batch axis
(:func:`~repro.core.dse.reduce_batches`) and merges them into the
running front with :func:`~repro.core.dse.pareto_front`, outside the
lock.  Candidates are ranked in flat-index order, so the merge keeps
the dense front's lowest-flat-index tie-break and equals
:meth:`PartialSweep.pareto_front` after the same blocks.
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
    front_points,
    pareto_front,
    query_slice,
    reduce_batches,
    validate_selectors,
)
from repro.core.area_power import ngpc_area_power_batch

__all__ = ["PartialSweep", "SweepProgress", "progress_events"]


class PartialSweep:
    """Dense partial speedup arrays a sweep's blocks scatter into."""

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig]):
        self.grid = grid
        self._lock = threading.Lock()
        # zero-initialized, not NaN: every read is masked by _valid, and
        # np.zeros gets lazily mapped pages where a NaN fill would write
        # the whole array up front (milliseconds on multi-million-point
        # grids — paid before the first block, i.e. on the latency path)
        self._speedup = np.zeros(grid.shape)
        self._valid = np.zeros(grid.shape, dtype=bool)
        #: placements in record order (what :meth:`gather` walks)
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
        """Scatter one evaluated block; returns the newly covered points."""
        i, j, windows = placement
        dest = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
        with self._lock:
            fresh = int(np.count_nonzero(~self._valid[dest]))
            # element-wise division is what SweepResult.speedup computes
            # over the dense arrays, so the values land bit-identical
            self._speedup[dest] = (
                np.asarray(block["baseline_ms"])
                / np.asarray(block["accelerated_ms"])
            )
            self._valid[dest] = True
            self._recorded.append(placement)
        return fresh

    def gather(self, query: QuerySlice, cursor: int, merged: np.ndarray):
        """The query-plane cells complete since block ``cursor``.

        ``merged`` (the plane's (scale, clock, SRAM, engines, batches)
        shape) marks the cells a caller already holds; the cells
        gathered here are marked in it.  Returns the new cursor and one
        ``(box, fresh, speedup)`` per recorded block that completed
        cells of the plane: ``box`` its plane slices, ``fresh`` the
        newly complete cells in the box and ``speedup`` a copy of every
        app's speedup there.  O(recorded blocks) under the lock.
        """
        with self._lock:
            placements = self._recorded[cursor:]
            gathered = []
            for _, j, windows in placements:
                k, p, c, g, e, b = windows[:6]
                if j != query.scheme or not all(
                    lo <= pos < hi
                    for pos, (lo, hi) in zip(
                        (query.pixels,) + query.enc, (p,) + windows[6:]
                    )
                ):
                    continue
                box = tuple(slice(lo, hi) for lo, hi in (k, c, g, e, b))
                index = (slice(None), j, box[0], query.pixels) + box[1:] \
                    + query.enc
                fresh = self._valid[index].all(axis=0) & ~merged[box]
                if not fresh.any():
                    continue
                merged[box] |= fresh
                gathered.append((box, fresh, self._speedup[index].copy()))
            return cursor + len(placements), gathered

    def validate_selectors(
        self,
        scheme: str,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> None:
        """Raise the same structured errors a dense front query would."""
        validate_selectors(self.grid, scheme, n_pixels, app, **selectors)

    def pareto_front(
        self,
        scheme: str,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> List[DesignPoint]:
        """Exact Pareto front over the fully evaluated grid points.

        A point is a candidate once *every* app's slice at its
        configuration is evaluated (the returned ``speedups`` dict must
        be complete).  Same selectors, arithmetic and tie-breaks as
        :meth:`repro.core.dse.SweepResult.pareto_front`, so with every
        block recorded the output is bit-identical to the dense front.
        Ranks the whole plane under the lock: streams merge the same
        front block by block instead, and this is their reference.
        """
        query = query_slice(self.grid, scheme, n_pixels, **selectors)
        with self._lock:
            return front_points(
                self.grid, self.area_overhead_pct, self.power_overhead_pct,
                self._speedup[query.index], query.enc, app,
                valid=self._valid[query.index],
            )


class _RunningFront:
    """One stream's exact partial front, merged block by block.

    Holds the front's cells in front order — flat index over the query
    plane's (scale, clock, SRAM, engines, batches) shape, benefit, and
    every app's speedup — and :meth:`advance` folds in the cells
    completed since its last call.
    """

    def __init__(self, partial: PartialSweep, scheme, n_pixels, app,
                 selectors):
        grid = partial.grid
        self.partial = partial
        self.query = query_slice(grid, scheme, n_pixels, **selectors)
        self.app = None if app is None else axis_index("app", app, grid.apps)
        self.shape = grid.shape[2:3] + grid.shape[4:8]
        self.merged = np.zeros(self.shape, dtype=bool)
        self.cursor = 0
        self.flat = np.empty(0, dtype=np.intp)
        self.value = np.empty(0)
        self.speedups = np.empty((0, len(grid.apps)))

    def advance(self) -> bool:
        """Merge the newly complete cells; True when the front changed."""
        self.cursor, gathered = self.partial.gather(
            self.query, self.cursor, self.merged
        )
        if not gathered:
            return False
        flats, values, speedups = [self.flat], [self.value], [self.speedups]
        for box, fresh, speedup in gathered:
            benefit = (
                speedup.mean(axis=0) if self.app is None
                else speedup[self.app]
            )
            value, batch = reduce_batches(benefit, fresh)
            cells = np.nonzero(batch >= 0)
            local = cells + (batch[cells],)
            flats.append(np.ravel_multi_index(
                tuple(pos + part.start for pos, part in zip(local, box)),
                self.shape,
            ))
            values.append(value[cells])
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
