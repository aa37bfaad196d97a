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
    SweepGrid,
    front_points,
    query_slice,
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
        return fresh

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
        """
        query = query_slice(self.grid, scheme, n_pixels, **selectors)
        with self._lock:
            return front_points(
                self.grid, self.area_overhead_pct, self.power_overhead_pct,
                self._speedup[query.index], query.enc, app,
                valid=self._valid[query.index],
            )


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
    work.
    """

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig],
                 loop=None):
        self.partial = PartialSweep(grid, ngpc)
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
        long-poll window closing) only unsubscribes.
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
    last_front = None
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
            front = [
                p.to_dict()
                for p in progress.partial.pareto_front(
                    scheme, n_pixels=n_pixels, app=app, **selectors
                )
            ]
            if front and front != last_front:
                last_front = front
                events.append({"event": "front", "final": False,
                               "points": front})
        yield events
