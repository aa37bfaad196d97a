"""Shard coordinator: leases sweep blocks to workers across hosts.

:class:`ShardCoordinator` is the server half of the distributed sweep
engine.  A sweep submitted via :meth:`ShardCoordinator.sweep_blocking` is cut
into contiguous vectorized block tasks (:func:`repro.core.dse.shard_plan`
— plain tuples, so a task crosses host boundaries unchanged) and run
through :func:`repro.core.dse.run_plan` with a
:class:`ClusterBlockRunner`: the runner's tasks become one job, queued
and handed out to workers over the coordinator's HTTP endpoints, and
the evaluated blocks come back in task order for assembly on the
caller's thread:

====================== ====================================================
endpoint               body / result (binary frames, :mod:`repro.transport`)
====================== ====================================================
``POST /cluster/register``  ``{host?, pid?}`` -> ``{worker_id,
                            calibration, ngpc, lease_timeout_s}``
``POST /cluster/lease``     ``{worker_id}`` -> long-poll; one of
                            ``{job_id, task_id, task, ngpc,
                            calibration}``, ``{empty: true}`` (poll
                            timeout, re-poll) or ``{stop: true}``
``POST /cluster/complete``  ``{worker_id, job_id, task_id, arrays}``
                            -> ``{ok: true, accepted: bool}``; a
                            ``job_id``/``task_id`` that is not an
                            in-range int is a structured 400
``GET  /cluster/stats``     lease/worker/job counters
====================== ====================================================

(The one JSON ``/cluster`` endpoint, ``POST /cluster/drain``, is served
by the HTTP layer, not this adapter: it is an admin-authenticated
operator verb calling :meth:`ShardCoordinator.drain` for rolling
worker-generation restarts, not part of the worker wire protocol.)

Lease semantics (the failure model):

- Work is **pull-based**: nothing is ever assigned to a worker that did
  not ask, so a dead worker can only strand blocks it already leased.
- Every lease carries a deadline (``lease_timeout_s``).  A reaper task
  re-queues expired leases and marks the worker dead; any live worker's
  next poll picks the block up, so killing a worker mid-sweep delays
  its blocks by at most one lease timeout — the sweep still completes.
- A late completion from a presumed-dead worker is accepted only while
  no *other* worker holds the block (first result wins).  Once the
  block was re-leased — or already finished — the late result (or a
  late error report) is a counted no-op (``late_completions`` /
  ``stale_completions``), so re-leasing never double-counts a block in
  the stats or clobbers the new holder's lease.

Workers evaluate with the coordinator's calibration constants: every
lease carries the calibration fingerprint and base config the job was
submitted under, and workers reinstall them only when they change,
keeping blocks bit-identical to a local evaluation.

Bodies and responses are versioned binary frames
(:mod:`repro.transport`): dense float64 blocks round-trip exactly and
decode zero-copy on the receiving side via ``np.frombuffer``, and —
unlike the pickle wire this replaced — a frame can never execute code
on decode, so a stray byte reaching the port yields a structured 400
instead of arbitrary code execution.  Task tuples, configs and
calibration fingerprints travel as typed tags in the frame's JSON meta
section and compare equal after a round trip.
"""

from __future__ import annotations

import asyncio
import uuid
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import calibration_fingerprint
from repro.core.config import NGPCConfig
from repro.core.dse import (
    _TIMING_FIELDS,
    SweepGrid,
    SweepResult,
    run_plan,
    shard_plan,
    task_shape,
    window_major,
)
from repro.errors import BackendUnavailableError
from repro.service.errors import ServiceError, as_service_error
from repro.transport import FRAME_CONTENT_TYPE, decode_message, encode_message

#: blocks handed to each worker per cold sweep (few, big blocks: HTTP
#: round trips cost more than queue pops)
BLOCKS_PER_WORKER = 2

#: per-block payload ceiling; the shard plan is refined until a block's
#: timing arrays fit (6 float64 arrays), keeping completions well under
#: the HTTP layer's request-size limit
MAX_BLOCK_BYTES = 4 * 1024 * 1024

#: adaptive block-sizing target: once per-worker throughput has been
#: observed from completed leases, sweeps are cut so one block costs a
#: worker about this long — long enough to amortize an HTTP round trip,
#: short enough that an uneven tail (or an adaptive-refinement round
#: arriving mid-sweep) never idles the other workers for long
TARGET_BLOCK_SECONDS = 0.25

_PENDING, _LEASED, _DONE = 0, 1, 2

#: sentinel distinguishing "no timeout named" from an explicit None
_UNSET_TIMEOUT = object()


class _Job:
    """One submitted list of block tasks and its completion state.

    Every job — a full sweep's plan or an adaptive-refinement round —
    resolves to its evaluated blocks in task order; the caller
    assembles them.
    """

    def __init__(self, job_id: int, ngpc: Optional[NGPCConfig],
                 calibration: Tuple, tasks: List[Tuple],
                 future: asyncio.Future,
                 on_block: Optional[Callable] = None):
        self.job_id = job_id
        self.ngpc = ngpc
        self.calibration = calibration
        self.tasks = tasks
        self.future = future
        self.on_block = on_block
        self.states = [_PENDING] * len(tasks)
        self.blocks: List[Optional[Dict[str, np.ndarray]]] = [None] * len(tasks)
        self.remaining = len(tasks)


def _is_index(value, limit: Optional[int] = None) -> bool:
    """Whether ``value`` is a non-negative int (below ``limit``, if given)."""
    return (
        isinstance(value, int) and not isinstance(value, bool)
        and value >= 0 and (limit is None or value < limit)
    )


class _Worker:
    """Registration record of one worker process (possibly remote)."""

    def __init__(self, worker_id: str, host: str, pid: Optional[int],
                 last_seen: float, generation: int = 1):
        self.worker_id = worker_id
        self.host = host
        self.pid = pid
        #: the coordinator generation this worker registered under; a
        #: drain bumps the coordinator's and this worker's next lease
        #: poll returns ``{stop: true, reason: "drained"}``
        self.generation = generation
        self.alive = True
        self.last_seen = last_seen
        self.blocks_completed = 0
        #: EWMA of observed evaluation throughput (grid points per
        #: second, lease-to-completion) — drives adaptive block sizing
        self.points_per_s: Optional[float] = None

    def observe(self, n_points: int, elapsed_s: float) -> None:
        if elapsed_s <= 0.0 or n_points <= 0:
            return
        rate = n_points / elapsed_s
        if self.points_per_s is None:
            self.points_per_s = rate
        else:  # EWMA: responsive to host load changes, stable per block
            self.points_per_s = 0.5 * self.points_per_s + 0.5 * rate


class ShardCoordinator:
    """Async shard coordinator; all state lives on one event loop.

    Create it, call :meth:`start` on a running loop (done by
    :func:`repro.service.http.start_http_server` when the coordinator is
    mounted), run sweeps with :meth:`sweep_blocking` (from any thread but
    the loop's — the ``Session``/``SweepService`` executor path) or raw
    block lists through a :class:`ClusterBlockRunner`, and :meth:`close`
    to fail pending jobs and tell polling workers to stop.
    """

    #: content type of every handled body (read by the HTTP layer)
    content_type = FRAME_CONTENT_TYPE

    def __init__(
        self,
        ngpc: Optional[NGPCConfig] = None,
        lease_timeout_s: float = 10.0,
        poll_timeout_s: float = 30.0,
        blocks_per_worker: int = BLOCKS_PER_WORKER,
        sweep_timeout_s: Optional[float] = 600.0,
    ):
        self.ngpc = ngpc
        self.lease_timeout_s = float(lease_timeout_s)
        self.poll_timeout_s = float(poll_timeout_s)
        self.blocks_per_worker = int(blocks_per_worker)
        #: default bound on one submit (sweep_fn/sweep_blocking callers
        #: that name no timeout); None waits forever
        self.sweep_timeout_s = sweep_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._jobs: Dict[int, _Job] = {}
        self._queue: List[Tuple[int, int]] = []  # FIFO of (job_id, task_id)
        # (job_id, task_id) -> (worker_id, deadline, lease_start)
        self._leases: Dict[Tuple[int, int], Tuple[str, float, float]] = {}
        self._workers: Dict[str, _Worker] = {}
        self._work_cond: Optional[asyncio.Condition] = None
        self._reaper: Optional[asyncio.Task] = None
        self._closing = False
        #: the live worker generation.  ``drain()`` bumps it: workers
        #: registered under an older generation get ``{stop: true}`` on
        #: their next lease poll (their in-flight blocks finish normally
        #: or re-queue via lease expiry), while re-registering workers
        #: join the new generation — a rolling restart with no lost and
        #: no double-counted blocks.
        self.generation = 1
        self.drains = 0
        # counters served at /cluster/stats
        self.jobs_submitted = 0  # also the next job id
        self.jobs_completed = 0
        self.blocks_dispatched = 0
        self.blocks_completed = 0
        self.blocks_releases = 0  # expired leases re-queued
        self.blocks_failed = 0  # worker-reported evaluation failures
        self.stale_completions = 0  # late duplicates ignored
        self.late_completions = 0  # completions whose lease moved on

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and start the lease reaper."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._work_cond = asyncio.Condition()
        self._reaper = self._loop.create_task(self._reap_expired_leases())

    async def close(self) -> None:
        """Fail pending jobs, stop the reaper, release polling workers."""
        self._closing = True
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        for job in list(self._jobs.values()):
            if not job.future.done():
                job.future.set_exception(BackendUnavailableError(
                    "shard coordinator shut down with the sweep unfinished"
                ))
        self._jobs.clear()
        self._queue.clear()
        self._leases.clear()
        if self._work_cond is not None:
            async with self._work_cond:
                self._work_cond.notify_all()

    # -- submission ----------------------------------------------------------
    @property
    def observed_points_per_s(self) -> Optional[float]:
        """Mean per-worker throughput over live workers, or None (cold)."""
        rates = [
            w.points_per_s for w in self._workers.values()
            if w.alive and w.points_per_s
        ]
        if not rates:
            return None
        return sum(rates) / len(rates)

    def _plan(self, grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
        """Cut a sweep into blocks, sized from observed throughput.

        Cold (no completed leases yet) the cut is the static
        ``blocks_per_worker × alive workers``.  Once workers have
        reported blocks, the plan targets
        :data:`TARGET_BLOCK_SECONDS`-sized blocks instead — fast workers
        get more, smaller blocks keep every worker busy through uneven
        tails and interleaved adaptive-refinement rounds — while never
        dropping below the static floor or above the
        :data:`MAX_BLOCK_BYTES` transport ceiling.  Blocks are leased
        window-major (:func:`~repro.core.dse.window_major`), so a
        streamed sweep's first exact partial front lands after
        ``apps × schemes`` blocks; assembly goes by placement, so the
        order never changes the result.
        """
        n_workers = max(1, sum(w.alive for w in self._workers.values()))
        n_blocks = self.blocks_per_worker * n_workers
        rate = self.observed_points_per_s
        if rate is not None:
            block_points = max(1, int(rate * TARGET_BLOCK_SECONDS))
            n_blocks = max(n_blocks, -(-grid.size // block_points))
        point_bytes = 8 * len(_TIMING_FIELDS)
        min_blocks = -(-grid.size * point_bytes // MAX_BLOCK_BYTES)
        return window_major(shard_plan(grid, max(n_blocks, int(min_blocks))))

    async def submit(
        self,
        tasks: List[Tuple],
        ngpc: Optional[NGPCConfig] = None,
        timeout_s: Optional[float] = None,
        on_block: Optional[Callable] = None,
    ) -> List[Dict[str, np.ndarray]]:
        """Lease a list of block tasks; the blocks return in task order.

        ``tasks`` are :func:`~repro.core.dse.evaluate_block` work units —
        a sweep's :func:`~repro.core.dse.shard_plan` tasks or an adaptive
        refinement round.  Every registered worker pulls them, a worker
        death re-queues its blocks, and lease timings feed the
        throughput EWMAs that size later sweeps.  ``on_block`` (if
        given) is called as ``on_block(task_id, block)`` on the
        coordinator loop for every accepted block — the streaming
        progress hook; listener exceptions never fail the job.
        """
        if self._closing:
            raise BackendUnavailableError("shard coordinator is shut down")
        if self._loop is None:
            await self.start()
        if not tasks:
            return []
        job = _Job(
            job_id=self.jobs_submitted,
            ngpc=ngpc if ngpc is not None else self.ngpc,
            calibration=calibration_fingerprint(),
            tasks=list(tasks),
            future=self._loop.create_future(),
            on_block=on_block,
        )
        self._jobs[job.job_id] = job
        self.jobs_submitted += 1
        self._queue.extend((job.job_id, t) for t in range(len(job.tasks)))
        async with self._work_cond:
            self._work_cond.notify_all()
        try:
            if timeout_s is None:
                return await job.future
            return await asyncio.wait_for(job.future, timeout_s)
        except asyncio.TimeoutError:
            raise BackendUnavailableError(
                f"distributed job did not complete within {timeout_s:g}s "
                f"({job.remaining} of {len(job.tasks)} blocks outstanding; "
                f"are any workers alive?)"
            )
        finally:
            self._evict(job)

    def _call(self, coro_factory):
        """Run a coroutine on the coordinator loop; block for its result."""
        if self._loop is None:
            raise BackendUnavailableError(
                "shard coordinator is not started (no event loop)"
            )
        return asyncio.run_coroutine_threadsafe(
            coro_factory(), self._loop
        ).result()

    def _evict(self, job: _Job) -> None:
        if self._jobs.pop(job.job_id, None) is None:
            return
        self._queue = [(j, t) for j, t in self._queue if j != job.job_id]
        for key in [k for k in self._leases if k[0] == job.job_id]:
            del self._leases[key]

    def sweep_blocking(
        self,
        grid: SweepGrid,
        ngpc: Optional[NGPCConfig] = None,
        timeout_s=_UNSET_TIMEOUT,
        on_block: Optional[Callable] = None,
    ) -> SweepResult:
        """Distribute one sweep across the workers (the cluster's entry).

        Called from any thread but the coordinator loop's — it is the
        ``sweep_fn`` shape :class:`~repro.service.SweepService` dispatches
        to from its executor thread, putting the service's single-flight
        coalescing and LRU in front of the cluster.  The grid is resolved
        against the job's base config exactly as
        :func:`~repro.core.dse.sweep_grid` resolves it, planned on the
        loop from observed worker throughput, and run through
        :func:`~repro.core.dse.run_plan`, so it is assembled and finalized
        on this thread by the same code as a local evaluation.
        ``on_block(placement, block)`` is the streaming progress hook.
        An unspecified ``timeout_s`` falls back to the coordinator's
        ``sweep_timeout_s``, so a sweep with no live workers fails
        structured instead of parking the thread forever; pass ``None``
        explicitly to wait without bound.
        """
        ngpc = ngpc if ngpc is not None else self.ngpc
        resolved = grid.resolve(ngpc)

        async def plan():
            return self._plan(resolved)

        return run_plan(
            resolved, self._call(plan),
            ClusterBlockRunner(self, ngpc, timeout_s), "cluster", ngpc,
            on_block,
        )

    def sweep_fn(self, grid, engine: str = "cluster",
                 ngpc: Optional[NGPCConfig] = None,
                 on_block: Optional[Callable] = None) -> SweepResult:
        """Drop-in ``sweep_fn`` for :class:`SweepService` (engine ignored)."""
        return self.sweep_blocking(grid, ngpc=ngpc, on_block=on_block)

    # -- worker protocol -----------------------------------------------------
    def _register(self, payload: Dict) -> Dict:
        worker = _Worker(
            worker_id=uuid.uuid4().hex,
            host=str(payload.get("host", "?")),
            pid=payload.get("pid"),
            last_seen=self._loop.time() if self._loop else 0.0,
            generation=self.generation,
        )
        self._workers[worker.worker_id] = worker
        return {
            "worker_id": worker.worker_id,
            "calibration": calibration_fingerprint(),
            "ngpc": self.ngpc,
            "lease_timeout_s": self.lease_timeout_s,
            "generation": self.generation,
        }

    def _next_pending(self) -> Optional[Tuple[int, int]]:
        while self._queue:
            job_id, task_id = self._queue.pop(0)
            job = self._jobs.get(job_id)
            if job is not None and job.states[task_id] == _PENDING:
                return job_id, task_id
        return None

    async def _lease(self, payload: Dict) -> Dict:
        worker = self._workers.get(payload.get("worker_id"))
        if worker is None:
            raise ServiceError(
                404, "unknown-worker",
                "worker is not registered (coordinator restarted?); re-register",
            )
        worker.alive = True  # polling again == alive, even if reaped earlier
        worker.last_seen = self._loop.time()
        deadline = self._loop.time() + self.poll_timeout_s
        # the pending-queue check happens under the condition lock, so a
        # submit()/reaper notify cannot slip between check and wait
        async with self._work_cond:
            while True:
                if self._closing:
                    return {"stop": True}
                if worker.generation != self.generation:
                    # drained: this check sits inside the wait loop so a
                    # long-polling worker stops on the drain's notify,
                    # not after its (up to 30 s) poll window — and never
                    # receives another lease from the old generation
                    return {"stop": True, "reason": "drained"}
                ref = self._next_pending()
                if ref is not None:
                    job_id, task_id = ref
                    job = self._jobs[job_id]
                    job.states[task_id] = _LEASED
                    now = self._loop.time()
                    self._leases[ref] = (
                        worker.worker_id, now + self.lease_timeout_s, now,
                    )
                    self.blocks_dispatched += 1
                    return {
                        "job_id": job_id,
                        "task_id": task_id,
                        "task": job.tasks[task_id],
                        "ngpc": job.ngpc,
                        "calibration": job.calibration,
                    }
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    return {"empty": True}
                try:
                    await asyncio.wait_for(self._work_cond.wait(), remaining)
                except asyncio.TimeoutError:
                    return {"empty": True}

    async def _complete(self, payload: Dict) -> Dict:
        worker = self._workers.get(payload.get("worker_id"))
        if worker is None:
            raise ServiceError(404, "unknown-worker", "worker is not registered")
        worker.last_seen = self._loop.time()
        job_id, task_id = payload.get("job_id"), payload.get("task_id")
        issued = _is_index(job_id, self.jobs_submitted)
        job = self._jobs.get(job_id) if issued else None
        n_tasks = len(job.tasks) if job is not None else None
        if not issued or not _is_index(task_id, n_tasks):
            # a malformed reference must touch no block: it would skip
            # the lease gate below, or break the job it names
            raise ServiceError(
                400, "bad-completion",
                f"job_id {job_id!r} / task_id {task_id!r} does not name a "
                f"block of a submitted job",
            )
        if job is None or job.states[task_id] == _DONE:
            # evicted job or a re-leased block that finished elsewhere
            self.stale_completions += 1
            return {"ok": True, "accepted": False}
        lease = self._leases.get((job_id, task_id))
        if lease is not None and lease[0] != worker.worker_id:
            # this worker's lease expired and the block was re-leased to
            # another worker: the late result (or error report) must
            # neither double-count the block nor clobber the current
            # holder's lease — counted no-op; the holder's result wins
            self.late_completions += 1
            return {"ok": True, "accepted": False}
        error = payload.get("error")
        if error is not None:
            # the worker could not evaluate the block (version skew, bad
            # task): fail the whole job structured — matching the local
            # engines, where an evaluation exception propagates — instead
            # of re-leasing a poison block around the cluster forever
            self.blocks_failed += 1
            if not job.future.done():
                job.future.set_exception(ServiceError(
                    500, "block-failed",
                    f"worker {worker.worker_id[:8]} failed block {task_id} "
                    f"of job {job_id}: {error}",
                ))
            self._evict(job)
            return {"ok": True, "accepted": True}
        block = payload.get("arrays")
        try:
            self._validate_block(job, task_id, block)
        except ServiceError:
            # the block went back on the queue: wake idle pollers now
            # rather than after their (up to 30 s) poll timeout
            async with self._work_cond:
                self._work_cond.notify_all()
            raise
        self._leases.pop((job_id, task_id), None)
        if lease is not None:  # the gate above ensured it is ours
            n_points = int(np.prod(task_shape(job.tasks[task_id])))
            worker.observe(n_points, self._loop.time() - lease[2])
        job.states[task_id] = _DONE
        job.blocks[task_id] = block
        job.remaining -= 1
        worker.blocks_completed += 1
        self.blocks_completed += 1
        if job.on_block is not None:
            try:
                job.on_block(task_id, block)
            except Exception:
                pass  # a progress listener must never fail the job
        if job.remaining == 0:
            self.jobs_completed += 1
            if not job.future.done():
                job.future.set_result(job.blocks)
        return {"ok": True, "accepted": True}

    def _validate_block(self, job: _Job, task_id: int, block) -> None:
        """Reject (and re-queue) a malformed block before it poisons a job."""
        expected = task_shape(job.tasks[task_id])
        try:
            if not isinstance(block, dict):
                raise ValueError(f"block must be a dict, got {type(block).__name__}")
            for name in _TIMING_FIELDS:
                array = np.asarray(block[name])
                if array.shape != expected:
                    raise ValueError(
                        f"block array {name!r} has shape {array.shape}, "
                        f"expected {expected}"
                    )
            float(np.asarray(block["amdahl_bound"]))
        except (KeyError, TypeError, ValueError) as exc:
            job.states[task_id] = _PENDING
            self._leases.pop((job.job_id, task_id), None)
            self._queue.append((job.job_id, task_id))
            raise ServiceError(
                400, "bad-block",
                f"rejected block {task_id} of job {job.job_id}: {exc}",
            )

    async def _reap_expired_leases(self) -> None:
        """Re-queue expired leases; mark — then evict — dead workers.

        A worker whose lease expired is marked dead immediately; one
        that has not polled for several poll timeouts (idle workers
        re-poll every ``poll_timeout_s``) is evicted entirely, so a
        long-lived coordinator under worker churn does not accumulate
        registration records.  An evicted worker that was merely slow
        gets an ``unknown-worker`` response on its next call and
        re-registers transparently.
        """
        interval = max(0.05, self.lease_timeout_s / 4.0)
        stale_after = max(3.0 * self.poll_timeout_s, 3.0 * self.lease_timeout_s)
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for worker_id in [
                w_id for w_id, worker in self._workers.items()
                if now - worker.last_seen > stale_after
            ]:
                del self._workers[worker_id]
            expired = [
                (ref, worker_id)
                for ref, (worker_id, deadline, _start) in self._leases.items()
                if deadline <= now
            ]
            if not expired:
                continue
            for (job_id, task_id), worker_id in expired:
                del self._leases[(job_id, task_id)]
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.alive = False
                job = self._jobs.get(job_id)
                if job is not None and job.states[task_id] == _LEASED:
                    job.states[task_id] = _PENDING
                    self._queue.append((job_id, task_id))
                    self.blocks_releases += 1
            async with self._work_cond:
                self._work_cond.notify_all()

    # -- rolling restarts ----------------------------------------------------
    async def drain(self) -> Dict:
        """Start a rolling worker restart: retire the current generation.

        Bumps the coordinator's generation and wakes every long-polling
        worker: workers of the old generation get ``{stop: true,
        reason: "drained"}`` on their next lease poll and exit cleanly.
        Blocks they already hold are unaffected — a completion is
        accepted as long as the lease is still theirs, and a worker that
        dies instead of completing re-queues its blocks through the
        ordinary lease-expiry path — so an in-flight sweep finishes
        exactly, with no lost and no double-counted blocks.  Restarted
        ``repro worker`` processes re-register under the new generation
        and immediately start pulling the remaining work.
        """
        previous = self.generation
        self.generation += 1
        self.drains += 1
        draining = sum(
            1 for w in self._workers.values()
            if w.alive and w.generation == previous
        )
        if self._work_cond is not None:
            async with self._work_cond:
                self._work_cond.notify_all()
        return {
            "generation": self.generation,
            "previous_generation": previous,
            "draining_workers": draining,
            "leases_outstanding": len(self._leases),
            "jobs_inflight": len(self._jobs),
        }

    # -- HTTP adapter --------------------------------------------------------
    async def handle_http(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """Serve one ``/cluster/*`` request; returns (status, frame body).

        Mounted by :mod:`repro.service.http` next to the JSON endpoints;
        every response body is a binary frame (``FRAME_CONTENT_TYPE``).
        """
        try:
            if method == "GET" and path == "/cluster/stats":
                return 200, encode_message({"ok": True, "result": self.stats()})
            if method != "POST":
                raise ServiceError(
                    405, "method-not-allowed", f"{method} {path} not allowed"
                )
            payload = decode_message(body)
            if path == "/cluster/register":
                return 200, encode_message(self._register(payload))
            if path == "/cluster/lease":
                return 200, encode_message(await self._lease(payload))
            if path == "/cluster/complete":
                return 200, encode_message(await self._complete(payload))
            raise ServiceError(404, "unknown-endpoint", f"no endpoint {path!r}")
        except Exception as exc:  # every failure ships as a structured frame
            error = as_service_error(exc)
            return error.status, encode_message(error.to_payload())

    # -- introspection -------------------------------------------------------
    @property
    def n_alive_workers(self) -> int:
        return sum(w.alive for w in self._workers.values())

    @property
    def is_ready(self) -> bool:
        """Started and not shutting down (the /healthz readiness input)."""
        return self._loop is not None and not self._closing

    def stats(self) -> Dict:
        """Worker/lease/job counters (merged into ``/stats`` when mounted)."""
        return {
            "generation": self.generation,
            "drains": self.drains,
            "workers": {
                "registered": len(self._workers),
                "alive": self.n_alive_workers,
                "current_generation": sum(
                    w.alive and w.generation == self.generation
                    for w in self._workers.values()
                ),
                "blocks_completed": {
                    w.worker_id[:8]: w.blocks_completed
                    for w in self._workers.values()
                },
                "points_per_s": {
                    w.worker_id[:8]: w.points_per_s
                    for w in self._workers.values()
                    if w.points_per_s is not None
                },
                "mean_points_per_s": self.observed_points_per_s,
            },
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "inflight": len(self._jobs),
            },
            "blocks": {
                "dispatched": self.blocks_dispatched,
                "completed": self.blocks_completed,
                "releases": self.blocks_releases,
                "failed": self.blocks_failed,
                "stale_completions": self.stale_completions,
                "late_completions": self.late_completions,
                "queued": len(self._queue),
                "leased": len(self._leases),
            },
            "lease_timeout_s": self.lease_timeout_s,
        }


class ClusterBlockRunner:
    """Lease block tasks to a coordinator's workers.

    The cluster implementation of :func:`~repro.core.dse.run_plan`'s
    runner contract: ``evaluate(tasks, on_block)`` submits the tasks as
    one job from the calling thread and blocks until every block is
    back (in task order), relaying ``on_block(index, block)`` from the
    coordinator loop as blocks land.  :meth:`ShardCoordinator.
    sweep_blocking` runs sweeps through it, and the
    :class:`~repro.api.backends.DistributedBackend` hands one to the
    adaptive explorer.  ``timeout_s`` left unset falls back to the
    coordinator's ``sweep_timeout_s``.
    """

    def __init__(self, coordinator: ShardCoordinator,
                 ngpc: Optional[NGPCConfig] = None,
                 timeout_s=_UNSET_TIMEOUT):
        self.coordinator = coordinator
        self.ngpc = ngpc
        self.timeout_s = timeout_s

    def evaluate(self, tasks: List[Tuple], on_block=None) -> List[Tuple[Dict, bool]]:
        timeout_s = self.timeout_s
        if timeout_s is _UNSET_TIMEOUT:
            timeout_s = self.coordinator.sweep_timeout_s
        blocks = self.coordinator._call(lambda: self.coordinator.submit(
            tasks, ngpc=self.ngpc, timeout_s=timeout_s, on_block=on_block,
        ))
        return [(block, False) for block in blocks]
