"""End-to-end harness for the distributed multi-host sweep backend.

The acceptance surface of the shard cluster:

- **Parity**: a sweep distributed over real worker subprocesses is
  bit-identical to the vectorized local evaluation (the blocks are the
  same contiguous vectorized tasks, pickled float64 round-trips
  exactly).
- **Fault tolerance**: SIGKILLing a worker mid-sweep re-leases its
  blocks after the lease timeout and the sweep still completes with
  correct numbers.
- **Cross-client coalescing**: two HTTP clients issuing the same sweep
  against one coordinator-serving instance share a single distributed
  evaluation (the service's single-flight keying sits in front of the
  cluster).
- **Lifecycle**: workers register/lease over the CLI protocol, idle
  workers exit on their own, `close()` reaps every spawned process, and
  a closed backend fails structured.

Worker subprocesses are real ``python -m repro worker`` processes, so
these tests cover the CLI entry point and the wire protocol end to end.
"""

import asyncio
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import DistributedBackend, Session, SweepGrid
from repro.errors import BackendUnavailableError, ReproError
from repro.gpu.baseline import FHD_PIXELS

RTOL = 1e-9

CLUSTER_GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)


def _submit_plan(coordinator, grid):
    """Queue ``grid``'s shard plan as one job (call on the loop).

    Returns ``(plan, job)``; the job resolves to the blocks in plan
    order, which :func:`_assemble` scatters into dense arrays.
    """
    plan = coordinator._plan(grid.resolve())
    job = asyncio.ensure_future(
        coordinator.submit([task for _, task in plan])
    )
    return plan, job


def _assemble(grid, plan, blocks):
    from repro.core.dse import assemble_shard_blocks

    return assemble_shard_blocks(
        grid.resolve(),
        [(placement, block) for (placement, _), block in zip(plan, blocks)],
    )


@pytest.fixture(scope="module")
def cluster_backend():
    """One live 2-worker cluster shared by the read-only tests."""
    backend = DistributedBackend(workers=2)
    yield backend
    backend.close()


class TestDistributedParity:
    def test_sweep_matches_vectorized_bit_for_bit(self, cluster_backend):
        distributed = cluster_backend.sweep(CLUSTER_GRID.resolve().normalized())
        local = Session.local(engine="vectorized").sweep(CLUSTER_GRID).result
        assert distributed.engine == "cluster"
        for name in ("baseline_ms", "accelerated_ms", "amdahl_bound",
                     "area_overhead_pct", "power_overhead_pct"):
            np.testing.assert_allclose(
                getattr(distributed, name), getattr(local, name),
                rtol=RTOL, atol=0.0,
            )
            # pickled float64 blocks round-trip exactly
            np.testing.assert_array_equal(
                getattr(distributed, name), getattr(local, name)
            )

    def test_scalar_point_runs_on_the_workers(self, cluster_backend):
        point = cluster_backend.point(
            "nerf", "multi_res_hashgrid", 8, FHD_PIXELS
        )
        local = Session.local(engine="vectorized").point(
            app="nerf", scheme="multi_res_hashgrid",
            scale_factor=8, n_pixels=FHD_PIXELS,
        )
        assert point.accelerated_ms == pytest.approx(
            local.accelerated_ms, rel=RTOL
        )
        assert point.amdahl_bound == pytest.approx(local.amdahl_bound, rel=RTOL)

    def test_work_is_actually_distributed(self, cluster_backend):
        cluster_backend.sweep(CLUSTER_GRID)
        stats = cluster_backend.stats()
        cluster = stats["cluster"]
        assert stats["backend"] == "distributed"
        assert cluster["workers"]["registered"] >= 2
        assert cluster["blocks"]["completed"] >= 2
        # more than one worker completed blocks (2 blocks per worker
        # planned, pull-based: an idle pool would starve one worker)
        per_worker = cluster["workers"]["blocks_completed"]
        assert sum(1 for n in per_worker.values() if n > 0) >= 2

    def test_health_reports_alive_workers(self, cluster_backend):
        health = cluster_backend.health()
        assert health["ok"] is True
        assert health["backend"] == "distributed"
        assert health["workers_alive"] >= 2


class TestCrossClientCoalescing:
    def test_identical_sweeps_from_two_clients_share_one_evaluation(
        self, cluster_backend
    ):
        """The 'coalesce across hosts' bar: one distributed evaluation."""
        from repro.service.client import SyncServiceClient

        grid = SweepGrid(
            apps=("nsdf",),
            scale_factors=(8, 16, 32, 64),
            clocks_ghz=(0.7, 1.0, 1.3),
            n_engines=(8, 16),
        ).to_dict()
        before = cluster_backend.service.evaluations
        results = []

        def query():
            with SyncServiceClient(port=cluster_backend.port) as client:
                results.append(client.result_payload(grid))

        threads = [threading.Thread(target=query) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 4
        assert cluster_backend.service.evaluations == before + 1
        first = results[0]
        assert all(r["accelerated_ms"] == first["accelerated_ms"]
                   for r in results[1:])


class TestFaultTolerance:
    def test_killed_worker_blocks_are_re_leased_and_sweep_completes(self):
        """SIGKILL one of two workers mid-sweep: the sweep still finishes."""
        backend = DistributedBackend(
            workers=2, lease_timeout_s=1.0, block_delay_s=0.4
        )
        try:
            holder = {}
            thread = threading.Thread(
                target=lambda: holder.update(
                    result=backend.sweep(CLUSTER_GRID.resolve().normalized())
                )
            )
            thread.start()
            time.sleep(0.3)  # both workers now hold leased blocks
            victim = backend._workers[0]
            victim.send_signal(signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive(), "sweep did not complete after kill"
            local = Session.local(engine="vectorized").sweep(CLUSTER_GRID).result
            np.testing.assert_allclose(
                holder["result"].accelerated_ms, local.accelerated_ms,
                rtol=RTOL, atol=0.0,
            )
            stats = backend.coordinator.stats()
            assert stats["blocks"]["releases"] >= 1, stats
            assert stats["jobs"]["completed"] == 1
            assert backend.coordinator.n_alive_workers == 1
        finally:
            backend.close()

    def test_sweep_without_any_worker_times_out_structured(self):
        backend = DistributedBackend(workers=0, sweep_timeout_s=0.5)
        try:
            with pytest.raises(BackendUnavailableError, match="workers alive"):
                backend.sweep(SweepGrid(apps=("nerf",), scale_factors=(8,)))
        finally:
            backend.close()

    def test_worker_spawn_failure_is_structured(self, monkeypatch):
        def no_spawn(host, port, n, **kw):
            import subprocess
            import sys

            return [subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])]

        monkeypatch.setattr(
            "repro.service.cluster.spawn_local_workers", no_spawn
        )
        with pytest.raises(BackendUnavailableError, match="registered"):
            DistributedBackend(workers=1, ready_timeout_s=5.0)


class TestLifecycle:
    def test_close_terminates_workers_and_later_calls_fail_structured(self):
        backend = DistributedBackend(workers=1)
        workers = list(backend._workers)
        backend.sweep(SweepGrid(apps=("nerf",), scale_factors=(8,)))
        backend.close()
        assert all(p.poll() is not None for p in workers)
        with pytest.raises(BackendUnavailableError):
            backend.sweep(SweepGrid(apps=("nerf",), scale_factors=(8,)))
        assert backend.health()["ok"] is False
        backend.close()  # idempotent

    def test_session_facade_wraps_the_distributed_backend(self):
        with Session.distributed(workers=1) as session:
            sweep = session.sweep(SweepGrid(apps=("gia",), scale_factors=(8, 64)))
            assert sweep.backend == "distributed"
            assert sweep.result.engine == "cluster"
            front = sweep.pareto()
            assert front and all(isinstance(p.scale_factor, int) for p in front)

    def test_idle_worker_exits_and_stop_is_clean(self):
        """An in-thread worker against a fast-poll coordinator."""
        from repro.service import SweepService, start_http_server
        from repro.service.cluster import ShardCoordinator, run_worker

        started = threading.Event()
        holder = {}

        def serve():
            async def main():
                coordinator = ShardCoordinator(poll_timeout_s=0.2)
                service = SweepService(
                    engine="cluster", sweep_fn=coordinator.sweep_fn
                )
                server = await start_http_server(
                    service, "127.0.0.1", 0, cluster=coordinator
                )
                holder["port"] = server.port
                holder["stop"] = asyncio.Event()
                holder["loop"] = asyncio.get_running_loop()
                started.set()
                await holder["stop"].wait()
                await server.close()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            messages = []
            code = run_worker(
                "127.0.0.1", holder["port"], max_idle_s=0.3,
                log=lambda msg, **kw: messages.append(msg),
            )
            assert code == 0
            assert any("registered" in m for m in messages)
            assert any("idle" in m for m in messages)
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_unmounted_cluster_endpoint_is_a_structured_404(self):
        """A plain (non-cluster) server rejects /cluster/* requests."""
        from repro.service import SweepService, start_http_server
        from repro.service.client import ServiceClient
        from repro.service.errors import ServiceError

        async def run():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            client = ServiceClient("127.0.0.1", server.port)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await client.request("POST", "/cluster/register", {})
                return excinfo.value
            finally:
                await client.close()
                await server.close()

        error = asyncio.run(run())
        assert error.status == 404
        assert error.code == "no-cluster"


class TestRejectedBlocks:
    def test_malformed_block_is_requeued_and_wakes_idle_pollers(self):
        """A shape-drifted completion must not stall the sweep: the block
        goes back on the queue and parked long-pollers wake immediately
        (not after their poll timeout)."""
        from repro.core.dse import evaluate_block
        from repro.service.cluster import ShardCoordinator
        from repro.service.errors import ServiceError

        grid = SweepGrid(apps=("nerf",), scale_factors=(8, 16))

        async def run():
            # long poll_timeout: if the wake-on-requeue notify were
            # missing, the second poller would stall the whole test
            coordinator = ShardCoordinator(poll_timeout_s=30.0)
            await coordinator.start()
            good = coordinator._register({})["worker_id"]
            bad = coordinator._register({})["worker_id"]
            plan, job = _submit_plan(coordinator, grid)
            await asyncio.sleep(0)
            lease = await coordinator._lease({"worker_id": bad})
            with pytest.raises(ServiceError, match="rejected block"):
                arrays = evaluate_block(lease["task"])
                del arrays["accelerated_ms"]  # schema drift
                await coordinator._complete({
                    "worker_id": bad, "job_id": lease["job_id"],
                    "task_id": lease["task_id"], "arrays": arrays,
                })
            # the good worker drains the queue — including the re-queued
            # block — well inside the 30 s poll timeout
            async def drain():
                while not job.done():
                    lease = await coordinator._lease({"worker_id": good})
                    if "task" not in lease:
                        continue
                    await coordinator._complete({
                        "worker_id": good, "job_id": lease["job_id"],
                        "task_id": lease["task_id"],
                        "arrays": evaluate_block(lease["task"]),
                    })
            drainer = asyncio.ensure_future(drain())
            blocks = await asyncio.wait_for(job, timeout=10.0)
            drainer.cancel()
            try:
                await drainer
            except asyncio.CancelledError:
                pass
            await coordinator.close()
            return _assemble(grid, plan, blocks), coordinator.stats()

        arrays, stats = asyncio.run(run())
        assert stats["jobs"]["completed"] == 1
        local = Session.local(engine="vectorized").sweep(grid).result
        np.testing.assert_array_equal(
            arrays["accelerated_ms"], local.accelerated_ms
        )


class TestLateCompletions:
    def test_late_completion_after_release_is_a_counted_noop(self):
        """A worker whose lease expired and was re-leased elsewhere must
        not double-count the block, clobber the new holder's lease, or —
        for a late *error* report — poison the job.  Both late shapes are
        counted no-ops (``late_completions``); the current holder wins."""
        from repro.core.dse import evaluate_block
        from repro.service.cluster import ShardCoordinator

        grid = SweepGrid(apps=("nerf",), scale_factors=(8,))

        async def run():
            coordinator = ShardCoordinator(
                lease_timeout_s=0.2, poll_timeout_s=5.0
            )
            await coordinator.start()
            slow = coordinator._register({})["worker_id"]
            fast = coordinator._register({})["worker_id"]
            plan, job = _submit_plan(coordinator, grid)
            await asyncio.sleep(0)

            # the slow worker takes the (single) block, then stalls past
            # the lease timeout; the reaper re-queues the block
            stalled = await coordinator._lease({"worker_id": slow})
            assert "task" in stalled
            arrays = evaluate_block(stalled["task"])
            deadline = asyncio.get_running_loop().time() + 5.0
            release = None
            while release is None or "task" not in release:
                assert asyncio.get_running_loop().time() < deadline, \
                    "reaper never re-queued the expired lease"
                release = await coordinator._lease({"worker_id": fast})
            assert release["task_id"] == stalled["task_id"]

            # the slow worker's result arrives late: counted no-op, the
            # fast worker's fresh lease stays intact
            reply = await coordinator._complete({
                "worker_id": slow, "job_id": stalled["job_id"],
                "task_id": stalled["task_id"], "arrays": arrays,
            })
            assert reply == {"ok": True, "accepted": False}
            assert coordinator.late_completions == 1
            assert not job.done()

            # a late *error* report is gated identically — it must not
            # fail the job the new lease holder is still evaluating
            reply = await coordinator._complete({
                "worker_id": slow, "job_id": stalled["job_id"],
                "task_id": stalled["task_id"],
                "error": "worker preempted mid-block",
            })
            assert reply == {"ok": True, "accepted": False}
            assert coordinator.late_completions == 2
            assert not job.done()

            # the holder's completion wins and finishes the job
            reply = await coordinator._complete({
                "worker_id": fast, "job_id": release["job_id"],
                "task_id": release["task_id"],
                "arrays": evaluate_block(release["task"]),
            })
            assert reply["accepted"] is True
            blocks = await asyncio.wait_for(job, timeout=10.0)
            stats = coordinator.stats()
            await coordinator.close()
            return _assemble(grid, plan, blocks), stats

        arrays, stats = asyncio.run(run())
        blocks = stats["blocks"]
        assert blocks["late_completions"] == 2
        assert blocks["completed"] == 1
        assert blocks["failed"] == 0
        assert stats["jobs"]["completed"] == 1
        local = Session.local(engine="vectorized").sweep(grid).result
        np.testing.assert_array_equal(
            arrays["accelerated_ms"], local.accelerated_ms
        )


class TestCompletionReferences:
    @pytest.mark.parametrize("field", ("task_id", "job_id"))
    def test_out_of_range_reference_is_a_structured_400(self, field):
        """A completion naming no block of the job (``-1``, one past the
        end, ``None``) is rejected with a structured 400 before it can
        mark a block done, skip the lease gate or break the job — and the
        job still finishes bit-identically afterwards."""
        from repro.core.dse import evaluate_block, shard_plan
        from repro.service.cluster import ShardCoordinator
        from repro.transport import decode_message, encode_message

        grid = SweepGrid(apps=("nerf",), scale_factors=(8, 16)).resolve()
        plan = shard_plan(grid, 2)
        tasks = [task for _, task in plan]
        assert len(tasks) == 2

        async def run():
            coordinator = ShardCoordinator(poll_timeout_s=1.0)
            await coordinator.start()
            worker = coordinator._register({})["worker_id"]
            job = asyncio.ensure_future(coordinator.submit(tasks))
            await asyncio.sleep(0)
            lease = await coordinator._lease({"worker_id": worker})
            arrays = evaluate_block(lease["task"])
            rejected = []
            for bad in (-1, len(tasks), None):
                completion = {
                    "worker_id": worker, "job_id": lease["job_id"],
                    "task_id": lease["task_id"], "arrays": arrays,
                }
                completion[field] = bad
                status, body = await coordinator.handle_http(
                    "POST", "/cluster/complete", encode_message(completion)
                )
                rejected.append((status, decode_message(body)))
            stats = coordinator.stats()
            # the genuine completions still land and finish the job
            while not job.done():
                lease = await coordinator._lease({"worker_id": worker})
                if "task" not in lease:
                    continue
                reply = await coordinator._complete({
                    "worker_id": worker, "job_id": lease["job_id"],
                    "task_id": lease["task_id"],
                    "arrays": evaluate_block(lease["task"]),
                })
                assert reply == {"ok": True, "accepted": True}
            blocks = await asyncio.wait_for(job, timeout=10.0)
            final = coordinator.stats()
            await coordinator.close()
            return rejected, stats, blocks, final

        rejected, stats, blocks, final = asyncio.run(run())
        for status, body in rejected:
            assert status == 400, body
            assert body["ok"] is False
            assert body["error"]["code"] == "bad-completion"
        assert stats["blocks"]["completed"] == 0
        assert stats["blocks"]["stale_completions"] == 0
        assert stats["blocks"]["late_completions"] == 0
        assert final["blocks"]["completed"] == 2
        assert final["jobs"]["completed"] == 1
        for task, block in zip(tasks, blocks):
            expected = evaluate_block(task)
            for name, array in expected.items():
                np.testing.assert_array_equal(block[name], array)


class TestWorkerReportedFailures:
    def test_worker_reported_failure_fails_the_job_structured(self):
        """A worker that cannot evaluate a block (version skew) reports
        the error; the job fails structured instead of re-leasing the
        poison block until the sweep timeout."""
        from repro.service.cluster import ShardCoordinator
        from repro.service.errors import ServiceError

        async def run():
            coordinator = ShardCoordinator(poll_timeout_s=1.0)
            await coordinator.start()
            worker = coordinator._register({})["worker_id"]
            _, job = _submit_plan(
                coordinator, SweepGrid(apps=("nerf",), scale_factors=(8,))
            )
            await asyncio.sleep(0)
            lease = await coordinator._lease({"worker_id": worker})
            reply = await coordinator._complete({
                "worker_id": worker, "job_id": lease["job_id"],
                "task_id": lease["task_id"],
                "error": "TypeError: unknown task field",
            })
            assert reply["accepted"]
            with pytest.raises(ServiceError, match="failed block"):
                await job
            stats = coordinator.stats()
            await coordinator.close()
            return stats

        stats = asyncio.run(run())
        assert stats["blocks"]["failed"] == 1
        assert stats["jobs"]["inflight"] == 0


class TestShardPlanning:
    def test_coordinator_caps_block_payload_size(self):
        from repro.service.cluster.coordinator import MAX_BLOCK_BYTES
        from repro.service.cluster import ShardCoordinator
        from repro.core.dse import _TIMING_FIELDS, task_shape

        coordinator = ShardCoordinator()
        grid = SweepGrid(
            scale_factors=(8, 16, 32, 64),
            pixel_counts=tuple(range(100_000, 1_700_000, 12_500)),
            clocks_ghz=(0.8, 1.0, 1.2, 1.695),
            grid_sram_kb=(256, 512, 1024, 2048),
            n_engines=(4, 8, 16, 32),
        ).resolve()
        plan = coordinator._plan(grid)
        point_bytes = 8 * len(_TIMING_FIELDS)
        for _, task in plan:
            block_points = int(np.prod(task_shape(task)))
            assert block_points * point_bytes <= MAX_BLOCK_BYTES

    def test_plan_covers_the_grid_exactly_once(self):
        from repro.service.cluster import ShardCoordinator

        coordinator = ShardCoordinator()
        grid = CLUSTER_GRID.resolve()
        covered = np.zeros(grid.shape, dtype=int)
        for (i, j, windows), _ in coordinator._plan(grid):
            covered[(i, j) + tuple(slice(lo, hi) for lo, hi in windows)] += 1
        assert covered.min() == covered.max() == 1


class TestErrorParity:
    def test_ambiguous_axis_and_not_on_grid_are_repro_errors(
        self, cluster_backend
    ):
        from repro.core.dse import AmbiguousAxisError
        from repro.errors import NotOnGridError

        session = Session(cluster_backend)
        sweep = session.sweep(CLUSTER_GRID)
        with pytest.raises(AmbiguousAxisError) as ambiguous:
            sweep.point(app="nerf", scale_factor=8)
        assert ambiguous.value.axis == "clock_ghz"
        assert isinstance(ambiguous.value, ReproError)
        with pytest.raises(NotOnGridError, match="scale_factor=12"):
            sweep.point(app="nerf", scale_factor=12, clock_ghz=0.8,
                        grid_sram_kb=512, n_batches=8)
