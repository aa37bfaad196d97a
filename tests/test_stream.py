"""Streaming sweep results: partial fronts, long-poll, disconnects.

Covers the streaming result path end to end:

- :class:`PartialSweep` fronts are exact — at full coverage they are
  bit-identical to the dense :meth:`SweepResult.pareto_front`;
- ``SweepService.sweep_stream`` emits ordered progress/front/complete
  events whose final front matches the dense ``/pareto`` answer;
- ``Sweep.watch()`` streams refining fronts and leaves the handle
  holding the dense result (no second evaluation);
- ``/result?wait=`` long-polls: 202 with progress counters while the
  sweep runs, 200 with the full result once it lands;
- the request-body cap is configurable per server and violations get a
  structured 413 naming the limit;
- a client that disconnects mid-stream releases its subscription
  without disturbing the sweep or any other subscriber.
"""

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.core.dse import (
    SweepGrid,
    _TIMING_FIELDS,
    assemble_shard_blocks,
    finalize_sweep_result,
    shard_plan,
    sweep_grid,
    window_major,
)
from repro.core.emulator import emulate_batch
from repro.service import (
    ServiceError,
    SweepService,
    request_json,
    start_http_server,
)
from repro.service.client import SyncServiceClient
from repro.service.progress import PartialSweep

SCHEME = "multi_res_hashgrid"

GRID = SweepGrid(
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(1.0, 1.695),
    grid_sram_kb=(512, 1024),
)

GRID_JSON = {
    "schemes": [SCHEME],
    "scale_factors": [8, 16, 32, 64],
    "clocks_ghz": [1.0, 1.695],
    "grid_sram_kb": [512, 1024],
}


class BlockwiseSweep:
    """An injected ``sweep_fn`` that reports blocks through ``on_block``.

    Mirrors the service's own blockwise path but with a controllable
    per-block delay and a barrier hook, so tests can hold a sweep
    mid-flight while clients subscribe, disconnect, or long-poll.
    """

    def __init__(self, block_delay: float = 0.0, n_shards: int = 8):
        self.calls = 0
        self.block_delay = block_delay
        self.n_shards = n_shards
        self.first_block_done = threading.Event()
        self.release = threading.Event()
        self.release.set()  # default: run freely
        self._lock = threading.Lock()

    def __call__(self, grid, engine="vectorized", ngpc=None, on_block=None):
        with self._lock:
            self.calls += 1
        resolved = grid.resolve(ngpc)
        plan = window_major(shard_plan(resolved, self.n_shards))
        placed = []
        for placement, task in plan:
            if self.block_delay:
                time.sleep(self.block_delay)
            app, scheme, scales, pixels, clocks, srams, engines, batches = task
            raw = emulate_batch(
                app, scheme, scales, pixels, ngpc,
                clocks_ghz=clocks, grid_sram_kb=srams,
                n_engines=engines, n_batches=batches,
            )
            block = {name: raw[name] for name in _TIMING_FIELDS}
            block["amdahl_bound"] = raw["amdahl_bound"]
            placed.append((placement, block))
            if on_block is not None:
                on_block(placement, block)
            self.first_block_done.set()
            self.release.wait(timeout=30.0)
        return finalize_sweep_result(
            resolved, "vectorized", ngpc,
            assemble_shard_blocks(resolved, placed),
        )


# ---------------------------------------------------------------------------
# PartialSweep: exactness
# ---------------------------------------------------------------------------


class TestPartialSweep:
    def test_full_coverage_front_is_bit_identical_to_dense(self):
        resolved = GRID.resolve()
        dense = sweep_grid(resolved, engine="vectorized", use_cache=False)
        partial = PartialSweep(resolved, None)
        for placement, task in window_major(shard_plan(resolved, 8)):
            app, scheme, scales, pixels, clocks, srams, engines, batches = task
            raw = emulate_batch(app, scheme, scales, pixels, None,
                                clocks_ghz=clocks, grid_sram_kb=srams,
                                n_engines=engines, n_batches=batches)
            partial.record(
                placement, {name: raw[name] for name in _TIMING_FIELDS}
            )
        for app in (None, "nerf"):
            streamed = [
                p.to_dict()
                for p in partial.pareto_front(SCHEME, app=app)
            ]
            reference = [
                p.to_dict()
                for p in dense.pareto_front(SCHEME, app=app)
            ]
            assert streamed == reference

    def test_fronts_refine_monotonically_in_coverage(self):
        resolved = GRID.resolve()
        partial = PartialSweep(resolved, None)
        assert partial.pareto_front(SCHEME) == []
        plan = window_major(shard_plan(resolved, 8))
        n_pairs = len(resolved.apps) * len(resolved.schemes)
        covered = 0
        for i, (placement, task) in enumerate(plan):
            app, scheme, scales, pixels, clocks, srams, engines, batches = task
            raw = emulate_batch(app, scheme, scales, pixels, None,
                                clocks_ghz=clocks, grid_sram_kb=srams,
                                n_engines=engines, n_batches=batches)
            covered += partial.record(
                placement, {name: raw[name] for name in _TIMING_FIELDS}
            )
            front = partial.pareto_front(SCHEME)
            if i + 1 >= n_pairs:
                # one full window of (app, scheme) pairs -> candidates
                assert front, f"no front after {i + 1} blocks"
        assert covered == resolved.size

    def test_selector_validation(self):
        partial = PartialSweep(GRID.resolve(), None)
        with pytest.raises(Exception):
            partial.validate_selectors("not-a-scheme")
        with pytest.raises(Exception):
            partial.validate_selectors(SCHEME, app="not-an-app")


# ---------------------------------------------------------------------------
# SweepService.sweep_stream: event protocol
# ---------------------------------------------------------------------------


class TestSweepStream:
    def collect(self, service, grid):
        async def run():
            events = []
            async for event in service.sweep_stream(grid):
                events.append(event)
            return events

        return asyncio.run(run())

    def test_event_order_and_final_front_matches_dense(self):
        service = SweepService()
        events = self.collect(service, GRID_JSON)
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "complete"
        assert "front" in kinds and "progress" in kinds
        # progress counters are monotone and end at the grid size
        done = [e["points_done"] for e in events if e["event"] == "progress"]
        assert done == sorted(done)
        assert done[-1] == GRID.resolve().size
        # the last front event is flagged final and matches /pareto
        fronts = [e for e in events if e["event"] == "front"]
        assert fronts[-1]["final"]
        assert all(not f["final"] for f in fronts[:-1])

        async def dense():
            return await service.pareto_front(GRID_JSON)

        assert fronts[-1]["points"] == [
            p.to_dict() for p in asyncio.run(dense())
        ]

    def test_cached_sweep_streams_terminal_events_only(self):
        service = SweepService()
        self.collect(service, GRID_JSON)
        again = self.collect(service, GRID_JSON)
        kinds = [e["event"] for e in again]
        assert kinds == ["progress", "front", "complete"]
        assert again[-1]["cached"]
        assert service.evaluations == 1

    def test_two_subscribers_one_evaluation(self):
        counting = BlockwiseSweep()
        service = SweepService(sweep_fn=counting)

        async def run():
            async def drain():
                return [e async for e in service.sweep_stream(GRID_JSON)]

            return await asyncio.gather(drain(), drain())

        first, second = asyncio.run(run())
        assert counting.calls == 1
        assert [e["event"] for e in first][-1] == "complete"
        assert [e["event"] for e in second][-1] == "complete"

    def test_bad_selector_raises_before_any_event(self):
        # pre-stream validation raises the structured error directly:
        # the HTTP layer ships it as an ordinary JSON error response
        # instead of opening a chunked stream
        service = SweepService()

        async def run():
            return [
                e async for e in service.sweep_stream(GRID_JSON, app="nope")
            ]

        with pytest.raises(ServiceError) as err:
            asyncio.run(run())
        assert err.value.status == 404


# ---------------------------------------------------------------------------
# Session.sweep(lazy=True) + Sweep.watch()
# ---------------------------------------------------------------------------


class TestWatch:
    def test_watch_refines_and_captures_dense_result(self):
        session = Session.local(engine="vectorized")
        sweep = session.sweep(GRID, lazy=True)
        fronts = list(sweep.watch(scheme=SCHEME))
        assert fronts, "watch yielded nothing"
        dense = sweep_grid(GRID.resolve().normalized(), engine="vectorized",
                           use_cache=False)
        final = [p.to_dict() for p in fronts[-1]]
        reference = [p.to_dict() for p in dense.pareto_front(SCHEME)]
        assert final == reference
        # the handle now holds the dense result: queries are local
        assert sweep.result is not None
        assert [p.to_dict() for p in sweep.pareto(scheme=SCHEME)] == reference

    def test_watch_on_evaluated_sweep_yields_once(self):
        session = Session.local(engine="vectorized")
        sweep = session.sweep(GRID)
        fronts = list(sweep.watch(scheme=SCHEME))
        assert len(fronts) == 1

    def test_closed_local_stream_stops_evaluating(self, monkeypatch):
        """The local stream evaluates on a helper thread: closing the
        generator stops that evaluation after the block in flight —
        nothing more is evaluated, nothing lands in the memo — and leaves
        no thread behind."""
        from repro.api.backends import LocalBackend
        from repro.core.dse import _SWEEP_CACHE, stream_plan, sweep_fingerprint

        calls = []

        def held(*args, **kwargs):
            # hold every block after the first, so the consumer's close
            # lands while the second block is in flight
            calls.append(1)
            if len(calls) > 1:
                time.sleep(1.0)
            return emulate_batch(*args, **kwargs)

        monkeypatch.setattr("repro.core.dse.emulate_batch", held)
        grid = SweepGrid(
            schemes=(SCHEME,), scale_factors=(8, 16, 32, 64),
            clocks_ghz=(0.9, 1.1, 1.3, 1.5), grid_sram_kb=(256, 512, 1024),
            n_batches=(4, 8, 16, 32),
        ).resolve()
        assert len(stream_plan(grid)) > 2
        backend = LocalBackend(engine="vectorized")
        stream = backend.stream_events(grid, scheme=SCHEME)
        assert next(stream)["event"] == "progress"
        stream.close()
        assert len(calls) == 2
        assert not any(
            t.name == "repro-local-stream" for t in threading.enumerate()
        )
        key = (grid, "vectorized", sweep_fingerprint(grid))
        assert _SWEEP_CACHE.get(key) is None

    def test_local_stream_reraises_evaluation_errors(self, monkeypatch):
        from repro.api.backends import LocalBackend

        def broken(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr("repro.core.dse.emulate_batch", broken)
        backend = LocalBackend(engine="vectorized", use_cache=False)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            list(backend.stream_events(GRID, scheme=SCHEME))


# ---------------------------------------------------------------------------
# /result?wait= long-poll over real HTTP
# ---------------------------------------------------------------------------


class TestResultLongPoll:
    def test_202_with_progress_then_200_with_result(self):
        slow = BlockwiseSweep(block_delay=0.05)
        service = SweepService(sweep_fn=slow)

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            port = server.port
            try:
                pending = await asyncio.to_thread(
                    request_json, "127.0.0.1", port, "POST",
                    "/result?wait=0.01", {"grid": GRID_JSON},
                )
                finished = await asyncio.to_thread(
                    request_json, "127.0.0.1", port, "POST",
                    "/result?wait=30", {"grid": GRID_JSON},
                )
            finally:
                await server.close()
            return pending, finished

        (status_p, body_p), (status_f, body_f) = asyncio.run(run())
        assert status_p == 202
        assert body_p["ok"] and body_p["pending"]
        progress = body_p["progress"]
        assert progress["points_total"] == GRID.resolve().size
        assert not progress["done"]
        assert status_f == 200
        assert body_f["ok"] and "result" in body_f
        assert slow.calls == 1  # the long-poll joined the same evaluation

    def test_bad_wait_value_is_structured_400(self):
        service = SweepService()

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            try:
                return await asyncio.to_thread(
                    request_json, "127.0.0.1", server.port, "POST",
                    "/result?wait=forever", {"grid": GRID_JSON},
                )
            finally:
                await server.close()

        status, body = asyncio.run(run())
        assert status == 400
        assert not body["ok"]


# ---------------------------------------------------------------------------
# configurable request-body cap (structured 413)
# ---------------------------------------------------------------------------


class TestBodyCap:
    def test_oversized_body_is_structured_413(self):
        service = SweepService()

        async def run():
            server = await start_http_server(
                service, "127.0.0.1", 0, max_body_bytes=256
            )
            try:
                return await asyncio.to_thread(
                    request_json, "127.0.0.1", server.port, "POST", "/sweep",
                    {"grid": GRID_JSON, "padding": "x" * 2048},
                )
            finally:
                await server.close()

        status, body = asyncio.run(run())
        assert status == 413
        assert body["error"]["code"] == "payload-too-large"
        assert body["error"]["limit_bytes"] == 256
        assert body["error"]["content_length"] > 256

    def test_default_cap_accepts_ordinary_bodies(self):
        service = SweepService()

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            try:
                return await asyncio.to_thread(
                    request_json, "127.0.0.1", server.port, "POST", "/sweep",
                    {"grid": GRID_JSON},
                )
            finally:
                await server.close()

        status, body = asyncio.run(run())
        assert status == 200 and body["ok"]


# ---------------------------------------------------------------------------
# mid-stream disconnect
# ---------------------------------------------------------------------------


class TestMidStreamDisconnect:
    def test_disconnect_releases_subscription_and_sweep_survives(self):
        slow = BlockwiseSweep(block_delay=0.0)
        slow.release.clear()  # hold the sweep after its first block
        service = SweepService(sweep_fn=slow)

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            port = server.port
            try:
                survivor = SyncServiceClient("127.0.0.1", port)
                quitter = SyncServiceClient("127.0.0.1", port)

                def survive():
                    events = list(survivor.stream_pareto(GRID_JSON))
                    survivor.close()
                    return events

                def quit_early():
                    stream = quitter.stream_pareto(GRID_JSON)
                    first = next(stream)
                    stream.close()  # drops the TCP connection mid-stream
                    quitter.close()
                    return first

                survivor_task = asyncio.ensure_future(
                    asyncio.to_thread(survive)
                )
                await asyncio.to_thread(
                    slow.first_block_done.wait, 10.0
                )
                first = await asyncio.to_thread(quit_early)
                # server notices the dropped connection and releases the
                # quitter's subscription while the sweep is still running
                key = None
                for _ in range(200):
                    stats = service.stats()
                    subs = [
                        p["subscribers"]
                        for p in stats["progress"].values()
                    ]
                    if subs == [1]:
                        break
                    await asyncio.sleep(0.02)
                else:
                    raise AssertionError(
                        f"subscription not released: {stats['progress']}"
                    )
                slow.release.set()  # let the sweep finish
                events = await survivor_task
                return first, events
            finally:
                await server.close()

        first, events = asyncio.run(run())
        assert first["event"] in ("progress", "front")
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "complete"
        assert slow.calls == 1  # the sweep ran exactly once, to completion
        # final front matches a dense evaluation of the same grid
        fronts = [e for e in events if e["event"] == "front"]
        dense = sweep_grid(
            SweepGrid(**{k: tuple(v) for k, v in GRID_JSON.items()})
            .resolve().normalized(),
            engine="vectorized", use_cache=False,
        )
        assert fronts[-1]["points"] == [
            p.to_dict() for p in dense.pareto_front(SCHEME)
        ]
