"""Streaming sweep results: partial fronts, long-poll, disconnects.

Covers the streaming result path end to end:

- :class:`PartialSweep` fronts are exact — at full coverage they are
  bit-identical to the dense :meth:`SweepResult.pareto_front`, and
  every streamed front equals an independent unreduced front over the
  landed cells;
- every plan cuts each (app, scheme) pair into the same disjoint,
  covering windows, which a partial sweep's window completeness
  relies on;
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
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import Session
from repro.core.dse import (
    SweepGrid,
    _TIMING_FIELDS,
    assemble_shard_blocks,
    evaluate_block,
    finalize_sweep_result,
    pareto_front,
    shard_plan,
    store_block_plan,
    stream_plan,
    sweep_grid,
    task_shape,
    validate_selectors,
)
from repro.core.emulator import emulate_batch, emulate_batch_columns
from repro.errors import NotOnGridError
from repro.service import (
    SweepService,
    request_json,
    start_http_server,
)
from repro.service.client import SyncServiceClient
from repro.service.progress import PartialSweep, SweepProgress, progress_events

SCHEME = "multi_res_hashgrid"

GRID = SweepGrid(
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(1.0, 1.695),
    grid_sram_kb=(512, 1024),
)

#: a grid sweeping two of the hash-grid encoding axes: its partial
#: fronts slice the trailing (gridtype, log2_hashmap_size,
#: per_level_scale) array axes
EXTENDED_GRID = SweepGrid(
    apps=("nerf", "gia"),
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32),
    clocks_ghz=(0.8, 1.2),
    gridtypes=("hash", "tiled"),
    log2_hashmap_sizes=(14, 19),
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
        plan = shard_plan(resolved, self.n_shards)
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
        for placement, task in shard_plan(resolved, 8):
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
        plan = shard_plan(resolved, 8)
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

    @pytest.mark.parametrize("grid, encoding", [
        (GRID, {}),
        (EXTENDED_GRID, {"gridtype": "hash", "log2_hashmap_size": 19}),
        (EXTENDED_GRID, {"gridtype": "tiled", "log2_hashmap_size": 14}),
    ], ids=["seed", "extended-hash-19", "extended-tiled-14"])
    def test_every_partial_front_is_the_restricted_dense_front(
        self, grid, encoding
    ):
        """After each block: the front over the fully evaluated cells."""
        resolved = grid.resolve()
        dense = sweep_grid(resolved, engine="vectorized", use_cache=False)
        partial = PartialSweep(resolved, None)
        covered = np.zeros(resolved.shape, dtype=bool)
        for placement, task in shard_plan(resolved, 8):
            partial.record(placement, evaluate_block(task))
            i, j, windows = placement
            covered[(i, j) + tuple(slice(lo, hi) for lo, hi in windows)] = True
            for app in (None, "gia"):
                streamed = [
                    (p.scale_factor, p.area_overhead_pct,
                     p.power_overhead_pct, p.speedups)
                    for p in partial.pareto_front(SCHEME, app=app, **encoding)
                ]
                assert streamed == _restricted_front(
                    dense, covered, app, encoding
                )
        assert covered.all()

    def test_selector_validation(self):
        partial = PartialSweep(GRID.resolve(), None)
        with pytest.raises(NotOnGridError):
            validate_selectors(partial.grid, "not-a-scheme")
        with pytest.raises(NotOnGridError):
            validate_selectors(partial.grid, SCHEME, app="not-an-app")


#: a grid whose longest axis is the batch axis, so stream blocks split
#: every cost cell's batches across blocks
BATCH_GRID = SweepGrid(
    apps=("nerf", "gia", "nsdf"),
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32),
    clocks_ghz=(1.0, 1.695),
    n_batches=(1, 2, 4, 8, 16, 32, 64),
)


#: clock is free in area, so cells differing only in clock tie on cost
TIE_GRID = SweepGrid(
    apps=("nerf", "gia"),
    schemes=(SCHEME,),
    scale_factors=(8, 16),
    clocks_ghz=(0.8, 1.0, 1.2),
    n_batches=(1, 2, 4, 8),
)


class TestIncrementalFronts:
    @pytest.mark.parametrize("grid, encoding", [
        (GRID, {}),
        (BATCH_GRID, {}),
        (EXTENDED_GRID, {"gridtype": "tiled", "log2_hashmap_size": 19}),
    ], ids=["seed", "split-batches", "extended-tiled-19"])
    @pytest.mark.parametrize("app", [None, "nerf"])
    @pytest.mark.parametrize("n_blocks", [8, 40])
    def test_every_streamed_front_is_the_partial_front_of_its_prefix(
        self, grid, encoding, app, n_blocks
    ):
        """The merged front a stream emits after each block is
        :meth:`PartialSweep.pareto_front` over the same blocks, in any
        landing order, with the batch axis split across blocks."""
        resolved = grid.resolve()
        plan = shard_plan(resolved, n_blocks)
        np.random.default_rng(n_blocks).shuffle(plan)
        progress = SweepProgress(resolved, None)
        reference = PartialSweep(resolved, None)
        events = progress_events(progress, SCHEME, app=app, **encoding)
        emitted = None
        for placement, task in plan:
            block = evaluate_block(task)
            progress.record(placement, block)
            reference.record(placement, block)
            want = [p.to_dict() for p in reference.pareto_front(
                SCHEME, app=app, **encoding
            )]
            fronts = [e for e in next(events) if e["event"] == "front"]
            if fronts:
                assert not fronts[0]["final"]
                assert fronts[0]["points"] == want != emitted
                emitted = want
            else:
                assert want == (emitted or [])
        assert emitted is not None
        progress.finish(sweep_grid(resolved, use_cache=False))
        final = next(events)
        assert final[-2]["final"] and final[-2]["points"] == emitted

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_merge_to_the_lowest_flat_index(self, seed):
        """Blocks of small integer speedups force exact (cost, benefit)
        ties across cells and batches; the merged front still picks the
        partial front's lowest-flat-index representative."""
        rng = np.random.default_rng(seed)
        grid = TIE_GRID.resolve()
        plan = shard_plan(grid, 12)
        rng.shuffle(plan)
        progress = SweepProgress(grid, None)
        reference = PartialSweep(grid, None)
        app = (None, "gia")[seed % 2]
        events = progress_events(progress, SCHEME, app=app)
        emitted = []
        for placement, task in plan:
            shape = task_shape(task)
            block = {"baseline_ms": rng.integers(1, 4, shape).astype(float),
                     "accelerated_ms": np.ones(shape)}
            progress.record(placement, block)
            reference.record(placement, block)
            want = [p.to_dict()
                    for p in reference.pareto_front(SCHEME, app=app)]
            for event in next(events):
                if event["event"] == "front":
                    emitted = event["points"]
            assert emitted == want

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_recorded_during_merges_are_never_lost(self, seed):
        """Four producer threads record blocks while a consumer merges
        fronts; once every block is in, one more merge must reach the
        dense front (a block the cursor skipped would be missing)."""
        grid = BATCH_GRID.resolve()
        plan = shard_plan(grid, 60)
        np.random.default_rng(seed).shuffle(plan)
        blocks = [(placement, evaluate_block(task)) for placement, task in plan]
        progress = SweepProgress(grid, None)
        events = progress_events(progress, SCHEME)
        emitted = []

        def pull():
            for event in next(events):
                if event["event"] == "front":
                    emitted[:] = event["points"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            producers = [
                threading.Thread(target=lambda share: [
                    progress.record(*item) for item in share
                ], args=(blocks[n::4],))
                for n in range(4)
            ]
            for thread in producers:
                thread.start()
            while any(thread.is_alive() for thread in producers):
                pull()
            for thread in producers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        pull()
        dense = sweep_grid(grid, use_cache=False)
        assert emitted == [p.to_dict() for p in dense.pareto_front(SCHEME)]

    @pytest.mark.parametrize("grid, encoding", [
        (BATCH_GRID, {}),
        (EXTENDED_GRID, {"gridtype": "tiled", "log2_hashmap_size": 19}),
    ], ids=["split-batches", "extended-tiled-19"])
    @pytest.mark.parametrize("app", [None, "nerf"])
    @pytest.mark.parametrize("n_blocks", [8, 40])
    def test_every_streamed_front_is_the_restricted_dense_front(
        self, grid, encoding, app, n_blocks
    ):
        """An independent reference: after each block, the stream's
        front is the unreduced front of the dense result over the cells
        every app has landed."""
        resolved = grid.resolve()
        dense = sweep_grid(resolved, use_cache=False)
        plan = shard_plan(resolved, n_blocks)
        np.random.default_rng(n_blocks + 1).shuffle(plan)
        progress = SweepProgress(resolved, None)
        events = progress_events(progress, SCHEME, app=app, **encoding)
        covered = np.zeros(resolved.shape, dtype=bool)
        emitted = []
        for placement, task in plan:
            progress.record(placement, evaluate_block(task))
            i, j, windows = placement
            covered[(i, j) + tuple(slice(lo, hi) for lo, hi in windows)] = True
            for event in next(events):
                if event["event"] == "front":
                    emitted = [
                        (p["scale_factor"], p["area_overhead_pct"],
                         p["power_overhead_pct"], p["speedups"])
                        for p in event["points"]
                    ]
            assert emitted == _restricted_front(dense, covered, app, encoding)
        assert covered.all() and emitted


class TestPlanWindows:
    """A partial sweep counts a window complete once every app has a
    block there; that is exact because every plan cuts each (app,
    scheme) pair into the same windows."""

    @pytest.mark.parametrize("grid", [GRID, BATCH_GRID, EXTENDED_GRID],
                             ids=["seed", "split-batches", "extended"])
    def test_every_pair_gets_the_same_disjoint_covering_windows(self, grid):
        from repro.service.cluster import ShardCoordinator

        def coordinator_of(n_workers):
            coordinator = ShardCoordinator()
            for _ in range(n_workers):
                coordinator._register({})
            return coordinator

        resolved = grid.resolve()
        plans = {
            **{f"shard_plan({n})": shard_plan(resolved, n)
               for n in (1, 3, 8, 40, 1000)},
            "stream_plan": stream_plan(resolved),
            "store_block_plan": store_block_plan(resolved),
            **{f"coordinator({n} workers)": coordinator_of(n)._plan(resolved)
               for n in (1, 7)},
        }
        for name, plan in plans.items():
            by_pair = {}
            for (i, j, windows), _ in plan:
                by_pair.setdefault((i, j), []).append(windows)
            pairs = {(i, j) for i in range(len(resolved.apps))
                     for j in range(len(resolved.schemes))}
            assert set(by_pair) == pairs, name
            windows = sorted(by_pair[0, 0])
            for pair, cut in by_pair.items():
                assert sorted(cut) == windows, (name, pair)
            hits = np.zeros(resolved.shape[2:], dtype=int)
            for cut in windows:
                hits[tuple(slice(lo, hi) for lo, hi in cut)] += 1
            assert (hits == 1).all(), name


def _restricted_front(dense, covered, app, encoding):
    """``pareto_front`` over the cells of ``dense`` every app has in
    ``covered``, as (scale, area, power, speedups) tuples."""
    grid = dense.grid
    speedup = dense.speedup[:, 0, :, 0]  # one scheme, one pixel count
    valid = covered[:, 0, :, 0]
    if grid.is_extended:
        enc = (
            grid.gridtypes.index(encoding["gridtype"]),
            grid.log2_hashmap_sizes.index(encoding["log2_hashmap_size"]),
            0,
        )
        speedup = speedup[(Ellipsis,) + enc]
        valid = valid[(Ellipsis,) + enc]
    valid = valid.all(axis=0)
    benefit = (
        speedup.mean(axis=0) if app is None
        else speedup[grid.apps.index(app)]
    )
    cost = np.broadcast_to(dense.area_overhead_pct[..., None], benefit.shape)
    cells = np.flatnonzero(valid)
    keep = pareto_front(cost.reshape(-1)[cells], benefit.reshape(-1)[cells])
    out = []
    for pos in keep:
        cell = np.unravel_index(cells[pos], benefit.shape)
        k, c, g, e = cell[:4]
        out.append((
            grid.scale_factors[k],
            float(dense.area_overhead_pct[k, c, g, e]),
            float(dense.power_overhead_pct[k, c, g, e]),
            {a: float(speedup[(i,) + cell]) for i, a in enumerate(grid.apps)},
        ))
    return out


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
        # pre-stream validation raises the query kernel's own error, as
        # a dense pareto_front would; the HTTP layer maps it to an
        # ordinary JSON error response instead of opening a stream
        service = SweepService()

        async def run():
            return [
                e async for e in service.sweep_stream(GRID_JSON, app="nope")
            ]

        with pytest.raises(NotOnGridError) as err:
            asyncio.run(run())
        assert err.value.axis == "app"

    def test_bad_selector_over_http_is_a_plain_json_404(self):
        service = SweepService()

        def post_stream(port):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            try:
                connection.request(
                    "POST", "/sweep/stream",
                    body=json.dumps({"grid": GRID_JSON, "app": "nope"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                return (response.status,
                        response.getheader("Transfer-Encoding"),
                        response.getheader("Content-Type"),
                        json.loads(response.read()))
            finally:
                connection.close()

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            try:
                return await asyncio.to_thread(post_stream, server.port)
            finally:
                await server.close()

        status, transfer, content_type, body = asyncio.run(run())
        assert status == 404
        assert transfer is None  # no chunk was ever sent
        assert content_type.startswith("application/json")
        assert body["error"]["code"] == "not-on-grid"
        assert body["error"]["axis"] == "app"


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
            return emulate_batch_columns(*args, **kwargs)

        monkeypatch.setattr("repro.core.dse.emulate_batch_columns", held)
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

        monkeypatch.setattr("repro.core.dse.emulate_batch_columns", broken)
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
# unwatched service sweeps: one block per (app, scheme) pair
# ---------------------------------------------------------------------------

#: 10,240 points over four (app, scheme) pairs: the stream plan cuts it
#: into ten windows per pair
SERVED_GRID = SweepGrid(
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    pixel_counts=(1920 * 1080, 3840 * 2160),
    clocks_ghz=(0.8, 1.0, 1.2, 1.4, 1.695),
    grid_sram_kb=(256, 512, 1024, 2048),
    n_engines=(4, 8, 16, 32),
    n_batches=(4, 8, 16, 32),
)


def kernel_calls(monkeypatch, gate=None):
    """Count (and optionally hold) every block-level kernel call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        if gate is not None:
            gate()
        return emulate_batch_columns(*args, **kwargs)

    monkeypatch.setattr("repro.core.dse.emulate_batch_columns", counted)
    return calls


class TestUnwatchedSweeps:
    def test_cold_service_sweep_runs_one_block_per_pair(self, monkeypatch):
        from repro.core.dse import stream_plan

        calls = kernel_calls(monkeypatch)
        asyncio.run(SweepService().sweep(SERVED_GRID))
        grid = SERVED_GRID.resolve()
        assert len(calls) == len(grid.apps) * len(grid.schemes)

        # a sweep a stream starts keeps the window-major stream plan
        del calls[:]

        async def drain():
            service = SweepService()
            return [e async for e in service.sweep_stream(
                SERVED_GRID, n_pixels=1920 * 1080
            )]

        events = asyncio.run(drain())
        plan = stream_plan(grid.normalized())
        assert len(plan) == 10 * len(grid.apps)
        assert len(calls) == events[-3]["blocks_total"] == len(plan)

    def test_stream_joining_an_inflight_result_sweep_ends_like_a_cold_one(
        self, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def hold():
            entered.set()
            assert release.wait(timeout=60)

        calls = kernel_calls(monkeypatch, gate=hold)
        service = SweepService()

        def follow(port, on_event=None):
            with SyncServiceClient("127.0.0.1", port) as client:
                events = []
                for event in client.stream_pareto(GRID_JSON, scheme=SCHEME):
                    events.append(event)
                    if on_event is not None:
                        on_event()  # an event means the stream has joined
                return events

        async def run():
            server = await start_http_server(service, "127.0.0.1", 0)
            cold_server = await start_http_server(
                SweepService(), "127.0.0.1", 0
            )
            try:
                fetched = asyncio.ensure_future(asyncio.to_thread(
                    request_json, "127.0.0.1", server.port, "POST",
                    "/result", {"grid": GRID_JSON},
                ))
                assert await asyncio.to_thread(entered.wait, 60)
                joined = await asyncio.to_thread(
                    follow, server.port, release.set
                )
                status, body = await fetched
                cold = await asyncio.to_thread(follow, cold_server.port)
            finally:
                await server.close()
                await cold_server.close()
            return joined, (status, body), cold

        joined, (status, body), cold = asyncio.run(run())
        assert status == 200 and body["ok"]
        assert service.coalesced == 1 and service.evaluations == 1
        grid = GRID.resolve()
        pairs = len(grid.apps) * len(grid.schemes)
        # the /result sweep ran unwatched (one block per pair) and the
        # stream, joining it, saw no partial front — only the final one
        assert len(calls) == 2 * pairs  # the joined sweep + the cold one
        assert [e["final"] for e in joined if e["event"] == "front"] == [True]
        assert joined[-1]["cached"] is False
        assert _terminal(joined) == _terminal(cold)


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


# ---------------------------------------------------------------------------
# one event schema across the local, distributed and HTTP streams
# ---------------------------------------------------------------------------

#: one (app, scheme) pair of 512 points: the local stream plan cuts it
#: into two windows, exactly the cold static cut of a one-worker cluster
#: (BLOCKS_PER_WORKER blocks), so block counters are comparable too
SCHEMA_GRID = SweepGrid(
    apps=("nerf",),
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.813, 1.017, 1.219, 1.423),
    grid_sram_kb=(256, 512, 1024, 2048),
    n_engines=(8, 16),
    n_batches=(4, 8, 16, 32),
).resolve().normalized()


def _wire(event):
    """An event as a JSON client sees it (no in-process ``result_obj``)."""
    return json.loads(json.dumps(
        {k: v for k, v in event.items() if k != "result_obj"}
    ))


def _terminal(events):
    """The terminal progress/front/complete triple, timings removed."""
    return [{k: v for k, v in e.items() if k != "elapsed_s"}
            for e in events[-3:]]


def _key_sets(events):
    """Every key set each event kind arrives with (one per kind)."""
    kinds = {}
    for event in events:
        kinds.setdefault(event["event"], set()).add(frozenset(event))
    assert all(len(variants) == 1 for variants in kinds.values()), kinds
    return kinds


class TestOneEventSchema:
    def test_local_distributed_and_http_streams_agree(self):
        from repro.api import DistributedBackend, LocalBackend, RemoteBackend
        from repro.core.cache import clear_model_caches
        from repro.core.dse import stream_plan
        from repro.service.cluster.coordinator import BLOCKS_PER_WORKER

        plan = stream_plan(SCHEMA_GRID)
        assert len(plan) == BLOCKS_PER_WORKER
        # the exact partial fronts after each prefix of the plan
        partial = PartialSweep(SCHEMA_GRID, None)
        prefix_fronts = []
        for placement, task in plan:
            partial.record(placement, evaluate_block(task))
            prefix_fronts.append(_wire({"points": [
                p.to_dict() for p in partial.pareto_front(SCHEME)
            ]})["points"])

        def cold_then_cached(backend):
            return [
                [_wire(e) for e in backend.stream_events(
                    SCHEMA_GRID, scheme=SCHEME
                )]
                for _ in range(2)
            ]

        clear_model_caches()
        streams = {"local": cold_then_cached(LocalBackend())}
        distributed = DistributedBackend(workers=1)
        try:
            streams["distributed"] = cold_then_cached(distributed)
        finally:
            distributed.close()

        async def over_http():
            server = await start_http_server(SweepService(), "127.0.0.1", 0)
            remote = RemoteBackend(port=server.port)
            try:
                return await asyncio.to_thread(cold_then_cached, remote)
            finally:
                remote.close()
                await server.close()

        streams["http"] = asyncio.run(over_http())

        reference = streams["local"]
        for name, (cold, cached) in streams.items():
            for events, ref in zip((cold, cached), reference):
                assert _key_sets(events) == _key_sets(ref), name
                terminal = _terminal(events)
                if name == "distributed":
                    # the result names the engine that produced it
                    assert terminal[-1]["engine"] == "cluster"
                    terminal[-1]["engine"] = ref[-1]["engine"]
                assert terminal == _terminal(ref), name

        dense = [
            p.to_dict() for p in sweep_grid(
                SCHEMA_GRID, engine="vectorized", use_cache=False
            ).pareto_front(SCHEME)
        ]
        for name, (cold, cached) in streams.items():
            for events in (cold, cached):
                assert [e["event"] for e in events[-3:]] == [
                    "progress", "front", "complete"
                ], name
                assert events[-2]["final"]
                assert events[-2]["points"] == _wire({"points": dense})["points"]
                for event in events[:-3]:
                    if event["event"] == "front":
                        assert not event["final"]
                        assert event["points"] in prefix_fronts, name
            assert cold[-1]["cached"] is False, name
            assert cold[-3]["blocks_total"] == len(plan), name
            # a cached sweep is a finished progress: the triple alone
            assert [e["event"] for e in cached] == [
                "progress", "front", "complete"
            ], name
            assert cached[-1]["cached"] is True, name


#: four apps, each cut into four windows by a one-worker cluster leasing
#: sixteen blocks
CLUSTER_GRID = SweepGrid(
    apps=("nerf", "gia", "nsdf", "nvr"),
    schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.0, 1.2, 1.4, 1.6),
    n_batches=(4, 8, 16, 32),
)


class TestClusterStreams:
    def test_first_partial_front_lands_within_the_first_window(
        self, monkeypatch
    ):
        """Cluster leases are window-major: one block per (app, scheme)
        pair covers a window, so the first exact partial front follows
        at most ``apps × schemes`` blocks."""
        from repro.api import DistributedBackend

        grid = CLUSTER_GRID.resolve()
        n_pairs = len(grid.apps) * len(grid.schemes)
        front_seen = threading.Event()
        record = SweepProgress.record

        def held_after_one_window(self, placement, block):
            record(self, placement, block)
            if self.blocks_done == n_pairs:
                # hold the producer until the stream has looked, so the
                # first front is read at exactly this many blocks
                front_seen.wait(timeout=30)

        monkeypatch.setattr(SweepProgress, "record", held_after_one_window)
        monkeypatch.setattr(
            "repro.service.cluster.coordinator.BLOCKS_PER_WORKER", 4 * n_pairs
        )
        backend = DistributedBackend(workers=1)
        try:
            events = []
            for event in backend.stream_events(grid, scheme=SCHEME):
                events.append(event)
                if event["event"] == "front":
                    front_seen.set()
        finally:
            backend.close()
        assert events[-3]["blocks_total"] == 4 * n_pairs
        first = next(
            i for i, e in enumerate(events)
            if e["event"] == "front" and not e["final"]
        )
        assert events[first - 1]["event"] == "progress"
        assert events[first - 1]["blocks_done"] <= n_pairs

    def test_stream_joining_an_unwatched_cluster_sweep_counts_its_blocks(
        self, monkeypatch
    ):
        from repro.api import DistributedBackend

        backend = DistributedBackend(workers=1)
        evaluate = backend.service._sweep_fn
        started, subscribed = threading.Event(), threading.Event()

        def held_until_subscribed(grid, **kwargs):
            started.set()
            assert subscribed.wait(timeout=60)
            return evaluate(grid, **kwargs)

        subscribe = SweepProgress.subscribe

        def announced_subscribe(self):
            queue = subscribe(self)
            subscribed.set()
            return queue

        backend.service._sweep_fn = held_until_subscribed
        monkeypatch.setattr(SweepProgress, "subscribe", announced_subscribe)
        swept = []
        sweeper = threading.Thread(
            target=lambda: swept.append(backend.sweep(SCHEMA_GRID))
        )
        try:
            sweeper.start()
            assert started.wait(timeout=60)
            events = list(backend.stream_events(SCHEMA_GRID, scheme=SCHEME))
            sweeper.join(timeout=60)
            stats = backend.service.stats()
        finally:
            backend.close()
        assert swept and stats["coalesced"] == 1
        assert stats["cache"]["evaluations"] == 1
        progress, front, complete = events[-3:]
        assert complete["cached"] is False
        assert progress["blocks_done"] == progress["blocks_total"] > 0
        # the sweep ran unwatched: no partial front, only the final one
        assert [e["final"] for e in events if e["event"] == "front"] == [True]
