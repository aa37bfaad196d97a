"""End-to-end concurrency harness for the async DSE query service.

The acceptance surface of the serving layer:

- **Coalescing**: 32 concurrent identical sweep requests against a
  >= 10k-point grid trigger exactly one underlying ``sweep_grid``
  execution, with deterministic hit/miss/coalesced counters.
- **Responsiveness**: a cached ``pareto_front`` query answers in
  < 50 ms while a cold sweep is still running in the executor.
- **Fidelity**: served responses match direct library calls to 1e-9.
- **Fingerprint properties** (hypothesis): reordered/duplicated axis
  spellings of one design space share a key; any single-axis
  perturbation, base-config change or calibration change splits it.
- **Structured errors**: a served scalar query against a swept axis
  without a selector is a 400 whose payload names the ambiguous axis;
  a misspelled selector raises ``UnknownAxisError`` on every query path
  and is a 400 ``unknown-axis`` with a did-you-mean suggestion over HTTP.

No pytest-asyncio in the image: each test drives its own event loop via
``asyncio.run``, which also proves the service survives loop turnover
(the result cache outlives any single loop).
"""

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.calibration import fitted
from repro.core.config import NGPCConfig
from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    RESULT_ARRAY_FIELDS,
    AmbiguousAxisError,
    SweepGrid,
    SweepResult,
    sweep_fingerprint,
    sweep_grid,
)
from repro.errors import NotOnGridError, UnknownAxisError
from repro.explore import AdaptiveExplorer
from repro.gpu.baseline import FHD_PIXELS
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    as_service_error,
    request_json,
    start_http_server,
)
from repro.service.client import SyncServiceClient
from repro.service.ops import OpsLayer
from repro.service.progress import PartialSweep
from repro.transport import FRAME_CONTENT_TYPE, decode_frame, encode_frame

RTOL = 1e-9

#: >= 10k points: 4 apps x 1 scheme x 4 scales x 2 pixels x 5 clocks
#: x 4 SRAMs x 4 engine counts x 4 batch counts = 10240
BIG_GRID = SweepGrid(
    scale_factors=(8, 16, 32, 64),
    pixel_counts=(FHD_PIXELS, 3840 * 2160),
    clocks_ghz=(0.8, 1.0, 1.2, 1.4, 1.695),
    grid_sram_kb=(256, 512, 1024, 2048),
    n_engines=(4, 8, 16, 32),
    n_batches=(4, 8, 16, 32),
)

SMALL_GRID = SweepGrid(apps=("nerf",), scale_factors=(8, 16, 32, 64))

SCHEME = "multi_res_hashgrid"


class CountingSweep:
    """A ``sweep_grid`` wrapper that counts executions (optionally slow)."""

    def __init__(self, delay: float = 0.0):
        self.calls = 0
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, grid, engine="vectorized", ngpc=None, on_block=None):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return sweep_grid(grid, engine="vectorized", ngpc=ngpc)


# ---------------------------------------------------------------------------
# coalescing + cache counters
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_32_concurrent_identical_requests_one_evaluation(self):
        assert BIG_GRID.size >= 10_000
        counting = CountingSweep(delay=0.05)
        service = SweepService(engine="vectorized", sweep_fn=counting)

        async def run():
            return await asyncio.gather(
                *(service.sweep(BIG_GRID) for _ in range(32))
            )

        results = asyncio.run(run())
        assert counting.calls == 1  # the acceptance bar: one evaluation
        assert service.evaluations == 1
        assert service.coalesced == 31
        stats = service.stats()
        # the tiered cache shape: the LRU's own view plus the per-tier
        # split (no store attached, so the disk tier never serves)
        assert stats["cache"] == {
            "size": 1, "hits": 0, "misses": 1,
            "ram_hits": 0, "disk_hits": 0, "evaluations": 1,
        }
        assert "store" not in stats
        assert stats["inflight"] == 0
        # every request got the very same result object
        assert all(r is results[0] for r in results)
        # a later request is a pure cache hit, no new evaluation
        again = asyncio.run(service.sweep(BIG_GRID))
        assert again is results[0]
        assert counting.calls == 1
        assert service.stats()["cache"]["hits"] == 1

    def test_served_result_matches_direct_library_call(self):
        service = SweepService(engine="vectorized")
        served = asyncio.run(service.sweep(BIG_GRID))
        direct = sweep_grid(served.grid, engine="vectorized", use_cache=False)
        np.testing.assert_allclose(
            served.accelerated_ms, direct.accelerated_ms, rtol=RTOL, atol=0.0
        )
        np.testing.assert_allclose(
            served.baseline_ms, direct.baseline_ms, rtol=RTOL, atol=0.0
        )
        np.testing.assert_allclose(
            served.area_overhead_pct, direct.area_overhead_pct,
            rtol=RTOL, atol=0.0,
        )

    def test_reordered_grid_spelling_is_a_cache_hit(self):
        counting = CountingSweep()
        service = SweepService(engine="vectorized", sweep_fn=counting)
        reordered = SweepGrid(
            apps=tuple(reversed(SMALL_GRID.apps)),
            scale_factors=(64, 8, 32, 16, 8),  # shuffled + duplicated
        )

        async def run():
            first = await service.sweep(SMALL_GRID)
            second = await service.sweep(reordered)
            return first, second

        first, second = asyncio.run(run())
        assert counting.calls == 1
        assert second is first
        assert service.stats()["cache"]["hits"] == 1

    def test_lru_eviction_bounds_the_cache(self):
        counting = CountingSweep()
        service = SweepService(
            engine="vectorized", sweep_fn=counting, max_cached_sweeps=1
        )
        other = SweepGrid(apps=("nerf",), scale_factors=(8,))

        async def run():
            await service.sweep(SMALL_GRID)
            await service.sweep(other)      # evicts SMALL_GRID
            await service.sweep(SMALL_GRID)  # must re-evaluate

        asyncio.run(run())
        assert counting.calls == 3
        assert service.stats()["cache"]["size"] == 1

    def test_failure_propagates_to_every_coalesced_request(self):
        class Boom(RuntimeError):
            pass

        calls = []

        def flaky(grid, engine="vectorized", ngpc=None, on_block=None):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.05)
                raise Boom("sweep failed")
            return sweep_grid(grid, engine="vectorized", ngpc=ngpc)

        service = SweepService(engine="vectorized", sweep_fn=flaky)

        async def run():
            return await asyncio.gather(
                *(service.sweep(SMALL_GRID) for _ in range(4)),
                return_exceptions=True,
            )

        results = asyncio.run(run())
        assert len(calls) == 1
        assert all(isinstance(r, Boom) for r in results)
        assert service.stats()["inflight"] == 0
        # the failure is not cached: the next request re-evaluates
        recovered = asyncio.run(service.sweep(SMALL_GRID))
        assert isinstance(recovered, SweepResult)
        assert len(calls) == 2

    def test_failure_after_all_awaiters_cancelled_leaves_no_asyncio_warning(
        self,
    ):
        """A failing sweep whose coalesced awaiters were all cancelled
        must not leak an asyncio 'exception was never retrieved' warning
        — the exception is handled by design (nobody is left to care)."""
        import gc

        class Boom(RuntimeError):
            pass

        def failing(grid, engine="vectorized", ngpc=None, on_block=None):
            time.sleep(0.15)
            raise Boom("sweep failed with nobody watching")

        service = SweepService(engine="vectorized", sweep_fn=failing)
        problems = []

        async def run():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: problems.append(context)
            )
            awaiters = [
                asyncio.ensure_future(service.sweep(SMALL_GRID))
                for _ in range(4)
            ]
            await asyncio.sleep(0.03)  # the evaluation is in the executor
            for awaiter in awaiters:
                awaiter.cancel()
            cancelled = await asyncio.gather(
                *awaiters, return_exceptions=True
            )
            assert all(
                isinstance(c, asyncio.CancelledError) for c in cancelled
            )
            while service._inflight:  # the evaluation fails unobserved
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            del awaiters, cancelled
            # the never-retrieved warning fires from Future.__del__, so
            # collect while the loop is still alive to capture it
            gc.collect()
            await asyncio.sleep(0.01)

        asyncio.run(run())
        gc.collect()
        messages = [str(context.get("message", "")) for context in problems]
        assert not any("never retrieved" in m for m in messages), messages


# ---------------------------------------------------------------------------
# responsiveness: cached queries during a cold sweep
# ---------------------------------------------------------------------------


class TestResponsiveness:
    def test_cached_pareto_query_under_50ms_while_cold_sweep_runs(self):
        entered = threading.Event()

        def slow_for_big(grid, engine="vectorized", ngpc=None, on_block=None):
            if grid.size >= 1000:  # the cold sweep, not the warm-up
                entered.set()
                time.sleep(0.6)
            return sweep_grid(grid, engine="vectorized", ngpc=ngpc)

        service = SweepService(engine="vectorized", sweep_fn=slow_for_big)

        async def run():
            await service.sweep(SMALL_GRID)  # warm the cache
            cold = asyncio.ensure_future(service.sweep(BIG_GRID))
            # wait (off the loop) until the cold sweep is inside the executor
            assert await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 10.0
            )
            start = time.perf_counter()
            front = await service.pareto_front(SMALL_GRID, scheme=SCHEME)
            elapsed = time.perf_counter() - start
            cold_still_running = not cold.done()
            await cold
            return elapsed, front, cold_still_running

        elapsed, front, cold_still_running = asyncio.run(run())
        assert cold_still_running, "cold sweep finished before the query"
        assert elapsed < 0.050, f"cached query took {elapsed * 1000:.1f} ms"
        assert front  # and it answered something real


# ---------------------------------------------------------------------------
# query fidelity vs the library
# ---------------------------------------------------------------------------


def _assert_points_equal(served, direct):
    assert len(served) == len(direct)
    for ours, theirs in zip(served, direct):
        assert ours.scale_factor == theirs.scale_factor
        assert ours.config_axes == theirs.config_axes
        assert ours.area_overhead_pct == pytest.approx(
            theirs.area_overhead_pct, rel=RTOL
        )
        assert ours.power_overhead_pct == pytest.approx(
            theirs.power_overhead_pct, rel=RTOL
        )
        for app, speedup in theirs.speedups.items():
            assert ours.speedups[app] == pytest.approx(speedup, rel=RTOL)


class TestQueryFidelity:
    def test_pareto_front_matches_library(self):
        service = SweepService(engine="vectorized")

        async def run():
            return await service.pareto_front(
                BIG_GRID, scheme=SCHEME, n_pixels=FHD_PIXELS
            )

        served = asyncio.run(run())
        direct_result = sweep_grid(
            BIG_GRID.resolve().normalized(), engine="vectorized"
        )
        direct = direct_result.pareto_front(SCHEME, n_pixels=FHD_PIXELS)
        _assert_points_equal(served, direct)

    def test_cheapest_and_point_match_library(self):
        service = SweepService(engine="vectorized")

        async def run():
            cheapest = await service.cheapest_point_meeting_fps(
                BIG_GRID, app="nerf", fps=60.0, n_pixels=FHD_PIXELS
            )
            point = await service.point(
                BIG_GRID,
                app="nerf",
                scale_factor=8,
                n_pixels=FHD_PIXELS,
                clock_ghz=1.695,
                grid_sram_kb=1024,
                n_engines=16,
                n_batches=16,
            )
            return cheapest, point

        cheapest, point = asyncio.run(run())
        direct_result = sweep_grid(
            BIG_GRID.resolve().normalized(), engine="vectorized"
        )
        direct_cheapest = direct_result.cheapest_point_meeting_fps(
            "nerf", 60.0, n_pixels=FHD_PIXELS
        )
        _assert_points_equal([cheapest], [direct_cheapest])
        direct_point = direct_result.point(
            "nerf", SCHEME, 8, FHD_PIXELS,
            clock_ghz=1.695, grid_sram_kb=1024, n_engines=16, n_batches=16,
        )
        assert point.accelerated_ms == pytest.approx(
            direct_point.accelerated_ms, rel=RTOL
        )
        assert point.speedup == pytest.approx(direct_point.speedup, rel=RTOL)


# ---------------------------------------------------------------------------
# ambiguous-axis + structured errors
# ---------------------------------------------------------------------------


class TestStructuredErrors:
    def test_point_on_swept_axis_without_selector_names_the_axis(self):
        service = SweepService(engine="vectorized")

        async def run():
            await service.point(
                BIG_GRID, app="nerf", scale_factor=8, n_pixels=FHD_PIXELS,
                grid_sram_kb=1024, n_engines=16, n_batches=16,
                # clock_ghz deliberately omitted: the grid sweeps it
            )

        with pytest.raises(AmbiguousAxisError) as excinfo:
            asyncio.run(run())
        assert excinfo.value.axis == "clock_ghz"
        assert excinfo.value.values == BIG_GRID.clocks_ghz

    def test_http_400_payload_names_the_ambiguous_axis(self):
        async def run():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            client = ServiceClient("127.0.0.1", server.port)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await client.point(
                        BIG_GRID.to_dict(),
                        app="nerf",
                        scale_factor=8,
                        n_pixels=FHD_PIXELS,
                        grid_sram_kb=1024,
                        n_engines=16,
                        n_batches=16,
                    )
                return excinfo.value
            finally:
                await client.close()
                await server.close()

        error = asyncio.run(run())
        assert error.status == 400
        assert error.code == "ambiguous-axis"
        assert error.details["axis"] == "clock_ghz"
        assert error.details["values"] == list(BIG_GRID.clocks_ghz)

    def test_not_on_grid_error_details_are_forwarded(self):
        err = as_service_error(NotOnGridError(
            "app='bogus' not on the grid", axis="app", values=("gia", "nerf")
        ))
        assert (err.status, err.code) == (404, "not-on-grid")
        assert err.details == {"axis": "app", "values": ["gia", "nerf"]}
        assert as_service_error(NotOnGridError("bare")).details == {}

    def test_not_on_grid_and_unknown_endpoint(self):
        async def run():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            client = ServiceClient("127.0.0.1", server.port)
            try:
                with pytest.raises(ServiceError) as not_on_grid:
                    await client.cheapest_point_meeting_fps(
                        SMALL_GRID.to_dict(), app="bogus", fps=60.0
                    )
                with pytest.raises(ServiceError) as unknown:
                    await client.request("POST", "/nonsense", {})
                with pytest.raises(ServiceError) as bad_grid:
                    await client.sweep({"bogus_axis": [1, 2]})
                return not_on_grid.value, unknown.value, bad_grid.value
            finally:
                await client.close()
                await server.close()

        not_on_grid, unknown, bad_grid = asyncio.run(run())
        assert not_on_grid.status == 404
        assert not_on_grid.code == "not-on-grid"
        assert not_on_grid.details["axis"] == "app"
        assert unknown.status == 404
        assert bad_grid.status == 400
        assert "bogus_axis" in bad_grid.message


#: a misspelled encoding selector on a plane query and a misspelled
#: architecture selector on a point query
PLANE_TYPO = {"gridtyp": "hash"}
POINT_TYPO = {"app": "nerf", "scale_factor": 8, "clock_gz": 1.0}


def _over_http(query):
    """Run ``query(client)`` against a fresh served ``SweepService``."""
    async def run():
        server = await start_http_server(
            SweepService(engine="vectorized"), "127.0.0.1", 0
        )
        client = ServiceClient("127.0.0.1", server.port)
        try:
            await query(client)
        finally:
            await client.close()
            await server.close()

    asyncio.run(run())


#: (path, query kind) -> a call carrying one misspelled selector
MISSPELLED_QUERIES = {
    ("dense", "plane"): lambda g: sweep_grid(g).pareto_front(
        SCHEME, **PLANE_TYPO),
    ("dense", "point"): lambda g: sweep_grid(g).point(
        "nerf", SCHEME, 8, FHD_PIXELS, clock_gz=1.0),
    ("partial", "plane"): lambda g: PartialSweep(g, None).pareto_front(
        SCHEME, **PLANE_TYPO),
    ("adaptive", "plane"): lambda g: AdaptiveExplorer(g).pareto(
        SCHEME, **PLANE_TYPO),
    ("adaptive", "point"): lambda g: AdaptiveExplorer(g).point(
        "nerf", SCHEME, 8, FHD_PIXELS, clock_gz=1.0),
    ("session", "plane"): lambda g: Session.local().sweep(g).pareto(
        **PLANE_TYPO),
    ("session", "point"): lambda g: Session.local().sweep(g).point(
        **POINT_TYPO),
    ("session-watch", "plane"): lambda g: next(
        Session.local().sweep(g, lazy=True).watch(**PLANE_TYPO)),
    ("service", "plane"): lambda g: asyncio.run(
        SweepService().pareto_front(g, **PLANE_TYPO)),
    ("service", "point"): lambda g: asyncio.run(
        SweepService().point(g, **POINT_TYPO)),
    ("http", "plane"): lambda g: _over_http(
        lambda client: client.pareto_front(g.to_dict(), **PLANE_TYPO)),
    ("http", "point"): lambda g: _over_http(
        lambda client: client.point(g.to_dict(), **POINT_TYPO)),
}


class TestUnknownSelectors:
    @pytest.mark.parametrize(
        "path, kind", list(MISSPELLED_QUERIES),
        ids=[f"{path}-{kind}" for path, kind in MISSPELLED_QUERIES],
    )
    def test_misspelled_selector_is_rejected_with_a_suggestion(
        self, path, kind
    ):
        grid = SMALL_GRID.resolve()
        with pytest.raises((UnknownAxisError, ServiceError)) as excinfo:
            MISSPELLED_QUERIES[path, kind](grid)
        error = excinfo.value
        if path == "http":
            assert isinstance(error, ServiceError)
            assert (error.status, error.code) == (400, "unknown-axis")
            name, suggestion = error.details["name"], error.details["suggestion"]
        else:
            assert isinstance(error, UnknownAxisError)
            name, suggestion = error.name, error.suggestion
        assert (name, suggestion) == {
            "plane": ("gridtyp", "gridtype"),
            "point": ("clock_gz", "clock_ghz"),
        }[kind]


class TestSelectorsBeforeSweep:
    """Exhaustive queries answer a bad selector before evaluating."""

    @pytest.mark.parametrize("query, error", [
        (lambda s, g: s.pareto_front(g, gridtyp="hash"), UnknownAxisError),
        (lambda s, g: s.pareto_front(g, scheme=SCHEME, app="bogus"),
         NotOnGridError),
        (lambda s, g: s.cheapest_point_meeting_fps(g, "bogus", 60.0,
                                                   scheme=SCHEME),
         NotOnGridError),
        (lambda s, g: s.cheapest_point_meeting_train_rate(
            g, "nerf", 1.0, scheme=SCHEME, n_pixels=7), NotOnGridError),
        (lambda s, g: s.point(g, app="nerf", scheme=SCHEME, scale_factor=7),
         NotOnGridError),
        (lambda s, g: s.point(g, app="nerf", scheme=SCHEME, clock_gz=1.0),
         UnknownAxisError),
    ], ids=["typo", "off-grid-app", "cheapest-app", "train-pixels",
            "point-scale", "point-typo"])
    def test_no_evaluation_on_a_bad_selector(self, query, error):
        service = SweepService()
        with pytest.raises(error):
            asyncio.run(query(service, SMALL_GRID))
        assert service.evaluations == 0
        assert service.stats()["inflight"] == 0


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------


class TestHTTPEndToEnd:
    def test_full_protocol_round_trip(self):
        grid = SMALL_GRID.to_dict()

        async def run():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            client = ServiceClient("127.0.0.1", server.port)
            try:
                health = await client.healthz()
                summary = await client.sweep(grid)
                front = await client.pareto_front(grid)
                cheapest = await client.cheapest_point_meeting_fps(
                    grid, app="nerf", fps=60.0
                )
                point = await client.point(grid, app="nerf", scale_factor=8)
                records = (
                    await client.request(
                        "POST", "/records", {"grid": grid, "limit": 3}
                    )
                )["result"]
                fetched = await client.fetch_result(grid)
                stats = await client.stats()
                return (health, summary, front, cheapest, point, records,
                        fetched, stats)
            finally:
                await client.close()
                await server.close()

        (health, summary, front, cheapest, point, records,
         fetched, stats) = asyncio.run(run())
        assert health["ok"] is True
        assert summary["size"] == SMALL_GRID.size
        assert summary["grid"]["scale_factors"] == [8, 16, 32, 64]
        assert [p["scale_factor"] for p in front]
        assert cheapest["scale_factor"] == 8
        assert point["speedup"] == pytest.approx(
            point["baseline_ms"] / point["accelerated_ms"], rel=RTOL
        )
        assert len(records) == 3 and "speedup" in records[0]
        # the service evaluated the grid exactly once across all queries
        assert stats["evaluations"] == 1
        assert stats["cache"]["size"] == 1
        # full result round trip: served payload rebuilds bit-compatible
        direct = sweep_grid(fetched.grid, engine="vectorized")
        np.testing.assert_allclose(
            fetched.accelerated_ms, direct.accelerated_ms, rtol=RTOL, atol=0.0
        )

    def test_report_renders_from_served_result(self):
        from repro.analysis.report import design_space_section

        report_grid = SweepGrid(schemes=(SCHEME,)).to_dict()

        async def run():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            client = ServiceClient("127.0.0.1", server.port)
            try:
                return await client.fetch_result(report_grid)
            finally:
                await client.close()
                await server.close()

        served = asyncio.run(run())
        served_lines = design_space_section(result=served)
        direct_lines = design_space_section()
        # identical content; app-row order may differ (normalized axes)
        assert set(served_lines) == set(direct_lines)

    def test_sync_client_against_threaded_server(self):
        """The blocking client (CLI path) talks to a live server."""
        started = threading.Event()
        holder = {}

        def serve():
            async def main():
                service = SweepService(engine="vectorized")
                server = await start_http_server(service, "127.0.0.1", 0)
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
            status, body = request_json(
                "127.0.0.1", holder["port"], "POST", "/pareto",
                {"grid": SMALL_GRID.to_dict()},
            )
            assert status == 200 and body["ok"] and body["result"]
            status, body = request_json(
                "127.0.0.1", holder["port"], "GET", "/stats"
            )
            assert status == 200 and body["result"]["evaluations"] == 1
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=10)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# /result content negotiation: JSON by default, a binary frame on request
# ---------------------------------------------------------------------------

#: the Session parity design space (tests/test_api_session.py)
PARITY_GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)

#: every hash-grid encoding axis swept: 11-dimensional result arrays
HASHGRID_GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    gridtypes=("hash", "tiled"),
    log2_hashmap_sizes=(14, 19),
    per_level_scales=(1.5, 2.0),
)


def post(port, path, payload, accept=None, api_key=None):
    """One raw POST; returns (status, Content-Type, body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    if api_key is not None:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        connection.request("POST", path, json.dumps(payload), headers)
        response = connection.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read())
    finally:
        connection.close()


def serve_and(fn, service=None, ops=None):
    """Run ``fn(port)`` on a worker thread against a live HTTP server."""

    async def run():
        server = await start_http_server(
            service or SweepService(), "127.0.0.1", 0, ops=ops
        )
        try:
            return await asyncio.to_thread(fn, server.port)
        finally:
            await server.close()

    return asyncio.run(run())


class GatedSweep(CountingSweep):
    """A counting ``sweep_fn`` held until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def __call__(self, grid, engine="vectorized", ngpc=None, on_block=None):
        assert self.release.wait(timeout=60)
        return super().__call__(grid, engine, ngpc, on_block)


#: a frame of fixed meta and columns (padding, a big-endian column, an
#: empty one), byte for byte as the concatenating encoder wrote it
FIXED_FRAME_HEX = (
    "5250524601000600c6010000600000000000000011328e687b226d657461223a"
    "7b22736368656d615f76657273696f6e223a322c226e616d65223a2266697865"
    "64222c2278223a5b312c322e355d7d2c22636f6c756d6e73223a5b7b226e616d"
    "65223a226638222c226474797065223a223c6638222c227368617065223a5b32"
    "2c335d2c226f6666736574223a302c226e6279746573223a34387d2c7b226e61"
    "6d65223a226931222c226474797065223a227c6931222c227368617065223a5b"
    "335d2c226f6666736574223a34382c226e6279746573223a337d2c7b226e616d"
    "65223a226265222c226474797065223a223c6934222c227368617065223a5b33"
    "5d2c226f6666736574223a35362c226e6279746573223a31327d2c7b226e616d"
    "65223a2262222c226474797065223a227c6231222c227368617065223a5b325d"
    "2c226f6666736574223a37322c226e6279746573223a327d2c7b226e616d6522"
    "3a227532222c226474797065223a223c7532222c227368617065223a5b355d2c"
    "226f6666736574223a38302c226e6279746573223a31307d2c7b226e616d6522"
    "3a22656d707479222c226474797065223a223c6638222c227368617065223a5b"
    "302c325d2c226f6666736574223a39362c226e6279746573223a307d5d7d0000"
    "000000000000922449922449c23f922449922449d23fdbb66ddbb66ddb3f9224"
    "49922449e23fb76ddbb66ddbe63f01fe03000000000000000000010000000200"
    "000000000000010000000000000000000100020003000400000000000000"
)


class TestResultFrames:
    def test_frame_bytes_are_unchanged(self):
        columns = [
            ("f8", np.arange(6.0).reshape(2, 3) / 7.0),
            ("i1", np.array([1, -2, 3], dtype=np.int8)),
            ("be", np.arange(3, dtype=">i4")),
            ("b", np.array([True, False])),
            ("u2", np.arange(5, dtype=np.uint16)),
            ("empty", np.zeros((0, 2))),
        ]
        frame = encode_frame(
            {"schema_version": 2, "name": "fixed", "x": [1, 2.5]}, columns
        )
        assert bytes(frame) == bytes.fromhex(FIXED_FRAME_HEX)

    @pytest.mark.parametrize("grid", [PARITY_GRID, HASHGRID_GRID],
                             ids=["parity", "hashgrid"])
    def test_frame_and_json_arrays_are_bit_identical(self, grid):
        def fetch(port):
            status, content_type, body = post(
                port, "/result", {"grid": grid.to_dict()}
            )
            assert status == 200 and content_type == "application/json"
            with SyncServiceClient(port=port) as client:
                return (SweepResult.from_payload(json.loads(body)["result"]),
                        client.fetch_result(grid.to_dict()))

        from_json, from_frame = serve_and(fetch)
        assert from_frame.grid == from_json.grid
        assert from_frame.engine == from_json.engine
        if grid is HASHGRID_GRID:
            assert from_frame.accelerated_ms.ndim == 11
        for name in RESULT_ARRAY_FIELDS:
            assert np.array_equal(
                getattr(from_frame, name), getattr(from_json, name)
            ), name

    def test_server_without_frames_still_yields_a_sweep_result(
        self, monkeypatch
    ):
        from repro.service import http as service_http

        # a server that never matches the frame type answers JSON
        monkeypatch.setattr(service_http, "FRAME_CONTENT_TYPE", "x/none")

        def fetch(port):
            with SyncServiceClient(port=port) as client:
                return client.fetch_result(SMALL_GRID.to_dict())

        served = serve_and(fetch)
        expected = sweep_grid(SMALL_GRID.resolve().normalized())
        assert np.array_equal(served.accelerated_ms, expected.accelerated_ms)

    def test_json_body_without_accept_is_unchanged(self):
        grid = SMALL_GRID.to_dict()
        status, content_type, body = serve_and(
            lambda port: post(port, "/result", {"grid": grid})
        )
        expected = sweep_grid(SMALL_GRID.resolve().normalized())
        assert status == 200 and content_type == "application/json"
        # the envelope byte for byte as it was before frames existed
        assert body == json.dumps({
            "ok": True, "result": expected.to_payload(),
            "schema_version": PAYLOAD_SCHEMA_VERSION,
        }).encode("utf-8")

    def test_frame_reply_carries_the_payload_meta(self):
        status, content_type, body = serve_and(lambda port: post(
            port, "/result", {"grid": SMALL_GRID.to_dict()},
            accept=FRAME_CONTENT_TYPE,
        ))
        assert status == 200 and content_type == FRAME_CONTENT_TYPE
        meta, columns = decode_frame(body)
        assert meta == {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "grid": SMALL_GRID.resolve().normalized().to_dict(),
            "engine": "vectorized",
        }
        assert tuple(columns) == RESULT_ARRAY_FIELDS

    def test_errors_stay_structured_json_for_frame_requests(self):
        grid = PARITY_GRID.to_dict()
        requests = [
            ("/result", {"grid": {"clock_ghz": [1.0]}}),  # misspelled axis
            ("/point", {"grid": grid, "app": "nope"}),  # off the grid
            ("/pareto", {"grid": grid, "gridtyp": "hash"}),  # misspelled
        ]

        def run(port):
            raw = [post(port, path, body, accept=FRAME_CONTENT_TYPE)
                   for path, body in requests]
            with SyncServiceClient(port=port) as client:
                raised = []
                for path, body in requests:
                    with pytest.raises(ServiceError) as err:
                        client.request("POST", path, body)
                    raised.append(err.value)
            return raw, raised

        raw, raised = serve_and(run)
        codes = []
        for (status, content_type, body), error in zip(raw, raised):
            assert content_type == "application/json"
            payload = json.loads(body)
            assert payload.pop("schema_version") == PAYLOAD_SCHEMA_VERSION
            assert (error.status, error.to_payload()) == (status, payload)
            codes.append(payload["error"]["code"])
        assert codes == ["bad-request", "not-on-grid", "unknown-axis"]

    def test_429_stays_structured_json_for_frame_requests(self, tmp_path):
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({"tenants": [
            {"name": "slow", "key": "ak-slow", "rate_per_s": 0.001,
             "burst": 1},
        ]}))
        grid = SMALL_GRID.to_dict()

        def run(port):
            with SyncServiceClient(port=port, api_key="ak-slow") as client:
                first = client.fetch_result(grid)
                with pytest.raises(ServiceError) as err:
                    client.fetch_result(grid)
            raw = post(port, "/result", {"grid": grid},
                       accept=FRAME_CONTENT_TYPE, api_key="ak-slow")
            return first, err.value, raw

        first, error, (status, content_type, body) = serve_and(
            run, ops=OpsLayer(tenants_path=str(tenants))
        )
        assert first.grid.size == SMALL_GRID.size
        assert status == 429 and content_type == "application/json"
        assert error.status == 429 and error.code == "rate-limited"
        assert json.loads(body)["error"]["code"] == "rate-limited"

    def test_long_poll_answers_frame_on_200_and_json_on_202(self):
        gated = GatedSweep()
        grid = SMALL_GRID.to_dict()

        def run(port):
            pending = post(port, "/result?wait=0.01", {"grid": grid},
                           accept=FRAME_CONTENT_TYPE)
            gated.release.set()
            finished = post(port, "/result?wait=60", {"grid": grid},
                            accept=FRAME_CONTENT_TYPE)
            return pending, finished

        pending, finished = serve_and(run, SweepService(sweep_fn=gated))
        status, content_type, body = pending
        assert status == 202 and content_type == "application/json"
        payload = json.loads(body)
        assert payload["pending"] and not payload["progress"]["done"]
        status, content_type, body = finished
        assert status == 200 and content_type == FRAME_CONTENT_TYPE
        assert decode_frame(body)[1]["accelerated_ms"].size == SMALL_GRID.size
        assert gated.calls == 1

    def test_flipped_byte_is_a_502_bad_frame(self, monkeypatch):
        from repro.service import http as service_http

        real = service_http.encode_frame

        def corrupted(meta, columns):
            frame = bytearray(real(meta, columns))
            frame[-1] ^= 0x01
            return bytes(frame)

        monkeypatch.setattr(service_http, "encode_frame", corrupted)

        def run(port):
            with SyncServiceClient(port=port) as client:
                with pytest.raises(ServiceError) as err:
                    client.fetch_result(SMALL_GRID.to_dict())
            return err.value

        error = serve_and(run)
        assert (error.status, error.code) == (502, "bad-frame")


# ---------------------------------------------------------------------------
# fingerprint properties (hypothesis)
# ---------------------------------------------------------------------------

_scales = st.lists(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
    min_size=1, max_size=4, unique=True,
)
_pixels = st.lists(
    st.integers(min_value=1, max_value=3840 * 2160 * 4),
    min_size=1, max_size=3, unique=True,
)
_clocks = st.lists(
    st.sampled_from([0.5, 0.8, 1.0, 1.2, 1.695]),
    min_size=1, max_size=3, unique=True,
)
_srams = st.lists(
    st.sampled_from([128, 256, 512, 1024, 2048]),
    min_size=1, max_size=3, unique=True,
)


class TestFingerprintProperties:
    @given(scales=_scales, pixels=_pixels, clocks=_clocks, srams=_srams)
    @settings(max_examples=40, deadline=None)
    def test_reordered_and_duplicated_axes_share_a_key(
        self, scales, pixels, clocks, srams
    ):
        base = SweepGrid(
            scale_factors=tuple(scales),
            pixel_counts=tuple(pixels),
            clocks_ghz=tuple(clocks),
            grid_sram_kb=tuple(srams),
        )
        respelled = SweepGrid(
            apps=tuple(reversed(base.apps)) + (base.apps[0],),
            scale_factors=tuple(reversed(scales)) + (scales[0],),
            pixel_counts=tuple(reversed(pixels)) + (pixels[-1],),
            clocks_ghz=tuple(reversed(clocks)),
            grid_sram_kb=tuple(reversed(srams)) + (srams[0],),
        )
        assert sweep_fingerprint(base) == sweep_fingerprint(respelled)

    @given(scales=_scales, pixels=_pixels, clocks=_clocks, srams=_srams)
    @settings(max_examples=40, deadline=None)
    def test_any_single_axis_perturbation_splits_the_key(
        self, scales, pixels, clocks, srams
    ):
        base = SweepGrid(
            scale_factors=tuple(scales),
            pixel_counts=tuple(pixels),
            clocks_ghz=tuple(clocks),
            grid_sram_kb=tuple(srams),
        )
        key = sweep_fingerprint(base)
        perturbed = [
            SweepGrid(
                scale_factors=tuple(scales) + (256,),  # value not drawn
                pixel_counts=tuple(pixels),
                clocks_ghz=tuple(clocks),
                grid_sram_kb=tuple(srams),
            ),
            SweepGrid(
                scale_factors=tuple(scales),
                pixel_counts=tuple(pixels) + (max(pixels) + 1,),
                clocks_ghz=tuple(clocks),
                grid_sram_kb=tuple(srams),
            ),
            SweepGrid(
                scale_factors=tuple(scales),
                pixel_counts=tuple(pixels),
                clocks_ghz=tuple(clocks) + (2.5,),
                grid_sram_kb=tuple(srams),
            ),
            SweepGrid(
                scale_factors=tuple(scales),
                pixel_counts=tuple(pixels),
                clocks_ghz=tuple(clocks),
                grid_sram_kb=tuple(srams) + (4096,),
            ),
            SweepGrid(
                apps=base.apps[:1],
                scale_factors=tuple(scales),
                pixel_counts=tuple(pixels),
                clocks_ghz=tuple(clocks),
                grid_sram_kb=tuple(srams),
            ),
        ]
        keys = [sweep_fingerprint(grid) for grid in perturbed]
        assert all(other != key for other in keys)
        # and the perturbations are pairwise distinct too
        assert len(set(keys)) == len(keys)

    def test_calibration_change_splits_the_key(self):
        key = sweep_fingerprint(SMALL_GRID)
        original = fitted.BATCH_OVERHEAD_SCALE_EXPONENT
        try:
            fitted.BATCH_OVERHEAD_SCALE_EXPONENT = original + 0.125
            assert sweep_fingerprint(SMALL_GRID) != key
        finally:
            fitted.BATCH_OVERHEAD_SCALE_EXPONENT = original
        assert sweep_fingerprint(SMALL_GRID) == key

    def test_base_config_change_splits_the_key(self):
        key = sweep_fingerprint(SMALL_GRID)
        perturbed = NGPCConfig(l2_spill_penalty=4.0)
        assert sweep_fingerprint(SMALL_GRID, ngpc=perturbed) != key

    def test_grid_dict_round_trip(self):
        assert SweepGrid.from_dict(BIG_GRID.to_dict()) == BIG_GRID
        # scalars promote to one-value axes
        grid = SweepGrid.from_dict({"apps": "nerf", "scale_factors": 8})
        assert grid.apps == ("nerf",)
        assert grid.scale_factors == (8,)
        with pytest.raises(ValueError, match="unknown grid axes"):
            SweepGrid.from_dict({"bogus": [1]})
