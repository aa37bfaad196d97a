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
  without a selector is a 400 whose payload names the ambiguous axis.

No pytest-asyncio in the image: each test drives its own event loop via
``asyncio.run``, which also proves the service survives loop turnover
(the result cache outlives any single loop).
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import fitted
from repro.core.config import NGPCConfig
from repro.core.dse import (
    AmbiguousAxisError,
    SweepGrid,
    SweepResult,
    sweep_fingerprint,
    sweep_grid,
)
from repro.gpu.baseline import FHD_PIXELS
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    request_json,
    start_http_server,
)

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

    def __call__(self, grid, engine="vectorized", ngpc=None):
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

        def flaky(grid, engine="vectorized", ngpc=None):
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

        def failing(grid, engine="vectorized", ngpc=None):
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
        def slow_for_big(grid, engine="vectorized", ngpc=None):
            if grid.size >= 1000:  # the cold sweep, not the warm-up
                time.sleep(0.6)
            return sweep_grid(grid, engine="vectorized", ngpc=ngpc)

        service = SweepService(engine="vectorized", sweep_fn=slow_for_big)

        async def run():
            await service.sweep(SMALL_GRID)  # warm the cache
            cold = asyncio.ensure_future(service.sweep(BIG_GRID))
            await asyncio.sleep(0.1)  # cold sweep is now inside the executor
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
                await server.close()

        error = asyncio.run(run())
        assert error.status == 400
        assert error.code == "ambiguous-axis"
        assert error.details["axis"] == "clock_ghz"
        assert error.details["values"] == list(BIG_GRID.clocks_ghz)

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
                await server.close()

        not_on_grid, unknown, bad_grid = asyncio.run(run())
        assert not_on_grid.status == 404
        assert not_on_grid.code == "not-on-grid"
        assert not_on_grid.details["axis"] == "app"
        assert unknown.status == 404
        assert bad_grid.status == 400
        assert "bogus_axis" in bad_grid.message


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
