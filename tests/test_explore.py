"""Acceptance suite for the adaptive exploration engine.

Three contracts, each pinned against the exhaustive dense path:

- **Golden equality**: every Pareto/cheapest/point answer an
  :class:`~repro.explore.AdaptiveExplorer` gives — through the Session
  facade or directly — is identical to the exhaustive
  :class:`~repro.core.dse.SweepResult`'s, including tie-breaks and the
  structured infeasible error, while evaluating a strict subset of the
  hypercube (≤10% on grids large enough to be worth exploring).
- **No block evaluates twice**: within one query, across queries on one
  handle, across ``session.sweep()`` calls on one design space, and —
  through the persistent store — across *processes* (a fresh explorer
  over a warm store evaluates nothing).
- **Bound-violation fallback**: the monotone-benefit assumption is
  *checked*, not trusted.  A deterministic non-monotone surface (a fake
  block runner; the real emulator is monotone by construction) must
  trip ``bound_violations`` and still produce exactly the dense
  answers via the exhaustive fallback.
"""

import asyncio

import numpy as np
import pytest

from repro.api import InfeasibleQueryError, Session, SweepGrid
from repro.api.session import ADAPTIVE_MIN_POINTS
from repro.core.dse import LocalBlockRunner, finalize_sweep_result, sweep_grid
from repro.explore import AdaptiveExplorer
from repro.store import StoreBlockRunner

#: multi-app, multi-scheme, tie-rich: every query kind has something to
#: bite, yet small enough to evaluate exhaustively for the golden answers
GOLDEN_GRID = SweepGrid(
    apps=("nerf", "gia"),
    schemes=("multi_res_hashgrid", "multi_res_densegrid"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)

FPS_TARGETS = (1.0, 30.0, 60.0, 240.0, 10.0**9)


def all_pareto_queries(grid):
    for scheme in grid.schemes:
        for n_pixels in grid.pixel_counts:
            for app in (None,) + tuple(grid.apps):
                yield dict(scheme=scheme, n_pixels=n_pixels, app=app)


def all_cheapest_queries(grid):
    for scheme in grid.schemes:
        for n_pixels in grid.pixel_counts:
            for app in grid.apps:
                for fps in FPS_TARGETS:
                    yield dict(app=app, fps=fps, n_pixels=n_pixels,
                               scheme=scheme)


def points_dicts(points):
    return [p.to_dict() for p in points]


# ---------------------------------------------------------------------------
# golden equality: adaptive == exhaustive, evaluating less
# ---------------------------------------------------------------------------


class TestGoldenEquality:
    @pytest.fixture(scope="class")
    def golden(self):
        return sweep_grid(GOLDEN_GRID)

    @pytest.fixture(scope="class")
    def explorer(self):
        return AdaptiveExplorer(GOLDEN_GRID)

    def test_pareto_fronts_identical(self, golden, explorer):
        for q in all_pareto_queries(golden.grid):
            got = explorer.pareto(q["scheme"], n_pixels=q["n_pixels"],
                                  app=q["app"])
            want = golden.pareto_front(q["scheme"], n_pixels=q["n_pixels"],
                                       app=q["app"])
            assert points_dicts(got) == points_dicts(want), q

    def test_cheapest_identical_including_infeasible(self, golden, explorer):
        for q in all_cheapest_queries(golden.grid):
            want = golden.cheapest_point_meeting_fps(
                q["app"], q["fps"], n_pixels=q["n_pixels"], scheme=q["scheme"]
            )
            if want is None:
                with pytest.raises(InfeasibleQueryError) as excinfo:
                    explorer.cheapest(q["app"], q["fps"],
                                      n_pixels=q["n_pixels"],
                                      scheme=q["scheme"])
                exc = excinfo.value
                assert exc.app == q["app"]
                assert exc.fps == q["fps"]
                assert exc.scheme == q["scheme"]
                # best_fps is the exact dense maximum (same float)
                i = golden.grid.apps.index(q["app"])
                j = golden.grid.schemes.index(q["scheme"])
                assert exc.best_fps == float(golden.fps[i, j, :, 0].max())
            else:
                got = explorer.cheapest(q["app"], q["fps"],
                                        n_pixels=q["n_pixels"],
                                        scheme=q["scheme"])
                assert got.to_dict() == want.to_dict(), q

    def test_point_identical(self, golden, explorer):
        got = explorer.point("gia", "multi_res_densegrid", 16,
                             golden.grid.pixel_counts[0],
                             clock_ghz=1.695, grid_sram_kb=512, n_batches=8)
        want = golden.point("gia", "multi_res_densegrid", 16,
                            golden.grid.pixel_counts[0],
                            clock_ghz=1.695, grid_sram_kb=512, n_batches=8)
        assert got.accelerated_ms == want.accelerated_ms
        assert got.baseline_ms == want.baseline_ms

    def test_no_bound_violations_on_the_real_surface(self, explorer):
        # the queries above ran; the real emulator is monotone, so the
        # fallback path must never have fired
        assert explorer.stats.bound_violations == 0

    def test_large_grid_explores_at_most_ten_percent(self):
        # the headline contract on a >=1M-point grid: one Pareto front
        # and one cheapest query touch <=10% of the hypercube
        grid = SweepGrid(
            apps=("nerf", "gia"),
            scale_factors=tuple(2 ** i for i in range(8)),
            clocks_ghz=tuple(0.5 + 0.05 * i for i in range(32)),
            grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
            n_engines=tuple(2 ** i for i in range(8)),
            n_batches=tuple(2 ** i for i in range(16)),
        )
        assert grid.size >= 1_000_000
        explorer = AdaptiveExplorer(grid)
        front = explorer.pareto(grid.schemes[0],
                                n_pixels=grid.pixel_counts[0])
        hit = explorer.cheapest("nerf", 60.0,
                                n_pixels=grid.pixel_counts[0],
                                scheme=grid.schemes[0])
        assert front and hit is not None
        stats = explorer.stats
        assert stats.points_evaluated <= 0.10 * stats.points_total
        assert stats.bound_violations == 0


# ---------------------------------------------------------------------------
# the Session facade: explore= modes
# ---------------------------------------------------------------------------


class TestSessionExploreModes:
    def test_explicit_adaptive_matches_exhaustive(self):
        session = Session.local(engine="vectorized")
        exhaustive = session.sweep(GOLDEN_GRID, explore="exhaustive")
        adaptive = session.sweep(GOLDEN_GRID, explore="adaptive")
        assert exhaustive.explore == "exhaustive"
        assert adaptive.explore == "adaptive"
        assert adaptive.explore_stats is not None
        assert exhaustive.explore_stats is None
        for q in all_pareto_queries(adaptive.grid):
            assert points_dicts(
                adaptive.pareto(scheme=q["scheme"], n_pixels=q["n_pixels"],
                                app=q["app"])
            ) == points_dicts(
                exhaustive.pareto(scheme=q["scheme"], n_pixels=q["n_pixels"],
                                  app=q["app"])
            )

    def test_infeasible_error_identical_across_explore_modes(self):
        session = Session.local(engine="vectorized")
        payloads = []
        for mode in ("exhaustive", "adaptive"):
            sweep = session.sweep(GOLDEN_GRID, explore=mode)
            with pytest.raises(InfeasibleQueryError) as excinfo:
                sweep.cheapest(app="gia", fps=10.0**9,
                               scheme="multi_res_hashgrid")
            exc = excinfo.value
            payloads.append((str(exc), exc.app, exc.fps, exc.n_pixels,
                             exc.scheme, exc.best_fps))
        assert payloads[0] == payloads[1]

    def test_auto_picks_by_grid_size(self):
        session = Session.local(engine="vectorized")
        small = session.sweep(GOLDEN_GRID)  # default explore="auto"
        assert small.explore == "exhaustive"
        big_grid = SweepGrid(
            scale_factors=tuple(2 ** i for i in range(8)),
            clocks_ghz=tuple(0.5 + 0.05 * i for i in range(8)),
            grid_sram_kb=tuple(2 ** (4 + i) for i in range(8)),
            n_engines=tuple(2 ** i for i in range(8)),
            n_batches=tuple(2 ** i for i in range(8)),
        )
        assert big_grid.size >= ADAPTIVE_MIN_POINTS
        big = session.sweep(big_grid)  # lazy: nothing evaluates here
        assert big.explore == "adaptive"
        assert big.explore_stats["points_evaluated"] == 0

    def test_invalid_mode_and_remote_adaptive_are_rejected(self):
        session = Session.local(engine="vectorized")
        with pytest.raises(ValueError, match="explore must be one of"):
            session.sweep(GOLDEN_GRID, explore="greedy")
        remote = Session.remote(port=1)  # never connects: fails before IO
        with pytest.raises(ValueError, match="not available on the 'remote'"):
            remote.sweep(GOLDEN_GRID, explore="adaptive")

    def test_result_property_forces_dense_evaluation(self):
        session = Session.local(engine="vectorized")
        adaptive = session.sweep(GOLDEN_GRID, explore="adaptive")
        exhaustive = session.sweep(GOLDEN_GRID, explore="exhaustive")
        np.testing.assert_array_equal(
            adaptive.result.accelerated_ms, exhaustive.result.accelerated_ms
        )
        assert adaptive.records(limit=5) == exhaustive.records(limit=5)


# ---------------------------------------------------------------------------
# never evaluate a block twice
# ---------------------------------------------------------------------------


class TestBlockDedup:
    def test_repeated_queries_evaluate_nothing_new(self):
        session = Session.local(engine="vectorized")
        sweep = session.sweep(GOLDEN_GRID, explore="adaptive")
        first = [
            points_dicts(sweep.pareto(scheme=q["scheme"],
                                      n_pixels=q["n_pixels"], app=q["app"]))
            for q in all_pareto_queries(sweep.grid)
        ]
        evaluated = sweep.explore_stats["points_evaluated"]
        blocks = sweep.explore_stats["blocks_evaluated"]
        second = [
            points_dicts(sweep.pareto(scheme=q["scheme"],
                                      n_pixels=q["n_pixels"], app=q["app"]))
            for q in all_pareto_queries(sweep.grid)
        ]
        assert second == first
        assert sweep.explore_stats["points_evaluated"] == evaluated
        assert sweep.explore_stats["blocks_evaluated"] == blocks

    def test_resweep_of_same_space_shares_the_explorer(self):
        session = Session.local(engine="vectorized")
        sweep = session.sweep(GOLDEN_GRID, explore="adaptive")
        sweep.pareto(scheme="multi_res_hashgrid")
        evaluated = sweep.explore_stats["points_evaluated"]
        respelled = SweepGrid(
            apps=tuple(reversed(GOLDEN_GRID.apps)),
            schemes=tuple(reversed(GOLDEN_GRID.schemes)),
            scale_factors=(64, 8, 32, 16),
            clocks_ghz=(1.695, 0.8),
            grid_sram_kb=GOLDEN_GRID.grid_sram_kb,
            n_batches=GOLDEN_GRID.n_batches,
        )
        again = session.sweep(respelled, explore="adaptive")
        again.pareto(scheme="multi_res_hashgrid")
        assert again.explore_stats["points_evaluated"] == evaluated

    def test_fresh_explorer_over_warm_store_evaluates_nothing(self, tmp_path):
        store_dir = str(tmp_path / "results")
        warm = Session(store=store_dir)
        sweep = warm.sweep(GOLDEN_GRID, explore="adaptive")
        front = points_dicts(sweep.pareto(scheme="multi_res_hashgrid"))
        hit = sweep.cheapest(app="nerf", fps=60.0,
                             scheme="multi_res_hashgrid").to_dict()
        assert sweep.explore_stats["blocks_evaluated"] > 0

        # a new session (fresh explorer, same directory) must answer
        # identically from persisted blocks alone
        cold = Session(store=store_dir)
        sweep2 = cold.sweep(GOLDEN_GRID, explore="adaptive")
        assert points_dicts(
            sweep2.pareto(scheme="multi_res_hashgrid")
        ) == front
        assert sweep2.cheapest(app="nerf", fps=60.0,
                               scheme="multi_res_hashgrid").to_dict() == hit
        stats = sweep2.explore_stats
        assert stats["blocks_evaluated"] == 0
        assert stats["blocks_cached"] == stats["blocks_total"]

    def test_store_runner_wiring(self, tmp_path):
        backend = Session(store=str(tmp_path / "r")).backend
        runner = backend.block_runner()
        assert isinstance(runner, StoreBlockRunner)
        assert isinstance(runner.inner, LocalBlockRunner)


# ---------------------------------------------------------------------------
# bound-violation fallback on a hostile (non-monotone) surface
# ---------------------------------------------------------------------------

#: per-app scaling of the fake surface (distinct per app so per-app and
#: mean-mode Pareto queries genuinely differ)
_FAKE_APP_FACTOR = {"nerf": 1.0, "nsdf": 1.3, "gia": 1.7, "nvr": 2.1}


def _fake_arrays(app, scales, pixels, clocks, srams, engines, batches):
    """A deterministic, non-monotone timing surface.

    Non-monotone in every architecture axis (the sine), monotone
    nonincreasing along batches (the engine's batch-axis dominance rule
    is load-bearing for correctness and is kept intact; the *benefit*
    monotonicity is what this surface violates).  Computed elementwise
    from axis values, so block-wise and dense evaluations produce
    bit-identical floats.
    """
    kk, pp, cc, gg, ee, bb = np.meshgrid(
        np.asarray(scales, dtype=float), np.asarray(pixels, dtype=float),
        np.asarray(clocks, dtype=float), np.asarray(srams, dtype=float),
        np.asarray(engines, dtype=float), np.asarray(batches, dtype=float),
        indexing="ij",
    )
    phase = (0.7 * np.log2(kk) + 2.3 * cc + 0.9 * np.log2(gg)
             + 1.9 * np.log2(ee))
    accelerated = (
        (5.0 + 3.0 * np.sin(phase)) / (1.0 + np.log2(bb))
        * _FAKE_APP_FACTOR[app]
    )
    baseline = np.full_like(accelerated, 120.0)
    return baseline, accelerated


class FakeRunner:
    """Block runner serving the fake surface (never touches the emulator)."""

    name = "fake"

    def __init__(self):
        self.calls = 0

    def evaluate(self, tasks):
        out = []
        for task in tasks:
            self.calls += 1
            app = task[0]
            baseline, accelerated = _fake_arrays(app, *task[2:])
            block = {
                "baseline_ms": baseline,
                "accelerated_ms": accelerated,
                "encoding_engine_ms": np.zeros_like(accelerated),
                "mlp_engine_ms": np.zeros_like(accelerated),
                "dma_ms": np.zeros_like(accelerated),
                "fused_rest_ms": np.zeros_like(accelerated),
                "amdahl_bound": 1.0,
            }
            out.append((block, False))
        return out


FAKE_GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.6, 0.9, 1.2, 1.5),
    grid_sram_kb=(256, 512, 1024),
    n_engines=(8, 16, 32),
    n_batches=(4, 8, 16),
)


def _fake_dense_result(grid):
    """The exhaustive golden answers on the fake surface."""
    resolved = grid.resolve()
    shape = resolved.shape
    arrays = {
        name: np.zeros(shape)
        for name in ("encoding_engine_ms", "mlp_engine_ms", "dma_ms",
                     "fused_rest_ms")
    }
    arrays["baseline_ms"] = np.empty(shape)
    arrays["accelerated_ms"] = np.empty(shape)
    arrays["amdahl_bound"] = np.ones(shape[:2])
    for i, app in enumerate(resolved.apps):
        for j, _scheme in enumerate(resolved.schemes):
            baseline, accelerated = _fake_arrays(
                app, resolved.scale_factors, resolved.pixel_counts,
                resolved.clocks_ghz, resolved.grid_sram_kb,
                resolved.n_engines, resolved.n_batches,
            )
            arrays["baseline_ms"][i, j] = baseline
            arrays["accelerated_ms"][i, j] = accelerated
    return finalize_sweep_result(resolved, "fake", None, arrays)


class TestBoundViolationFallback:
    @pytest.fixture(scope="class")
    def dense(self):
        return _fake_dense_result(FAKE_GRID)

    @pytest.fixture(scope="class")
    def explorer(self):
        return AdaptiveExplorer(FAKE_GRID, runner=FakeRunner())

    def test_pareto_detects_violations_and_stays_exact(self, dense, explorer):
        for q in all_pareto_queries(dense.grid):
            got = explorer.pareto(q["scheme"], n_pixels=q["n_pixels"],
                                  app=q["app"])
            want = dense.pareto_front(q["scheme"], n_pixels=q["n_pixels"],
                                      app=q["app"])
            assert points_dicts(got) == points_dicts(want), q
        # the sine surface breaks monotone benefit everywhere: the checks
        # must have tripped and flipped the queries into dense fallback
        assert explorer.stats.bound_violations > 0

    def test_cheapest_exact_on_the_hostile_surface(self, dense, explorer):
        for q in all_cheapest_queries(dense.grid):
            want = dense.cheapest_point_meeting_fps(
                q["app"], q["fps"], n_pixels=q["n_pixels"], scheme=q["scheme"]
            )
            if want is None:
                with pytest.raises(InfeasibleQueryError):
                    explorer.cheapest(q["app"], q["fps"],
                                      n_pixels=q["n_pixels"],
                                      scheme=q["scheme"])
            else:
                got = explorer.cheapest(q["app"], q["fps"],
                                        n_pixels=q["n_pixels"],
                                        scheme=q["scheme"])
                assert got.to_dict() == want.to_dict(), q


# ---------------------------------------------------------------------------
# the sweep service in adaptive mode
# ---------------------------------------------------------------------------


class TestServiceAdaptive:
    def test_adaptive_service_matches_exhaustive(self):
        from repro.service import SweepService

        async def run():
            adaptive = SweepService(engine="vectorized", explore="adaptive")
            exhaustive = SweepService(engine="vectorized")
            grid = GOLDEN_GRID.to_dict()
            front_a = await adaptive.pareto_front(
                grid, scheme="multi_res_hashgrid"
            )
            front_e = await exhaustive.pareto_front(
                grid, scheme="multi_res_hashgrid"
            )
            hit_a = await adaptive.cheapest_point_meeting_fps(
                grid, "nerf", 60.0, scheme="multi_res_hashgrid"
            )
            hit_e = await exhaustive.cheapest_point_meeting_fps(
                grid, "nerf", 60.0, scheme="multi_res_hashgrid"
            )
            none_a = await adaptive.cheapest_point_meeting_fps(
                grid, "nerf", 10.0**9, scheme="multi_res_hashgrid"
            )
            return adaptive, front_a, front_e, hit_a, hit_e, none_a

        adaptive, front_a, front_e, hit_a, hit_e, none_a = asyncio.run(run())
        assert points_dicts(front_a) == points_dicts(front_e)
        assert hit_a.to_dict() == hit_e.to_dict()
        # the HTTP layer's result:null contract holds in both modes
        assert none_a is None
        stats = adaptive.stats()["explore"]
        assert stats["mode"] == "adaptive"
        assert stats["grids"] == 1
        assert 0 < stats["points_evaluated"] <= stats["points_total"]
        # adaptive mode never ran a dense sweep
        assert adaptive.evaluations == 0

    def test_exhaustive_service_reports_mode(self):
        from repro.service import SweepService

        service = SweepService(engine="vectorized")
        assert service.stats()["explore"] == {"mode": "exhaustive"}

    def test_adaptive_rejects_injected_sweep_fn(self):
        from repro.service import SweepService

        with pytest.raises(ValueError, match="adaptive"):
            SweepService(explore="adaptive", sweep_fn=lambda *a, **k: None)
        with pytest.raises(ValueError, match="explore must be"):
            SweepService(explore="sometimes")
