"""The batch reducers behind the dense queries, against whole planes.

:meth:`SweepResult.pareto_front` and the cheapest-point queries reduce
each cost cell over its batches slab by slab; :func:`reduce_batches`
does it for the streamed fronts.  Each is compared here with the
formulation over the whole plane:

- the front with ``argmax`` plus ``take_along_axis`` over the full
  speedup plane (all-apps mean or one app), ranked by
  :func:`pareto_front`;
- the cheapest point with ``np.argmin`` over the area masked by the
  target, batch included;
- :func:`reduce_batches` with ``argmax`` plus ``take_along_axis``.

Results come from :meth:`SweepResult.from_arrays` with edited timing
planes: ties across batches, infinities, NaN batches, a 3-app grid (the
mean divides by 3), and the slab size cut so the planes span many
slabs.
"""

import numpy as np
import pytest

import repro.core.ngpc
from repro.core.dse import (
    RESULT_ARRAY_FIELDS,
    SweepGrid,
    SweepResult,
    _samples_per_frame,
    _steps_per_s,
    _train_batch,
    design_point,
    pareto_front,
    query_slice,
    reduce_batches,
    sweep_grid,
)

SCHEME = "multi_res_hashgrid"

# zero times make infinite speedups on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:divide by zero encountered:RuntimeWarning"
)


def _grid(apps):
    return SweepGrid(
        apps=apps, schemes=(SCHEME,), scale_factors=(8, 16, 32),
        pixel_counts=(1920 * 1080,), clocks_ghz=(0.9, 1.2, 1.695),
        grid_sram_kb=(512, 1024), n_engines=(8, 16), n_batches=(2, 4, 8, 16),
    )


TWO_APPS = _grid(("nerf", "gia"))
THREE_APPS = _grid(("nerf", "gia", "nsdf"))


@pytest.fixture(params=[None, 16], ids=["one-slab", "many-slabs"])
def slab_points(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(repro.core.ngpc, "SLAB_POINTS", request.param)
    return request.param


def _edited(grid, edit):
    """A result of ``grid`` whose dense ``accelerated_ms`` plane
    ``edit(accelerated)`` changed in place (``baseline_ms`` is stored
    compact, so a speedup is set through the time)."""
    fresh = sweep_grid(grid, use_cache=False)
    arrays = {name: np.array(fresh.columns[name])
              for name in RESULT_ARRAY_FIELDS}
    accelerated = np.array(fresh.accelerated_ms)
    edit(accelerated)
    arrays["accelerated_ms"] = accelerated
    return SweepResult.from_arrays(fresh.grid, "edited", arrays)


def _time_for(baseline, speedup):
    """A time whose quotient ``baseline / time`` is ``speedup`` exactly."""
    time = baseline / speedup
    for _ in range(64):
        quotient = baseline / time
        if quotient == speedup:
            return time
        time = np.nextafter(time, 0.0 if quotient < speedup else np.inf)
    raise AssertionError(f"no time gives {baseline} / time == {speedup}")


def _speedup_plane(result):
    index = query_slice(result.grid, SCHEME).index
    return result.baseline_ms[index] / result.accelerated_ms[index]


def _reference_front(result, app):
    grid = result.grid
    speedup = _speedup_plane(result)
    benefit = (
        speedup.mean(axis=0) if app is None
        else speedup[grid.apps.index(app)]
    )
    batch = benefit.argmax(axis=-1)
    value = np.take_along_axis(benefit, batch[..., None], axis=-1)[..., 0]
    area4 = result.area_overhead_pct
    points = []
    for flat in pareto_front(area4.reshape(-1), value.reshape(-1)):
        cell = np.unravel_index(flat, area4.shape) + (int(batch.flat[flat]),)
        points.append(design_point(
            grid, area4, result.power_overhead_pct, cell,
            speedup[(slice(None),) + cell],
        ).to_dict())
    return points


def _front(result, app):
    return [p.to_dict() for p in result.pareto_front(SCHEME, app=app)]


def _reference_cheapest(result, app, feasible_of):
    grid = result.grid
    query = query_slice(grid, SCHEME)
    a = grid.apps.index(app)
    accelerated = result.accelerated_ms[query.index]
    area4 = result.area_overhead_pct
    feasible = feasible_of(accelerated[a])
    if not feasible.any():
        return None
    area = np.broadcast_to(area4[..., None], feasible.shape)
    cell = np.unravel_index(
        int(np.argmin(np.where(feasible, area, np.inf))), feasible.shape
    )
    speedups = result.baseline_ms[query.index] / accelerated
    return design_point(
        grid, area4, result.power_overhead_pct, cell,
        speedups[(slice(None),) + cell],
    ).to_dict()


def _cheapest(result, app, fps):
    hit = result.cheapest_point_meeting_fps(app, fps)
    return None if hit is None else hit.to_dict()


def _best_cell(result):
    """(scale, clock, SRAM, engines) index of the all-apps best speedup."""
    speedup = _speedup_plane(result)
    flat = int(speedup.mean(axis=0).max(axis=-1).argmax())
    return np.unravel_index(flat, speedup.shape[1:-1])


APPS = [None, "nerf", "gia"]


class TestFront:
    @pytest.mark.parametrize("grid", [TWO_APPS, THREE_APPS], ids=["2", "3"])
    @pytest.mark.parametrize("app", APPS)
    def test_plain_plane(self, grid, app, slab_points):
        result = _edited(grid, lambda a: None)
        assert _front(result, app) == _reference_front(result, app)

    @pytest.mark.parametrize("grid", [TWO_APPS, THREE_APPS], ids=["2", "3"])
    @pytest.mark.parametrize("app", APPS)
    def test_tie_across_batches_keeps_the_lower(self, grid, app, slab_points):
        cell = _best_cell(sweep_grid(grid, use_cache=False))

        def tie(accelerated):
            # batches 1 and 3 of the best cell: equal and fastest
            at = (slice(None), 0) + cell[:1] + (0,) + cell[1:]
            fast = accelerated.min() / 4
            accelerated[at + (1,)] = accelerated[at + (3,)] = fast

        result = _edited(grid, tie)
        front = _front(result, app)
        assert front == _reference_front(result, app)
        best = front[-1]  # the front's largest benefit
        assert dict(best["config_axes"])["n_batches"] == grid.n_batches[1]

    @pytest.mark.parametrize("grid", [TWO_APPS, THREE_APPS], ids=["2", "3"])
    @pytest.mark.parametrize("app", APPS)
    def test_infinities(self, grid, app, slab_points):
        rng = np.random.default_rng(5)

        def infinite(accelerated):
            shape = accelerated.shape
            # +inf speedups (a zero time) in a few batches of every app,
            # -inf ones (a -0.0 time) across whole cells
            hot = rng.random(shape[2:]) < 0.05
            accelerated[:, :, hot] = 0.0
            cold = rng.random(shape[2:-1]) < 0.1
            cold &= ~hot.any(axis=-1)
            accelerated[:, :, cold] = -0.0

        result = _edited(grid, infinite)
        front = _front(result, app)
        assert front == _reference_front(result, app)
        assert any(np.isinf(s) for p in front for s in p["speedups"].values())
        value = _speedup_plane(result)
        assert np.isneginf(value).any() and np.isposinf(value).any()

    def test_sums_that_round_to_one_mean_tie(self, slab_points):
        """3 + 2**-51 and 3 + 2**-50 differ, but both divide by 3 to
        1 + 2**-52: the dearer cell holding the larger sum ties the
        cheaper one's mean and stays off the front."""
        result = sweep_grid(THREE_APPS, use_cache=False)
        area4 = result.area_overhead_pct
        cheap = np.unravel_index(int(area4.argmin()), area4.shape)
        dear = np.unravel_index(int(area4.argmax()), area4.shape)
        assert area4[cheap] < area4[dear]

        baseline = np.asarray(result.baseline_ms)

        def near_tie(accelerated):
            accelerated *= 1e3  # every other speedup below 1
            for cell, last in ((cheap, 1 + 2.0**-51), (dear, 1 + 2.0**-50)):
                at = (0, cell[0], 0) + cell[1:] + (0,)
                for a, speedup in enumerate((1.0, 1.0, last)):
                    accelerated[(a,) + at] = _time_for(
                        baseline[(a,) + at], speedup
                    )

        result = _edited(THREE_APPS, near_tie)
        front = _front(result, None)
        assert front == _reference_front(result, None)
        assert front[-1]["speedups"]["nsdf"] == 1 + 2.0**-51
        assert all(p["speedups"]["nsdf"] != 1 + 2.0**-50 for p in front)

    @pytest.mark.parametrize("app", APPS)
    def test_nan_in_the_plane_raises(self, app, slab_points):
        def nan(accelerated):
            accelerated[(1, 0, 2, 0, 1, 0, 1, 2)] = np.nan  # a gia point

        result = _edited(THREE_APPS, nan)
        if app == "nerf":  # the NaN is not on nerf's plane
            assert _front(result, app) == _reference_front(result, app)
        else:
            with pytest.raises(ValueError, match="NaN"):
                result.pareto_front(SCHEME, app=app)


class TestCheapest:
    @pytest.mark.parametrize("grid", [TWO_APPS, THREE_APPS], ids=["2", "3"])
    @pytest.mark.parametrize("app", ["nerf", "gia"])
    def test_targets(self, grid, app, slab_points):
        result = _edited(grid, lambda a: None)
        fps = 1000.0 / np.asarray(result.accelerated_ms)
        for target in np.quantile(fps, [0.0, 0.2, 0.5, 0.9, 1.0]):
            budget = 1000.0 / target
            assert _cheapest(result, app, target) == _reference_cheapest(
                result, app, lambda ms: ms <= budget
            )
        assert _cheapest(result, app, fps.max() * 2) is None

    @pytest.mark.parametrize("app", ["nerf", "gia"])
    def test_train_rate_targets(self, app, slab_points):
        result = _edited(THREE_APPS, lambda a: None)
        samples = _samples_per_frame(app, SCHEME, 1920 * 1080)
        batch = _train_batch()
        rates = _steps_per_s(samples, batch, np.asarray(result.accelerated_ms))
        for target in np.quantile(rates, [0.0, 0.5, 1.0]):
            hit = result.cheapest_point_meeting_train_rate(app, target)
            assert (None if hit is None else hit.to_dict()) == \
                _reference_cheapest(
                    result, app,
                    lambda ms: _steps_per_s(samples, batch, ms) >= target,
                )

    def test_tie_across_batches_keeps_the_lower(self, slab_points):
        def tie(accelerated):
            accelerated[0, 0, 0, 0, :, :, :, 1] = 1.0
            accelerated[0, 0, 0, 0, :, :, :, 2] = 1.0
            accelerated[0, 0, 0, 0, :, :, :, 0] = 1e9

        result = _edited(TWO_APPS, tie)
        hit = _cheapest(result, "nerf", 1000.0)
        assert hit == _reference_cheapest(result, "nerf", lambda ms: ms <= 1.0)
        assert dict(hit["config_axes"])["n_batches"] == TWO_APPS.n_batches[1]

    def test_infinities(self, slab_points):
        def infinite(accelerated):
            accelerated[0, 0, 0, 0, :, :, :, :2] = np.inf
            accelerated[0, 0, 1, 0, 1, 1, 1, 3] = 0.0

        result = _edited(TWO_APPS, infinite)
        for fps in (1e-6, 1.0, 1e12, np.inf):
            budget = 1000.0 / fps
            assert _cheapest(result, "nerf", fps) == _reference_cheapest(
                result, "nerf", lambda ms: ms <= budget
            )
        assert _cheapest(result, "nerf", np.inf)["speedups"]["nerf"] == np.inf

    def test_a_nan_batch_is_skipped(self, slab_points):
        plain = _edited(TWO_APPS, lambda a: None)
        first = _reference_cheapest(plain, "nerf", lambda ms: ms <= np.inf)
        axes = dict(first["config_axes"])
        assert axes["n_batches"] == TWO_APPS.n_batches[0]

        def nan_first_batch(accelerated):
            # the cheapest cell's first batch is NaN; every cell of the
            # cheapest scale at the lowest clock is NaN in every batch
            accelerated[0, 0, 0, 0, :, :, :, 0] = np.nan
            accelerated[0, 0, 0, 0, 0, :, :, :] = np.nan

        result = _edited(TWO_APPS, nan_first_batch)
        for fps in (1e-6, 1.0):
            budget = 1000.0 / fps
            hit = _cheapest(result, "nerf", fps)
            assert hit == _reference_cheapest(
                result, "nerf", lambda ms: ms <= budget
            )
            assert dict(hit["config_axes"])["n_batches"] \
                == TWO_APPS.n_batches[1]


class TestReduceBatches:
    def _benefit(self, rng, shape):
        # few distinct values, so many cells tie across batches
        benefit = rng.integers(0, 4, shape).astype(float)
        benefit[rng.random(shape) < 0.05] = np.inf
        benefit[rng.random(shape) < 0.05] = -np.inf
        return benefit

    def test_unmasked_is_argmax_and_take_along_axis(self):
        rng = np.random.default_rng(1)
        benefit = self._benefit(rng, (3, 4, 5, 16))
        batch = benefit.argmax(axis=-1)
        value = np.take_along_axis(benefit, batch[..., None], axis=-1)[..., 0]
        got_value, got_batch = reduce_batches(benefit)
        np.testing.assert_array_equal(got_batch, batch)
        assert got_value.tobytes() == value.tobytes()

    def test_nan(self):
        benefit = np.arange(24, dtype=float).reshape(2, 3, 4)
        benefit[0, 1, 2] = benefit[0, 1, 3] = np.nan
        benefit[1, 2, 1] = np.nan
        # a NaN ranks first, as argmax ranks it
        value, batch = reduce_batches(benefit)
        assert batch[0, 1] == 2 and np.isnan(value[0, 1])
        assert batch[1, 2] == 1 and np.isnan(value[1, 2])
