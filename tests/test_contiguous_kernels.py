"""The dense answer's two inner loops, pinned to what they replaced.

- :func:`repro.core.ngpc.pipeline_total_ms_batch` runs its passes over
  contiguous slabs (batch counts tiled once per call, stage times
  repeated along the batch axis).  Its bits must equal the broadcast slab
  loop it replaced, copied here as :func:`_broadcast_slab_loop`, on
  every layout the emulator hands it: the seed grid, the ``served``
  layout (rest time varying along pixels), extended grids (encoding
  axes behind the batch axis), a single batch, a scalar batch count,
  a strided ``out`` slot and ``out=None``; with the slab size cut so
  small grids span many slabs.
- :func:`repro.core.dse.pareto_front` ranks each distinct cost once.
  Its indices must equal the ``np.lexsort`` ranking it replaced, copied
  here as :func:`_lexsort_front`, on tie-heavy random points and on the
  ``adaptive``-shaped plane's batch-reduced cells
  (:func:`~repro.core.dse.reduce_batches`); a NaN raises.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.emulator
import repro.core.ngpc
from repro.core.dse import (
    SweepGrid,
    evaluate_block,
    pareto_front,
    query_slice,
    reduce_batches,
    shard_plan,
    sweep_grid,
)
from repro.core.ngpc import _slab_of, pipeline_total_ms_batch, slabs
from tests.test_dense_allocation import ADAPTIVE_GRID
from tests.test_stream import EXTENDED_GRID, GRID, SCHEME

FHD = 1920 * 1080


# ---------------------------------------------------------------------------
# the makespan kernel
# ---------------------------------------------------------------------------


def _broadcast_slab_loop(ngpc_time_ms, rest_time_ms, n_batches, out=None):
    """The makespan kernel as it was: broadcast operands, one slab at a
    time, the batch axis as the inner loop."""
    n_batches = np.asarray(n_batches)
    if np.any(n_batches < 1):
        raise ValueError("need at least one batch")
    n_batches = n_batches.astype(np.float64)
    operands = [np.asarray(ngpc_time_ms), np.asarray(rest_time_ms), n_batches]
    shape = np.broadcast(*operands).shape
    if out is None:
        out = np.empty(shape)
    ngpc, rest, batches = (
        a if a.ndim == len(shape)
        else a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
        for a in operands
    )
    for index in slabs(shape):
        slab_batches = _slab_of(batches, index)
        ngpc_batch = _slab_of(ngpc, index) / slab_batches
        rest_batch = _slab_of(rest, index) / slab_batches
        total = np.maximum(ngpc_batch, rest_batch, out=out[index + (...,)])
        total *= slab_batches - 1.0
        total += ngpc_batch
        total += rest_batch
    return out


#: grids whose blocks hand the kernel each layout it receives
LAYOUTS = {
    "seed": GRID,
    # two pixel counts: the rest time varies along pixels
    "served": SweepGrid(
        apps=("nerf", "gia"), schemes=(SCHEME,),
        scale_factors=(8, 16, 32), pixel_counts=(FHD, 3840 * 2160),
        clocks_ghz=(0.6, 1.2, 1.8), grid_sram_kb=(256, 1024),
        n_engines=(4, 16), n_batches=(4, 8, 16, 32),
    ),
    "extended": EXTENDED_GRID,
    # encoding axes behind a swept batch axis
    "extended-batches": SweepGrid(
        apps=("nerf",), schemes=(SCHEME,), scale_factors=(8, 32),
        clocks_ghz=(0.8, 1.2), n_batches=(2, 8, 32),
        gridtypes=("hash", "tiled"), log2_hashmap_sizes=(14, 19),
    ),
    "single-batch": SweepGrid(
        apps=("nerf",), schemes=(SCHEME,), scale_factors=(8, 16, 32, 64),
        clocks_ghz=(0.8, 1.0, 1.2), n_batches=(16,),
    ),
    "adaptive": ADAPTIVE_GRID,
}


def _kernel_calls(grid, monkeypatch):
    """The (ngpc, rest, batches) operands the emulator hands the kernel
    for each block of ``grid``, one block per (app, scheme) pair as a
    local sweep plans them."""
    calls = []

    def record(ngpc_time, rest, batches, out=None):
        calls.append((ngpc_time, rest, batches))
        return pipeline_total_ms_batch(ngpc_time, rest, batches, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(repro.core.emulator, "pipeline_total_ms_batch", record)
        grid = grid.resolve()
        for _, task in shard_plan(grid, len(grid.apps) * len(grid.schemes)):
            evaluate_block(task)
    assert calls
    return calls


def _strided_slot(shape):
    """A NaN-filled array twice ``shape``'s size along its batch axis,
    and its every-other-batch slot of ``shape``."""
    axis = min(5, len(shape) - 1)
    wide = list(shape)
    wide[axis] *= 2
    backing = np.full(wide, np.nan)
    index = [slice(None)] * len(shape)
    index[axis] = slice(None, None, 2)
    return backing, backing[tuple(index)]


class TestMakespanKernel:
    # the full-size adaptive grid runs at the real slab size only
    @pytest.mark.parametrize("layout, slab_points", [
        (layout, points) for layout in LAYOUTS for points in (None, 64, 8)
        if layout != "adaptive" or points is None
    ])
    def test_bits_equal_the_broadcast_slab_loop(
        self, monkeypatch, layout, slab_points
    ):
        calls = _kernel_calls(LAYOUTS[layout], monkeypatch)
        if slab_points is not None:
            monkeypatch.setattr(repro.core.ngpc, "SLAB_POINTS", slab_points)
        for args in calls:
            expected = _broadcast_slab_loop(*args)
            fresh = pipeline_total_ms_batch(*args)
            assert fresh.shape == expected.shape
            assert fresh.tobytes() == expected.tobytes()
            given = np.full(expected.shape, np.nan)
            assert pipeline_total_ms_batch(*args, out=given) is given
            assert given.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["seed", "served", "extended-batches"])
    @pytest.mark.parametrize("slab_points", [None, 64])
    def test_strided_slot_is_written_in_place(
        self, monkeypatch, layout, slab_points
    ):
        calls = _kernel_calls(LAYOUTS[layout], monkeypatch)
        if slab_points is not None:
            monkeypatch.setattr(repro.core.ngpc, "SLAB_POINTS", slab_points)
        for args in calls:
            expected = _broadcast_slab_loop(*args)
            backing, slot = _strided_slot(expected.shape)
            assert not slot.flags.c_contiguous
            assert pipeline_total_ms_batch(*args, out=slot) is slot
            assert np.ascontiguousarray(slot).tobytes() == expected.tobytes()
            # every other entry of the backing array is untouched
            assert np.isnan(backing).sum() == expected.size

    @pytest.mark.parametrize("slab_points", [None, 64])
    @pytest.mark.parametrize("n_batches", [1, 4, np.int64(64), 7.0])
    def test_scalar_batch_count(self, monkeypatch, slab_points, n_batches):
        ngpc_time, rest, _ = _kernel_calls(LAYOUTS["served"], monkeypatch)[0]
        if slab_points is not None:
            monkeypatch.setattr(repro.core.ngpc, "SLAB_POINTS", slab_points)
        expected = _broadcast_slab_loop(ngpc_time, rest, n_batches)
        got = pipeline_total_ms_batch(ngpc_time, rest, n_batches)
        assert got.tobytes() == expected.tobytes()

    def test_all_scalar_operands(self):
        got = pipeline_total_ms_batch(3.0, 5.0, 4)
        assert got.shape == ()
        assert got.tobytes() == _broadcast_slab_loop(3.0, 5.0, 4).tobytes()

    @pytest.mark.parametrize("ngpc_time, rest, n_batches", [
        (np.ones((0, 1)), 1.0, np.array([1, 2, 4])),
        (np.ones((3, 1)), np.ones((3, 1)), np.array([], dtype=np.int64)),
    ], ids=["no-cells", "no-batches"])
    def test_empty_operands(self, ngpc_time, rest, n_batches):
        got = pipeline_total_ms_batch(ngpc_time, rest, n_batches)
        expected = _broadcast_slab_loop(ngpc_time, rest, n_batches)
        assert got.shape == expected.shape and got.size == 0

    def test_batch_counts_below_one_raise(self):
        with pytest.raises(ValueError, match="at least one batch"):
            pipeline_total_ms_batch(np.ones(3), 1.0, np.array([1, 0, 2]))


# ---------------------------------------------------------------------------
# the Pareto ranker
# ---------------------------------------------------------------------------


def _lexsort_front(costs, values):
    """The ranker as it was: lexsort by (cost, -value), then a running
    max over every point."""
    costs = np.asarray(costs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if costs.size == 0:
        return []
    order = np.lexsort((-values, costs))
    sorted_values = values[order]
    prev_max = np.empty_like(sorted_values)
    prev_max[0] = -np.inf
    np.maximum.accumulate(sorted_values[:-1], out=prev_max[1:])
    return [int(i) for i in order[sorted_values > prev_max]]


#: few distinct values, so ties and exact duplicates are the rule
_COSTS = st.sampled_from([-np.inf, -0.0, 0.0, 0.5, 1.0, 2.5, 7.0, np.inf])
_VALUES = st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 1.0, 3.0, np.inf])


class TestParetoRanker:
    @given(st.lists(st.tuples(_COSTS, _VALUES), max_size=80))
    @settings(max_examples=300, deadline=None)
    @example([])
    @example([(1.0, 2.0)])
    @example([(1.0, np.inf), (1.0, np.inf), (1.0, -np.inf)])
    @example([(2.0, 3.0), (2.0, 3.0), (1.0, 3.0), (1.0, 3.0)])
    def test_equals_the_lexsort_ranking(self, points):
        costs = [c for c, _ in points]
        values = [v for _, v in points]
        assert pareto_front(costs, values) == _lexsort_front(costs, values)

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.floats(-10, 10, width=16)),
        max_size=200,
    ))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lexsort_ranking_on_wider_values(self, points):
        costs = [float(c) for c, _ in points]
        values = [v for _, v in points]
        assert pareto_front(costs, values) == _lexsort_front(costs, values)

    @given(st.lists(_VALUES, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_single_cost_keeps_its_lowest_index_max(self, values):
        front = pareto_front([1.0] * len(values), values)
        assert front == _lexsort_front([1.0] * len(values), values)
        if max(values) > -np.inf:
            assert front == [values.index(max(values))]

    def test_random_cloud(self):
        rng = np.random.default_rng(7)
        costs = rng.integers(0, 50, 20_000).astype(float)
        values = rng.random(20_000)
        assert pareto_front(costs, values) == _lexsort_front(costs, values)

    @pytest.mark.parametrize("costs, values, name", [
        ([1.0, 2.0], [np.nan, 5.0], "values"),
        ([np.nan, 2.0], [1.0, 5.0], "costs"),
        ([1.0, np.nan], [np.nan, 5.0], "costs"),
    ])
    def test_nan_raises(self, costs, values, name):
        with pytest.raises(ValueError, match=name):
            pareto_front(costs, values)

    def test_adaptive_plane_through_ranked_cells(self):
        """The batch-reduced cells of the ``adaptive`` plane, ranked."""
        result = sweep_grid(ADAPTIVE_GRID, use_cache=False)
        query = query_slice(ADAPTIVE_GRID, SCHEME)
        speedup = result.speedup[query.index]
        costs = result.area_overhead_pct.reshape(-1)
        for benefit in (speedup.mean(axis=0), speedup[0], speedup[1]):
            value, _ = reduce_batches(benefit)
            values = value.reshape(-1)
            expected = _lexsort_front(costs, values)
            assert pareto_front(costs, values) == expected
            assert expected
