"""One grid-sized allocation per dense answer.

A dense sweep allocates its result columns once (:func:`run_plan`); an
in-process block's kernel writes ``accelerated_ms`` straight into its
slot of that column, and the queries read the stored columns one slab
at a time instead of building grid-sized ``speedup``/``fps``/training
rate arrays.  Pinned here:

- in-place blocks equal fresh :func:`evaluate_block` blocks bit for
  bit, bare and under the result store (whose stored blocks are still
  copied in);
- the slabbed Pareto front and cheapest point (fps and training rate)
  equal the whole-plane formulation they replace, on the seed, split-
  batch, tie and extended grids, with the slab size cut so every grid
  spans many slabs, and on a grid with more scale rows than one slab at
  the real size;
- ``tracemalloc`` peaks on an ``adaptive``-shaped 1,048,576-point grid,
  as multiples of ``accelerated_ms.nbytes``: no timing involved; and
  on a ``cluster_stream``-shaped grid, a streamed sweep's
  :class:`~repro.service.progress.PartialSweep` built and fed its first
  block below an eighth of ``accelerated_ms.nbytes``.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.ngpc
from repro.core.dse import (
    LocalBlockRunner,
    SweepGrid,
    axis_index,
    block_fingerprint,
    design_point,
    evaluate_block,
    pareto_front,
    query_slice,
    run_plan,
    shard_plan,
    store_block_plan,
    stream_plan,
    sweep_grid,
    task_shape,
)
from repro.service.progress import PartialSweep
from repro.store import ResultStore, tiered_sweep
from tests.test_stream import BATCH_GRID, EXTENDED_GRID, GRID, SCHEME, TIE_GRID

FHD = 1920 * 1080

#: the shape of layerbench's ``adaptive`` question: 2 apps x 8 scales x
#: 32 clocks x 16 SRAM sizes x 8 engine counts x 16 batch counts
ADAPTIVE_GRID = SweepGrid(
    apps=("nerf", "gia"), schemes=(SCHEME,),
    scale_factors=tuple(2 ** i for i in range(8)), pixel_counts=(FHD,),
    clocks_ghz=tuple(float(c) for c in np.linspace(0.5, 2.1, 32)),
    grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
    n_engines=tuple(2 ** i for i in range(8)),
    n_batches=tuple(2 ** i for i in range(16)),
)

#: the shape of layerbench's ``cluster_stream`` question: 4 apps x 4
#: scales x 2 pixel counts x 64 clocks x 12 SRAM sizes x 6 engine counts
#: x 6 batch counts, 884,736 points streamed in 128 blocks
CLUSTER_STREAM_GRID = SweepGrid(
    apps=("nerf", "gia", "nsdf", "nvr"), schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64), pixel_counts=(1_000_000, FHD),
    clocks_ghz=tuple(float(c) for c in np.linspace(0.6, 1.8, 64)),
    grid_sram_kb=tuple(16 << k for k in range(12)),
    n_engines=(2, 4, 8, 16, 32, 64), n_batches=(1, 2, 4, 8, 16, 32),
)

#: 65,536 points (both apps) per scale row: a slab holds one scale row,
#: so the plane spans four slabs at the real slab size
ROWS_GRID = SweepGrid(
    apps=("nerf", "gia"), schemes=(SCHEME,),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=tuple(float(c) for c in np.linspace(0.6, 1.8, 16)),
    grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
    n_engines=(1, 2, 4, 8, 16, 32, 64, 128),
    n_batches=tuple(2 ** i for i in range(16)),
)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _assert_blocks_equal(block, fresh):
    assert set(block) == set(fresh)
    for name, column in fresh.items():
        got = np.asarray(block[name])
        assert got.shape == np.shape(column), name
        assert _bits(got) == _bits(column), name


class TestInPlaceBlocks:
    @pytest.mark.parametrize("grid", [GRID, BATCH_GRID, EXTENDED_GRID],
                             ids=["seed", "split-batches", "extended"])
    def test_in_place_blocks_equal_fresh_blocks(self, grid):
        grid = grid.resolve()
        plan = shard_plan(grid, 6)
        landed = {}
        result = run_plan(
            grid, plan, LocalBlockRunner(), "vectorized",
            on_block=lambda placement, block: landed.update(
                {placement: block}
            ),
        )
        assert len(landed) == len(plan)
        column = result.columns["accelerated_ms"]
        for placement, task in plan:
            block = landed[placement]
            # the kernel wrote the block into the result itself
            assert np.shares_memory(block["accelerated_ms"], column)
            _assert_blocks_equal(block, evaluate_block(task))

    def test_store_blocks_equal_fresh_blocks(self, tmp_path):
        grid = GRID.resolve()
        plan = store_block_plan(grid)
        reference = sweep_grid(grid, use_cache=False)
        root = tmp_path / "store"
        # the first sweep evaluates every block into the result; the
        # second, its whole-sweep entry dropped, loads and copies them
        for in_place in (True, False):
            landed = []
            result = tiered_sweep(
                grid, store=ResultStore(str(root)),
                on_block=lambda placement, block: landed.append(block),
            )
            assert len(landed) == len(plan)
            column = result.columns["accelerated_ms"]
            for block in landed:
                assert np.shares_memory(block["accelerated_ms"], column) \
                    == in_place
            for name, array in reference.columns.items():
                assert _bits(result.columns[name]) == _bits(array), name
            for path in (root / "sweeps").iterdir():
                path.unlink()
        store = ResultStore(str(root))
        for _, task in plan:
            stored = store.load_block(block_fingerprint(task), task_shape(task))
            _assert_blocks_equal(stored, evaluate_block(task))


# ---------------------------------------------------------------------------
# the slabbed queries against the whole-plane formulation
# ---------------------------------------------------------------------------


def _whole_plane_front(result, query, app):
    """``argmax`` + ``take_along_axis`` over the whole speedup plane,
    ranked by :func:`pareto_front`, as design points."""
    grid = result.grid
    speedup = result.speedup[query.index]
    benefit = (
        speedup.mean(axis=0) if app is None
        else speedup[axis_index("app", app, grid.apps)]
    )
    batch = benefit.argmax(axis=-1)
    value = np.take_along_axis(benefit, batch[..., None], axis=-1)[..., 0]
    area4 = result.area_overhead_pct
    points = []
    for flat in pareto_front(area4.reshape(-1), value.reshape(-1)):
        cell = np.unravel_index(flat, area4.shape) + (int(batch.flat[flat]),)
        points.append(design_point(
            grid, area4, result.power_overhead_pct, cell + query.enc,
            speedup[(slice(None),) + cell],
        ))
    return points


def _whole_plane_cheapest(result, query, feasible):
    """The argmin over ``np.where(feasible, cost, inf)`` of the plane."""
    grid = result.grid
    if not feasible.any():
        return None
    cost = np.broadcast_to(
        result.area_overhead_pct[..., None], feasible.shape
    )
    cell = np.unravel_index(
        int(np.argmin(np.where(feasible, cost, np.inf))), feasible.shape
    )
    return design_point(
        grid, result.area_overhead_pct, result.power_overhead_pct,
        cell + query.enc, result.speedup[query.index][(slice(None),) + cell],
    )


def _dicts(points):
    return [p.to_dict() for p in points]


def _check_queries(result, selectors, app):
    grid = result.grid
    query = query_slice(grid, SCHEME, None, **selectors)
    assert _dicts(result.pareto_front(SCHEME, app=app, **selectors)) \
        == _dicts(_whole_plane_front(result, query, app))
    a = axis_index("app", app or grid.apps[0], grid.apps)
    target = app or grid.apps[0]
    ms = result.accelerated_ms[query.index][a]
    rates = result.train_steps_per_s[query.index][a]
    # a target met by part of the plane, one met by all of it (ties on
    # the cheapest cell's batches) and one met by none
    for fps in (float(np.median(1000.0 / ms)), float(1000.0 / ms.max()),
                float(2000.0 / ms.min())):
        hit = result.cheapest_point_meeting_fps(
            target, fps, scheme=SCHEME, **selectors
        )
        ref = _whole_plane_cheapest(result, query, ms <= 1000.0 / fps)
        assert (hit and hit.to_dict()) == (ref and ref.to_dict())
    for rate in (float(np.median(rates)), float(rates.min()),
                 float(2.0 * rates.max())):
        hit = result.cheapest_point_meeting_train_rate(
            target, rate, scheme=SCHEME, **selectors
        )
        ref = _whole_plane_cheapest(result, query, rates >= rate)
        assert (hit and hit.to_dict()) == (ref and ref.to_dict())


class TestSlabbedQueries:
    @pytest.mark.parametrize("grid, selectors", [
        (GRID, {}),
        (BATCH_GRID, {}),
        (TIE_GRID, {}),
        (EXTENDED_GRID, {"gridtype": "tiled", "log2_hashmap_size": 19}),
    ], ids=["seed", "split-batches", "ties", "extended-tiled-19"])
    @pytest.mark.parametrize("app", [None, "nerf"])
    def test_many_slabs_equal_the_whole_plane(
        self, monkeypatch, grid, selectors, app
    ):
        reference = sweep_grid(grid, use_cache=False)
        # cut every block and every plane into slabs of a few cells each
        monkeypatch.setattr(repro.core.ngpc, "SLAB_POINTS", 64)
        result = sweep_grid(grid, use_cache=False)
        for name, array in reference.columns.items():
            assert _bits(result.columns[name]) == _bits(array), name
        _check_queries(result, selectors, app)

    @pytest.mark.parametrize("app", [None, "gia"])
    def test_more_scale_rows_than_one_slab(self, app):
        result = sweep_grid(ROWS_GRID, use_cache=False)
        plane = result.accelerated_ms[query_slice(ROWS_GRID, SCHEME).index]
        assert plane.size == 4 * repro.core.ngpc.SLAB_POINTS
        _check_queries(result, {}, app)


# ---------------------------------------------------------------------------
# the allocation bounds
# ---------------------------------------------------------------------------


def _peak_bytes(call):
    """Peak traced allocation of ``call()`` (NumPy reports its buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


class TestAllocationBounds:
    @pytest.fixture(scope="class")
    def nbytes(self):
        sweep_grid(ADAPTIVE_GRID, use_cache=False)  # warm model caches
        return sweep_grid(ADAPTIVE_GRID, use_cache=False).accelerated_ms.nbytes

    def test_sweep_allocates_about_its_result(self, nbytes):
        _, peak = _peak_bytes(
            lambda: sweep_grid(ADAPTIVE_GRID, use_cache=False)
        )
        assert peak <= 1.5 * nbytes

    def test_pareto_front_reads_slabs(self, nbytes):
        result = sweep_grid(ADAPTIVE_GRID, use_cache=False)
        points, peak = _peak_bytes(lambda: result.pareto_front(SCHEME))
        assert points
        assert peak <= 0.5 * nbytes

    def test_cheapest_point_reads_slabs(self, nbytes):
        result = sweep_grid(ADAPTIVE_GRID, use_cache=False)
        hit, peak = _peak_bytes(
            lambda: result.cheapest_point_meeting_fps("nerf", 60.0)
        )
        assert hit is not None
        assert peak <= 0.25 * nbytes

    def test_partial_sweep_keeps_blocks_not_a_grid(self):
        """A stream's partial sweep files landed blocks: building it and
        recording the first block allocates no grid-sized array."""
        grid = CLUSTER_STREAM_GRID.resolve()
        plan = stream_plan(grid)
        assert (grid.size, len(plan)) == (884_736, 128)
        placement, task = plan[0]
        block = evaluate_block(task)
        PartialSweep(grid, None).record(placement, block)  # warm caches

        def build_and_record():
            partial = PartialSweep(grid, None)
            return partial.record(placement, block)

        fresh, peak = _peak_bytes(build_and_record)
        assert fresh == int(np.prod(task_shape(task)))
        nbytes = grid.size * np.dtype(np.float64).itemsize  # accelerated_ms
        assert peak < nbytes / 8
