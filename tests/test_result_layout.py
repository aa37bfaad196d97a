"""Result arrays at their true rank: the axis table and its readers.

Each timing field varies along only some configuration axes
(:data:`repro.core.dse.TIMING_AXES`).  Kernels, blocks, results, result
frames and store entries hold a field at that compact shape; a query
reads it broadcast to ``grid.shape``.  Pinned here:

- the table itself, against the dense public kernel and against the
  scalar emulator point by point, on a grid where every axis (the three
  encoding axes included) has two values: a kernel change that makes a
  "constant" field vary fails loudly;
- every reader (payload and frame decode, store sweeps and blocks, the
  coordinator's block check) loads a compact and a legacy dense column
  to bit-identical results, and rejects any other shape with its usual
  error, and a dense column that varies along an axis its field is
  constant along with a ``ValueError`` naming the field;
- the size of an ``adaptive``-shaped 1,048,576-point result.
"""

import asyncio
import itertools
import os

import numpy as np
import pytest

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.axes import (
    CONFIG_AXIS_FIELDS,
    TASK_BATCH_KWARGS,
    EncodingVariant,
)
from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    RESULT_ARRAY_FIELDS,
    TIMING_AXES,
    SweepGrid,
    SweepResult,
    _scalar_result,
    assemble_shard_blocks,
    block_array_shapes,
    block_fingerprint,
    evaluate_block,
    finalize_sweep_result,
    shard_plan,
    sweep_fingerprint,
    sweep_grid,
    task_shape,
)
from repro.core.emulator import emulate_batch
from repro.service.client import _frame_result
from repro.service.errors import ServiceError
from repro.store import ResultStore, StoreCorruptionWarning
from repro.transport import encode_frame

FHD = 1920 * 1080

#: two values on every configuration axis, the encoding axes included
TABLE_AXES = (
    (8, 16),             # scale_factors
    (FHD, 1 << 20),      # pixel_counts
    (0.8, 1.2),          # clocks_ghz
    (256, 1024),         # grid_sram_kb
    (8, 16),             # n_engines
    (4, 16),             # n_batches
    ("hash", "tiled"),   # gridtypes
    (14, 19),            # log2_hashmap_sizes
    (1.5, 2.0),          # per_level_scales
)
PAIRS = list(itertools.product(APP_NAMES, ENCODING_SCHEMES))


def _task(app, scheme):
    return (app, scheme) + TABLE_AXES


class TestAxisTable:
    def test_every_axis_has_two_values(self):
        grid = SweepGrid(
            apps=APP_NAMES, schemes=ENCODING_SCHEMES,
            **dict(zip(CONFIG_AXIS_FIELDS, TABLE_AXES)),
        ).resolve()
        assert grid.is_extended
        assert min(grid.shape) >= 2

    @pytest.mark.parametrize("app, scheme", PAIRS)
    def test_dense_kernel_is_the_compact_column_broadcast(self, app, scheme):
        task = _task(app, scheme)
        columns = evaluate_block(task)
        dense = emulate_batch(
            app, scheme, task[2], task[3],
            **dict(zip(TASK_BATCH_KWARGS, task[4:])),
        )
        shapes = block_array_shapes(task_shape(task))
        for name in TIMING_AXES:
            assert columns[name].shape == shapes[name], name
            assert np.array_equal(
                np.broadcast_to(columns[name], dense[name].shape), dense[name]
            ), name
        assert "speedup" not in columns

    @pytest.mark.parametrize("app, scheme", PAIRS)
    def test_scalar_fields_are_constant_where_the_table_says(self, app, scheme):
        """The scalar emulator, point by point, knows nothing of the
        layout: every field must be constant along each axis the table
        leaves out of its row."""
        task = _task(app, scheme)
        shape = task_shape(task)
        dense = {name: np.empty(shape) for name in TIMING_AXES}
        for idx in np.ndindex(*shape):
            scale, pixels, clock, sram, engines, batches, gt, log2, pls = (
                axis[i] for axis, i in zip(task[2:], idx)
            )
            point = _scalar_result(
                app, scheme, scale, pixels, None, clock, sram, engines,
                batches, EncodingVariant(gt, log2, pls),
            )
            for name in TIMING_AXES:
                dense[name][idx] = getattr(point, name)
        for name, varies in TIMING_AXES.items():
            for pos, axis in enumerate(CONFIG_AXIS_FIELDS):
                if axis in varies:
                    continue
                first = np.take(dense[name], [0], axis=pos)
                assert np.array_equal(
                    dense[name], np.broadcast_to(first, shape)
                ), f"{name} varies along {axis}, which the table marks constant"


# ---------------------------------------------------------------------------
# every reader accepts compact and legacy dense columns
# ---------------------------------------------------------------------------

GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16),
    pixel_counts=(FHD, 1 << 20),
    clocks_ghz=(0.8, 1.2),
    n_batches=(4, 16),
).resolve().normalized()
LAYOUTS = ("compact", "dense")
#: the one block covering GRID's first (app, scheme) pair
TASK = shard_plan(GRID, 1)[0][1]


@pytest.fixture(scope="module")
def reference():
    return sweep_grid(GRID, use_cache=False)


def _arrays(result, layout):
    if layout == "compact":
        return dict(result.columns)
    return {
        name: np.ascontiguousarray(getattr(result, name))
        for name in RESULT_ARRAY_FIELDS
    }


def _meta():
    return {"schema_version": PAYLOAD_SCHEMA_VERSION,
            "grid": GRID.to_dict(), "engine": "vectorized"}


def _misshapen(arrays):
    """``mlp_engine_ms`` compact along clocks, an axis it varies along."""
    return dict(arrays, mlp_engine_ms=arrays["mlp_engine_ms"][:, :, :, :, :1])


def assert_same_result(result, reference):
    for name in RESULT_ARRAY_FIELDS:
        assert np.array_equal(
            getattr(result, name), getattr(reference, name)
        ), name
        # whatever the layout read, the result holds the compact column
        assert result.columns[name].shape == reference.columns[name].shape, name


def _block_arrays(task, layout):
    block = evaluate_block(task)
    if layout == "compact":
        return block
    shape = task_shape(task)
    dense = {
        name: np.ascontiguousarray(np.broadcast_to(block[name], shape))
        for name in TIMING_AXES
    }
    dense["amdahl_bound"] = block["amdahl_bound"]
    return dense


class TestReaders:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_payload(self, reference, layout):
        payload = dict(_meta(), **{
            name: array.tolist()
            for name, array in _arrays(reference, layout).items()
        })
        assert_same_result(SweepResult.from_payload(payload), reference)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_frame(self, reference, layout):
        frame = encode_frame(_meta(), _arrays(reference, layout))
        assert_same_result(_frame_result(bytes(frame)), reference)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_store_sweep(self, reference, layout, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = sweep_fingerprint(GRID)
        with open(store.sweep_path(key), "wb") as f:
            f.write(encode_frame(_meta(), _arrays(reference, layout)))
        assert_same_result(store.load_sweep(key), reference)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_store_block(self, layout, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = block_fingerprint(TASK)
        store.save_block(key, _block_arrays(TASK, layout))
        block = store.load_block(key, task_shape(TASK))
        expected = evaluate_block(TASK)
        for name in TIMING_AXES:
            assert block[name].shape == expected[name].shape, name
            assert np.array_equal(block[name], expected[name]), name

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_coordinator_block(self, reference, layout):
        """Blocks completed in either layout pass the coordinator's check
        and assemble to the reference result."""
        from repro.service.cluster import ShardCoordinator

        async def run():
            # short polls: the last one runs after the final completion
            coordinator = ShardCoordinator(poll_timeout_s=0.05)
            await coordinator.start()
            worker = coordinator._register({})["worker_id"]
            plan = coordinator._plan(GRID)
            job = asyncio.ensure_future(
                coordinator.submit([task for _, task in plan])
            )
            while not job.done():
                lease = await coordinator._lease({"worker_id": worker})
                if "task" not in lease:
                    continue
                await coordinator._complete({
                    "worker_id": worker, "job_id": lease["job_id"],
                    "task_id": lease["task_id"],
                    "arrays": _block_arrays(lease["task"], layout),
                })
            blocks = await job
            await coordinator.close()
            return plan, blocks

        plan, blocks = asyncio.run(run())
        arrays = assemble_shard_blocks(GRID, [
            (placement, block) for (placement, _), block in zip(plan, blocks)
        ])
        result = finalize_sweep_result(GRID, "cluster", None, arrays)
        assert_same_result(result, reference)

    # -- any other shape is rejected as before --------------------------------
    def test_payload_rejects_a_misshapen_column(self, reference):
        payload = dict(_meta(), **{
            name: array.tolist()
            for name, array in _misshapen(_arrays(reference, "compact")).items()
        })
        with pytest.raises(ValueError, match="'mlp_engine_ms' has shape"):
            SweepResult.from_payload(payload)

    def test_from_arrays_rejects_an_edited_dense_column(self, reference):
        """A dense ``baseline_ms`` edited along clocks, an axis it is
        constant along, would read back unedited from index 0."""
        arrays = _arrays(reference, "dense")
        assert "clocks_ghz" not in TIMING_AXES["baseline_ms"]
        baseline = arrays["baseline_ms"].copy()
        baseline[0, 0, 0, 0, 1] *= 2.0  # app, scheme, scale, pixels, clock
        with pytest.raises(ValueError, match="'baseline_ms' varies along"):
            SweepResult.from_arrays(
                GRID, "vectorized", dict(arrays, baseline_ms=baseline)
            )
        # the unedited dense column still loads
        assert_same_result(
            SweepResult.from_arrays(GRID, "vectorized", arrays), reference
        )

    def test_frame_rejects_a_misshapen_column_as_a_502(self, reference):
        frame = encode_frame(_meta(), _misshapen(_arrays(reference, "compact")))
        with pytest.raises(ServiceError) as excinfo:
            _frame_result(bytes(frame))
        assert (excinfo.value.status, excinfo.value.code) == (502, "bad-frame")

    def test_store_quarantines_a_misshapen_sweep(self, reference, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = sweep_fingerprint(GRID)
        path = store.sweep_path(key)
        arrays = _misshapen(_arrays(reference, "compact"))
        with open(path, "wb") as f:
            f.write(encode_frame(_meta(), arrays))
        with pytest.warns(StoreCorruptionWarning):
            assert store.load_sweep(key) is None
        assert os.path.exists(path + ".corrupt")

    def test_store_quarantines_a_misshapen_block(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = block_fingerprint(TASK)
        block = evaluate_block(TASK)
        path = store.save_block(
            key, dict(block, mlp_engine_ms=block["mlp_engine_ms"][:, :, :1])
        )
        with pytest.warns(StoreCorruptionWarning):
            assert store.load_block(key, task_shape(TASK)) is None
        assert os.path.exists(path + ".corrupt")

    def test_coordinator_rejects_a_misshapen_block(self):
        from repro.service.cluster import ShardCoordinator

        async def run():
            coordinator = ShardCoordinator(poll_timeout_s=5.0)
            await coordinator.start()
            worker = coordinator._register({})["worker_id"]
            plan = coordinator._plan(GRID)
            job = asyncio.ensure_future(
                coordinator.submit([task for _, task in plan])
            )
            lease = await coordinator._lease({"worker_id": worker})
            block = evaluate_block(lease["task"])
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await coordinator._complete({
                        "worker_id": worker, "job_id": lease["job_id"],
                        "task_id": lease["task_id"],
                        "arrays": dict(
                            block,
                            mlp_engine_ms=block["mlp_engine_ms"][:, :, :1],
                        ),
                    })
            finally:
                job.cancel()
                await coordinator.close()
            return excinfo.value

        error = asyncio.run(run())
        assert (error.status, error.code) == (400, "bad-block")
        assert "mlp_engine_ms" in str(error)


# ---------------------------------------------------------------------------
# what the layout saves
# ---------------------------------------------------------------------------


def test_adaptive_shaped_result_is_four_times_smaller():
    """The layerbench ``adaptive`` grid shape: 1,048,576 points, whose
    dense arrays (six 8.4 MB timing arrays plus the cost arrays) held
    51.4 MB."""
    grid = SweepGrid(
        apps=("nerf", "gia"), schemes=("multi_res_hashgrid",),
        scale_factors=tuple(2 ** i for i in range(8)), pixel_counts=(FHD,),
        clocks_ghz=tuple(np.round(np.linspace(0.5, 2.1, 32), 4)),
        grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
        n_engines=tuple(2 ** i for i in range(8)),
        n_batches=tuple(2 ** i for i in range(16)),
    ).resolve()
    assert grid.size == 1 << 20
    result = sweep_grid(grid, use_cache=False)
    stored = sum(column.nbytes for column in result.columns.values())
    assert 4 * stored <= 51.4e6, stored
