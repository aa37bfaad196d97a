"""Acceptance tests for the persistent content-addressed result store.

The disk tier's contract, end to end:

- **Warm restart**: a sweep evaluated by one service instance is served
  by a *fresh* instance over the same store directory without calling
  its ``sweep_fn`` at all — the persisted arrays come back bit-identical.
- **Delta evaluation**: a grid overlapping a previously evaluated
  hypercube loads every covered block from the store and evaluates only
  the missing ones, and the assembled result is bit-identical to a
  from-scratch evaluation.
- **Corruption degrades, never fails**: a truncated or garbage entry
  (or a corrupt sqlite index) emits a :class:`StoreCorruptionWarning`,
  is quarantined to ``*.corrupt``, and the caller transparently
  re-evaluates.
- **Content addressing**: perturbing the calibration constants changes
  every fingerprint, so stale entries are never addressed again.
"""

import asyncio
import json
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.calibration import fitted
from repro.core.dse import (
    RESULT_ARRAY_FIELDS,
    SweepGrid,
    block_fingerprint,
    store_block_plan,
    sweep_fingerprint,
    sweep_grid,
    task_shape,
)
from repro.service import SweepService
from repro.store import (
    BLOCK_ARRAY_FIELDS,
    ResultStore,
    StoreCorruptionWarning,
    StoreIntegrityError,
    fingerprint_digest,
    new_tier_counters,
    read_arrays,
    sweep_with_store,
    write_arrays_atomic,
)
from tests.test_service import CountingSweep

GRID = SweepGrid(
    apps=("nerf", "nsdf"),
    scale_factors=(8, 16),
    clocks_ghz=(0.8, 1.2),
    n_engines=(16, 32),
)


def _resolved(grid=GRID):
    return grid.resolve().normalized()


def assert_bit_identical(result, reference):
    for name in RESULT_ARRAY_FIELDS:
        assert np.array_equal(
            np.asarray(getattr(result, name)),
            np.asarray(getattr(reference, name)),
        ), f"array {name!r} differs from the reference evaluation"


# ---------------------------------------------------------------------------
# warm restart through the service
# ---------------------------------------------------------------------------


class TestWarmRestart:
    def test_fresh_service_serves_persisted_sweep_without_sweep_fn(self, tmp_path):
        root = str(tmp_path / "store")
        counting = CountingSweep()
        first = SweepService(engine="vectorized", sweep_fn=counting, store=root)
        served = asyncio.run(first.sweep(GRID))
        assert counting.calls == 1
        assert first.tier["evaluations"] == 1

        # a new service over the same directory = a restarted process:
        # the sweep must come back from disk, not from sweep_fn
        second = SweepService(
            engine="vectorized", sweep_fn=counting, store=ResultStore(root)
        )
        warm = asyncio.run(second.sweep(GRID))
        assert counting.calls == 1  # never called again
        stats = second.stats()
        assert stats["cache"]["disk_hits"] == 1
        assert stats["cache"]["evaluations"] == 0
        assert stats["evaluations"] == 0
        assert_bit_identical(warm, served)

        # once RAM-cached, repeats never touch the disk tier again
        asyncio.run(second.sweep(GRID))
        assert second.stats()["cache"]["ram_hits"] == 1

    def test_builtin_engine_evaluates_through_blocks_and_restarts_warm(
        self, tmp_path
    ):
        root = str(tmp_path / "store")
        first = SweepService(engine="vectorized", store=root)
        served = asyncio.run(first.sweep(GRID))
        stats = first.stats()
        assert stats["cache"]["evaluations"] == 1
        assert stats["store"]["blocks_evaluated"] == stats["store"]["blocks_total"] > 0
        assert stats["store"]["sweeps"]["count"] == 1

        second = SweepService(engine="vectorized", store=root)
        warm = asyncio.run(second.sweep(GRID))
        assert second.stats()["cache"]["disk_hits"] == 1
        assert second.evaluations == 0
        reference = sweep_grid(_resolved(), engine="vectorized", use_cache=False)
        assert_bit_identical(warm, reference)
        assert_bit_identical(served, reference)

    def test_store_accepts_a_path_string(self, tmp_path):
        service = SweepService(engine="vectorized", store=str(tmp_path / "s"))
        assert isinstance(service.store, ResultStore)
        assert "store" in service.stats()


# ---------------------------------------------------------------------------
# block-level delta evaluation
# ---------------------------------------------------------------------------


class TestDeltaEvaluation:
    def test_overlapping_grid_evaluates_only_missing_blocks(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        subset = _resolved()
        first = new_tier_counters()
        sweep_with_store(store, subset, counters=first, use_cache=False)
        assert first["blocks_cached"] == 0
        assert first["blocks_evaluated"] == first["blocks_total"] > 0

        # extend the workload axes: the covered hypercube must be reused
        superset = _resolved(
            SweepGrid(
                apps=("nerf", "nsdf", "gia"),
                scale_factors=(8, 16, 32),
                clocks_ghz=GRID.clocks_ghz,
                n_engines=GRID.n_engines,
            )
        )
        second = new_tier_counters()
        result = sweep_with_store(store, superset, counters=second, use_cache=False)
        assert second["blocks_cached"] == first["blocks_total"]
        assert second["blocks_evaluated"] == (
            second["blocks_total"] - second["blocks_cached"]
        )
        reference = sweep_grid(superset, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_identical_grid_is_a_whole_sweep_disk_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        counters = new_tier_counters()
        sweep_with_store(store, grid, counters=counters, use_cache=False)
        assert counters["disk_hits"] == 1
        assert counters["evaluations"] == 0
        assert counters["blocks_evaluated"] == 0

    def test_extending_an_architecture_axis_re_evaluates(self, tmp_path):
        # architecture axes live *inside* a block, so extending one
        # changes the block content (a documented non-goal of reuse)
        store = ResultStore(str(tmp_path / "store"))
        first = new_tier_counters()
        sweep_with_store(store, _resolved(), counters=first, use_cache=False)
        wider = _resolved(
            SweepGrid(
                apps=GRID.apps, scale_factors=GRID.scale_factors,
                clocks_ghz=(0.8, 1.0, 1.2), n_engines=GRID.n_engines,
            )
        )
        second = new_tier_counters()
        result = sweep_with_store(store, wider, counters=second, use_cache=False)
        assert second["blocks_cached"] == 0
        reference = sweep_grid(wider, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_block_round_trip_is_exact(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        plan = store_block_plan(grid)
        sweep_with_store(store, grid, use_cache=False)
        for _, task in plan:
            key = block_fingerprint(task)
            block = store.load_block(key, task_shape(task))
            assert block is not None
            assert set(block) == set(BLOCK_ARRAY_FIELDS)


# ---------------------------------------------------------------------------
# pre-registry warm-store compatibility
# ---------------------------------------------------------------------------

#: a store written by the pre-axis-registry code (fixture npz + index.db,
#: committed verbatim) — registering the encoding axes must not change a
#: single fingerprint, so it reads back hit for hit
PRE_REGISTRY_STORE = os.path.join(
    os.path.dirname(__file__), "fixtures", "warm_store_pre_registry"
)
#: the grid the fixture store was evaluated over, spelled with the seed
#: eight axes only (extension axes stay unset/inherit)
PRE_REGISTRY_GRID = SweepGrid(
    apps=("nerf", "gia"),
    schemes=("multi_res_hashgrid",),
    scale_factors=(8, 32),
    pixel_counts=(2_073_600,),
    clocks_ghz=(1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_engines=(16,),
    n_batches=(8, 16),
)
#: frozen when the fixture was written, before the registry refactor
PRE_REGISTRY_CHECKSUM = 137.91662944465514


class TestPreRegistryStoreCompatibility:
    def _copy(self, tmp_path):
        root = str(tmp_path / "store")
        shutil.copytree(PRE_REGISTRY_STORE, root)
        return root

    def test_whole_sweep_is_a_disk_hit(self, tmp_path):
        store = ResultStore(self._copy(tmp_path))
        counters = new_tier_counters()
        result = sweep_with_store(
            store, _resolved(PRE_REGISTRY_GRID), counters=counters,
            use_cache=False,
        )
        assert counters["disk_hits"] == 1
        assert counters["evaluations"] == 0
        assert counters["blocks_evaluated"] == 0
        assert float(np.asarray(result.accelerated_ms).sum()) == (
            PRE_REGISTRY_CHECKSUM
        )
        reference = sweep_grid(
            _resolved(PRE_REGISTRY_GRID), engine="vectorized", use_cache=False
        )
        assert_bit_identical(result, reference)

    def test_every_block_is_a_cache_hit(self, tmp_path):
        # drop the assembled-sweep entry: the blockwise path must find
        # every pre-refactor block under today's fingerprints
        root = self._copy(tmp_path)
        shutil.rmtree(os.path.join(root, "sweeps"))
        store = ResultStore(root)
        counters = new_tier_counters()
        result = sweep_with_store(
            store, _resolved(PRE_REGISTRY_GRID), counters=counters,
            use_cache=False,
        )
        assert counters["blocks_total"] > 0
        assert counters["blocks_cached"] == counters["blocks_total"]
        assert counters["blocks_evaluated"] == 0
        assert float(np.asarray(result.accelerated_ms).sum()) == (
            PRE_REGISTRY_CHECKSUM
        )

    def test_unswept_extension_axes_share_the_warm_fingerprint(self, tmp_path):
        # the same grid with the extension axes spelled explicitly at
        # their inherit sentinels must address the very same store entry
        from repro.core.axes import (
            GRIDTYPE_AUTO, LOG2_HASHMAP_INHERIT, PER_LEVEL_SCALE_INHERIT,
        )

        spelled = SweepGrid(
            apps=PRE_REGISTRY_GRID.apps,
            schemes=PRE_REGISTRY_GRID.schemes,
            scale_factors=PRE_REGISTRY_GRID.scale_factors,
            pixel_counts=PRE_REGISTRY_GRID.pixel_counts,
            clocks_ghz=PRE_REGISTRY_GRID.clocks_ghz,
            grid_sram_kb=PRE_REGISTRY_GRID.grid_sram_kb,
            n_engines=PRE_REGISTRY_GRID.n_engines,
            n_batches=PRE_REGISTRY_GRID.n_batches,
            gridtypes=(GRIDTYPE_AUTO,),
            log2_hashmap_sizes=(LOG2_HASHMAP_INHERIT,),
            per_level_scales=(PER_LEVEL_SCALE_INHERIT,),
        )
        assert sweep_fingerprint(_resolved(spelled), None) == sweep_fingerprint(
            _resolved(PRE_REGISTRY_GRID), None
        )
        store = ResultStore(self._copy(tmp_path))
        counters = new_tier_counters()
        sweep_with_store(
            store, _resolved(spelled), counters=counters, use_cache=False
        )
        assert counters["disk_hits"] == 1
        assert counters["blocks_evaluated"] == 0


# ---------------------------------------------------------------------------
# corruption handling
# ---------------------------------------------------------------------------


def _sweep_entry_path(store, grid):
    return store.sweep_path(sweep_fingerprint(grid, None))


class TestCorruption:
    def test_truncated_sweep_entry_degrades_to_re_evaluation(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        path = _sweep_entry_path(store, grid)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)

        counters = new_tier_counters()
        with pytest.warns(StoreCorruptionWarning):
            result = sweep_with_store(
                store, grid, counters=counters, use_cache=False
            )
        # the corrupt whole-sweep entry missed, but the blocks survived:
        # re-assembly is pure reuse, and the result is still correct
        assert counters["disk_hits"] == 0
        assert counters["evaluations"] == 1
        assert counters["blocks_evaluated"] == 0
        assert os.path.exists(path + ".corrupt")
        assert store.counters["corrupt_dropped"] == 1
        reference = sweep_grid(grid, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)
        # the re-persisted entry is clean again
        assert store.load_sweep(sweep_fingerprint(grid, None)) is not None

    def test_garbage_sweep_entry_degrades(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        path = _sweep_entry_path(store, grid)
        with open(path, "wb") as f:
            f.write(b"not an npz at all")
        with pytest.warns(StoreCorruptionWarning):
            assert store.load_sweep(sweep_fingerprint(grid, None)) is None

    def test_corrupt_block_is_quarantined_and_re_evaluated(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        placement, task = store_block_plan(grid)[0]
        block_path = os.path.join(
            str(tmp_path / "store"), "blocks",
            fingerprint_digest(block_fingerprint(task)) + ".npz",
        )
        with open(block_path, "wb") as f:
            f.write(b"\x00" * 16)
        # drop the whole-sweep entry so assembly must walk the blocks
        os.unlink(_sweep_entry_path(store, grid))

        counters = new_tier_counters()
        with pytest.warns(StoreCorruptionWarning):
            result = sweep_with_store(
                store, grid, counters=counters, use_cache=False
            )
        assert counters["blocks_evaluated"] == 1  # only the corrupt one
        assert counters["blocks_cached"] == counters["blocks_total"] - 1
        reference = sweep_grid(grid, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_corrupt_index_is_rebuilt_from_the_files(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        n_blocks = store.stats()["blocks"]["count"]
        store.close()
        with open(os.path.join(root, "index.db"), "wb") as f:
            f.write(b"this is not a sqlite database, not even close")

        with pytest.warns(StoreCorruptionWarning):
            reopened = ResultStore(root)
        stats = reopened.stats()
        assert stats["sweeps"]["count"] == 1
        assert stats["blocks"]["count"] == n_blocks
        assert reopened.load_sweep(sweep_fingerprint(grid, None)) is not None

    def test_lost_index_row_is_repaired_on_load(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        store._forget("sweep", fingerprint_digest(sweep_fingerprint(grid, None)))
        assert store.stats()["sweeps"]["count"] == 0
        assert store.load_sweep(sweep_fingerprint(grid, None)) is not None
        assert store.stats()["sweeps"]["count"] == 1


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------


class TestContentAddressing:
    def test_digest_is_stable_and_hex(self):
        key = sweep_fingerprint(_resolved(), None)
        digest = fingerprint_digest(key)
        assert digest == fingerprint_digest(key)
        assert len(digest) == 64
        int(digest, 16)  # pure hex

    def test_calibration_perturbation_misses_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        sweep_with_store(store, grid, use_cache=False)
        original = fitted.BATCH_OVERHEAD_SCALE_EXPONENT
        try:
            fitted.BATCH_OVERHEAD_SCALE_EXPONENT = original + 0.125
            counters = new_tier_counters()
            sweep_with_store(store, grid, counters=counters, use_cache=False)
            # nothing persisted under the nominal calibration is
            # addressable: the perturbed run evaluates everything
            assert counters["disk_hits"] == 0
            assert counters["blocks_cached"] == 0
            assert counters["blocks_evaluated"] == counters["blocks_total"]
        finally:
            fitted.BATCH_OVERHEAD_SCALE_EXPONENT = original
        # and the nominal entries are still there, untouched
        counters = new_tier_counters()
        sweep_with_store(store, grid, counters=counters, use_cache=False)
        assert counters["disk_hits"] == 1

    def test_save_is_idempotent(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        result = sweep_grid(grid, engine="vectorized", use_cache=False)
        key = sweep_fingerprint(grid, None)
        store.save_sweep(key, result)
        store.save_sweep(key, result)  # already on disk: not rewritten
        assert store.counters["sweep_saves"] == 1
        assert store.stats()["sweeps"]["count"] == 1


# ---------------------------------------------------------------------------
# npz I/O layer
# ---------------------------------------------------------------------------


class TestNpzIO:
    def test_round_trip_mmap_and_eager(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        arrays = {
            "a": np.arange(24, dtype=np.float64).reshape(2, 3, 4),
            "scalar": np.float64(3.25),
        }
        write_arrays_atomic(path, arrays)
        for mmap in (True, False):
            out = read_arrays(path, mmap=mmap)
            assert np.array_equal(out["a"], arrays["a"])
            assert out["a"].shape == (2, 3, 4)
            assert float(out["scalar"]) == 3.25
            with pytest.raises((ValueError, RuntimeError)):
                out["a"][0, 0, 0] = 99.0  # read-only, mapped or not

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        write_arrays_atomic(path, {"a": np.zeros(3)})
        assert sorted(os.listdir(tmp_path)) == ["arrays.npz"]

    def test_truncated_file_raises_integrity_error(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        write_arrays_atomic(path, {"a": np.arange(1000, dtype=np.float64)})
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 4000)
        with pytest.raises(StoreIntegrityError):
            read_arrays(path)

    def test_garbage_raises_integrity_error(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as f:
            f.write(b"PK\x03\x04 but then nonsense")
        with pytest.raises(StoreIntegrityError):
            read_arrays(path)


# ---------------------------------------------------------------------------
# stats plumbing
# ---------------------------------------------------------------------------


class TestStats:
    def test_store_stats_shape(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        sweep_with_store(store, _resolved(), use_cache=False)
        stats = store.stats()
        assert stats["sweeps"]["count"] == 1
        assert stats["sweeps"]["bytes"] > 0
        assert stats["blocks"]["count"] > 0
        assert stats["sweep_saves"] == 1
        assert stats["block_saves"] == stats["blocks"]["count"]

    def test_service_stats_expose_the_tiers(self, tmp_path):
        service = SweepService(engine="vectorized", store=str(tmp_path / "s"))
        asyncio.run(service.sweep(GRID))
        asyncio.run(service.sweep(GRID))
        stats = service.stats()
        assert stats["cache"]["ram_hits"] == 1
        assert stats["cache"]["disk_hits"] == 0
        assert stats["cache"]["evaluations"] == 1
        assert stats["store"]["blocks_total"] == stats["store"]["blocks_evaluated"]
        # the persisted catalogue is visible through the same endpoint
        assert stats["store"]["sweeps"]["count"] == 1
        assert json.dumps(stats)  # /stats must stay JSON-serializable
