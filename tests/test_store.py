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
  emits a :class:`StoreCorruptionWarning`, is quarantined to
  ``*.corrupt``, and the caller transparently re-evaluates; a legacy
  ``.npz`` entry is a plain miss.
- **The file tree is the index**: a fresh instance reads the entry
  counts and bytes from the directories, and two processes saving one
  sweep at once leave exactly one entry, byte-identical to a
  single-writer save.
- **Content addressing**: perturbing the calibration constants changes
  every fingerprint, so stale entries are never addressed again.
"""

import asyncio
import json
import multiprocessing
import os
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.calibration import DEFAULT, use
from repro.core.dse import (
    RESULT_ARRAY_FIELDS,
    SweepGrid,
    assemble_shard_blocks,
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
    fingerprint_digest,
    new_tier_counters,
    tiered_sweep,
)
from tests.test_service import CountingSweep

GRID = SweepGrid(
    apps=("nerf", "nsdf"),
    scale_factors=(8, 16),
    clocks_ghz=(0.8, 1.2),
    n_engines=(16, 32),
)


#: the nominal calibration with a steeper DMA-overhead scaling
PERTURBED = replace(
    DEFAULT, overhead_scale_exponent=DEFAULT.overhead_scale_exponent + 0.125
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
        tiered_sweep(subset, store=store, counters=first)
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
        result = tiered_sweep(superset, store=store, counters=second)
        assert second["blocks_cached"] == first["blocks_total"]
        assert second["blocks_evaluated"] == (
            second["blocks_total"] - second["blocks_cached"]
        )
        reference = sweep_grid(superset, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_identical_grid_is_a_whole_sweep_disk_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        tiered_sweep(grid, store=store)
        counters = new_tier_counters()
        tiered_sweep(grid, store=store, counters=counters)
        assert counters["disk_hits"] == 1
        assert counters["evaluations"] == 0
        assert counters["blocks_evaluated"] == 0

    def test_extending_an_architecture_axis_re_evaluates(self, tmp_path):
        # architecture axes live *inside* a block, so extending one
        # changes the block content (a documented non-goal of reuse)
        store = ResultStore(str(tmp_path / "store"))
        first = new_tier_counters()
        tiered_sweep(_resolved(), store=store, counters=first)
        wider = _resolved(
            SweepGrid(
                apps=GRID.apps, scale_factors=GRID.scale_factors,
                clocks_ghz=(0.8, 1.0, 1.2), n_engines=GRID.n_engines,
            )
        )
        second = new_tier_counters()
        result = tiered_sweep(wider, store=store, counters=second)
        assert second["blocks_cached"] == 0
        reference = sweep_grid(wider, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_block_round_trip_is_exact(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        plan = store_block_plan(grid)
        tiered_sweep(grid, store=store)
        for _, task in plan:
            key = block_fingerprint(task)
            block = store.load_block(key, task_shape(task))
            assert block is not None
            assert set(block) == set(BLOCK_ARRAY_FIELDS)


# ---------------------------------------------------------------------------
# pre-registry warm-store compatibility
# ---------------------------------------------------------------------------

#: a store written by the pre-axis-registry code (its npz entries
#: rewritten as frames bit for bit, under the same digests; the blocks
#: keep their dense timing columns) — registering the encoding axes must
#: not change a single fingerprint, so it reads back hit for hit
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
        result = tiered_sweep(
            _resolved(PRE_REGISTRY_GRID), store=store, counters=counters
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
        result = tiered_sweep(
            _resolved(PRE_REGISTRY_GRID), store=store, counters=counters
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
        tiered_sweep(_resolved(spelled), store=store, counters=counters)
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
        tiered_sweep(grid, store=store)
        path = _sweep_entry_path(store, grid)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)

        counters = new_tier_counters()
        with pytest.warns(StoreCorruptionWarning):
            result = tiered_sweep(grid, store=store, counters=counters)
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
        tiered_sweep(grid, store=store)
        path = _sweep_entry_path(store, grid)
        with open(path, "wb") as f:
            f.write(b"not an npz at all")
        with pytest.warns(StoreCorruptionWarning):
            assert store.load_sweep(sweep_fingerprint(grid, None)) is None

    def test_corrupt_block_is_quarantined_and_re_evaluated(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        tiered_sweep(grid, store=store)
        placement, task = store_block_plan(grid)[0]
        block_path = os.path.join(
            str(tmp_path / "store"), "blocks",
            fingerprint_digest(block_fingerprint(task)) + ".frame",
        )
        with open(block_path, "wb") as f:
            f.write(b"\x00" * 16)
        # drop the whole-sweep entry so assembly must walk the blocks
        os.unlink(_sweep_entry_path(store, grid))

        counters = new_tier_counters()
        with pytest.warns(StoreCorruptionWarning):
            result = tiered_sweep(grid, store=store, counters=counters)
        assert counters["blocks_evaluated"] == 1  # only the corrupt one
        assert counters["blocks_cached"] == counters["blocks_total"] - 1
        reference = sweep_grid(grid, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)

    def test_legacy_npz_entry_is_a_silent_miss(self, tmp_path):
        # an entry written before the store moved to frames sits under
        # the same digest with the old suffix: never addressed, so the
        # sweep re-evaluates and persists as a frame, warning-free
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        path = _sweep_entry_path(store, grid)
        legacy = path[:-len(".frame")] + ".npz"
        with open(legacy, "wb") as f:
            f.write(b"PK\x03\x04 an npz from an older store")

        counters = new_tier_counters()
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreCorruptionWarning)
            result = tiered_sweep(grid, store=store, counters=counters)
        assert counters["disk_hits"] == 0
        assert counters["evaluations"] == 1
        assert store.counters["corrupt_dropped"] == 0
        assert os.path.exists(legacy)
        assert not os.path.exists(legacy + ".corrupt")
        assert store.load_sweep(sweep_fingerprint(grid, None)) is not None
        reference = sweep_grid(grid, engine="vectorized", use_cache=False)
        assert_bit_identical(result, reference)


# ---------------------------------------------------------------------------
# the file tree is the index
# ---------------------------------------------------------------------------


def _save_at_barrier(root, barrier):
    """One writer process: evaluate, wait for the other, then save."""
    grid = _resolved()
    result = sweep_grid(grid, engine="vectorized", use_cache=False)
    store = ResultStore(root)
    barrier.wait(timeout=60)
    store.save_sweep(sweep_fingerprint(grid, None), result)


class TestFileTree:
    def test_fresh_instance_reads_the_same_stats(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        tiered_sweep(_resolved(), store=store)
        written = store.stats()
        assert written["sweeps"]["count"] == 1
        assert written["blocks"]["count"] > 0

        # none of these is an entry: a writer's temp file, a quarantined
        # entry, an entry from before the store moved to frames
        for kind in ("sweeps", "blocks"):
            for name in (".tmp-abc123", "f" * 64 + ".frame.corrupt",
                         "e" * 64 + ".npz"):
                with open(os.path.join(root, kind, name), "wb") as f:
                    f.write(b"\x00" * 64)

        fresh = ResultStore(root).stats()
        for kind in ("sweeps", "blocks"):
            assert fresh[kind] == written[kind]

    def test_no_temp_file_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        grid = _resolved()
        result = sweep_grid(grid, engine="vectorized", use_cache=False)
        path = store.save_sweep(sweep_fingerprint(grid, None), result)
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_two_writers_converge_on_identical_bytes(self, tmp_path):
        grid = _resolved()
        single = ResultStore(str(tmp_path / "single"))
        expected_path = single.save_sweep(
            sweep_fingerprint(grid, None),
            sweep_grid(grid, engine="vectorized", use_cache=False),
        )

        root = str(tmp_path / "shared")
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_save_at_barrier, args=(root, barrier))
            for _ in range(2)
        ]
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=120)
            assert [writer.exitcode for writer in writers] == [0, 0]
        finally:
            for writer in writers:
                if writer.is_alive():
                    writer.terminate()

        name = os.path.basename(expected_path)
        sweeps = os.path.join(root, "sweeps")
        assert os.listdir(sweeps) == [name]  # one entry, no temp file
        with open(os.path.join(sweeps, name), "rb") as f:
            shared_bytes = f.read()
        with open(expected_path, "rb") as f:
            assert shared_bytes == f.read()


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
        tiered_sweep(grid, store=store)
        with use(PERTURBED):
            counters = new_tier_counters()
            tiered_sweep(grid, store=store, counters=counters)
            # nothing persisted under the nominal calibration is
            # addressable: the perturbed run evaluates everything
            assert counters["disk_hits"] == 0
            assert counters["blocks_cached"] == 0
            assert counters["blocks_evaluated"] == counters["blocks_total"]
        # and the nominal entries are still there, untouched
        counters = new_tier_counters()
        tiered_sweep(grid, store=store, counters=counters)
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


class TestConcurrentCalibrations:
    """One service and store, sweeps under two calibrations at once."""

    OTHER_GRID = SweepGrid(
        apps=("gia",), scale_factors=(16, 32), n_batches=(4, 8)
    )

    def test_every_entry_holds_what_its_address_names(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        service = SweepService(engine="vectorized", store=store)
        grids = (_resolved(), _resolved(self.OTHER_GRID))
        calibrations = (DEFAULT, PERTURBED)

        async def one(i):
            with use(calibrations[i % 2]):
                return await service.sweep(grids[i // 2 % 2])

        async def run():
            return await asyncio.gather(*(one(i) for i in range(8)))

        served = asyncio.run(run())

        sweep_files, block_files = set(), set()
        for calibration in calibrations:
            with use(calibration):
                for grid in grids:
                    reference = sweep_grid(
                        grid, engine="vectorized", use_cache=False
                    )
                    key = sweep_fingerprint(grid)
                    sweep_files.add(os.path.basename(store.sweep_path(key)))
                    assert_bit_identical(store.load_sweep(key), reference)
                    placed = []
                    for placement, task in store_block_plan(grid):
                        key = block_fingerprint(task)
                        block_files.add(fingerprint_digest(key) + ".frame")
                        placed.append(
                            (placement, store.load_block(key, task_shape(task)))
                        )
                    assembled = assemble_shard_blocks(grid, placed)
                    for name, column in assembled.items():
                        assert np.array_equal(
                            column, reference.columns[name]
                        ), name
                    for i in range(8):
                        if (calibrations[i % 2], grids[i // 2 % 2]) == (
                            calibration, grid
                        ):
                            assert_bit_identical(served[i], reference)
        # every persisted entry is one of those, and the two
        # calibrations computed different numbers
        assert set(os.listdir(os.path.join(store.root, "sweeps"))) == sweep_files
        assert set(os.listdir(os.path.join(store.root, "blocks"))) == block_files
        assert not np.array_equal(served[0].dma_ms, served[1].dma_ms)


# ---------------------------------------------------------------------------
# stats plumbing
# ---------------------------------------------------------------------------


class TestStats:
    def test_store_stats_shape(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        tiered_sweep(_resolved(), store=store)
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
