#!/usr/bin/env python
"""Persistence probe of the content-addressed result store.

Three gates guard the disk tier (the PR-6 acceptance bar):

1. **Warm restart**: a sweep persisted by one store instance must load
   from a *fresh* instance (a restarted service process, in miniature)
   >= 50x faster than re-evaluating the grid from scratch.  The grid is
   sized so the vectorized evaluation takes real time (~10^5-10^6
   points); the load is a memory-mapped frame open, so the ratio grows
   with the grid.  Evaluations and loads are timed as interleaved
   pairs (alternating which runs first), and the gate reads the median
   of the per-pair ratios, so drift on a shared host hits both sides
   of a pair alike.
2. **Delta evaluation**: a sweep whose hypercube overlaps a previously
   evaluated one must load every covered block from the store and
   evaluate *only* the missing blocks
   (``blocks_evaluated == blocks_total - blocks_cached``, with a
   nonzero cached share).
3. **Bit-identity**: every store-served result — the warm-restart load
   and the delta-assembled overlap sweep — must match a from-scratch
   ``sweep_grid`` evaluation bit for bit (``np.array_equal`` on every
   result array, no tolerance).

Results are written to ``BENCH_store.json`` (latencies, the measured
speedup, block counters, byte sizes) and uploaded as a CI artifact so
the persistence trajectory stays machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_store.py          # full gate
    PYTHONPATH=src python benchmarks/bench_store.py --quick  # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.core.dse import (
    RESULT_ARRAY_FIELDS,
    SweepGrid,
    sweep_fingerprint,
    sweep_grid,
)
from repro.gpu.baseline import FHD_PIXELS
from repro.store import ResultStore, new_tier_counters, tiered_sweep

#: the acceptance floor: warm load vs cold re-evaluation
WARM_RESTART_SPEEDUP_FLOOR = 50.0
#: interleaved (fresh evaluation, fresh-instance load) pairs per run
N_RESTART_PAIRS = 9


def build_restart_grid(quick: bool) -> SweepGrid:
    """The warm-restart grid: big enough that evaluation dominates.

    The vectorized engine costs ~0.5 us/point, a memory-mapped load a
    few ms regardless of size — so the 50x gate needs >= ~10^5 points
    to be a property of the design rather than of timer noise.
    """
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=(1280 * 720, FHD_PIXELS, 2560 * 1440, 3840 * 2160),
        clocks_ghz=tuple(np.linspace(0.6, 2.0, 32 if quick else 48)),
        grid_sram_kb=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
        n_engines=(1, 2, 4, 8, 16, 32, 64, 128),
        n_batches=(1, 2, 4, 8, 16, 32, 64, 128),
    )


def build_overlap_grids(quick: bool):
    """A subset grid and the superset extending its workload axes."""
    base = dict(
        scale_factors=(8, 16, 32, 64),
        clocks_ghz=(0.8, 1.0, 1.2, 1.695),
        grid_sram_kb=(256, 512, 1024) if quick else (128, 256, 512, 1024, 2048),
        n_engines=(8, 16, 32),
        n_batches=(4, 8, 16),
    )
    subset = SweepGrid(apps=("nerf", "nsdf"), **base)
    superset = SweepGrid(apps=("nerf", "nsdf", "gia", "nvr"), **base)
    return subset, superset


def bit_identical(result, reference) -> bool:
    """True when every result array matches bit for bit (no tolerance)."""
    return all(
        np.array_equal(
            np.asarray(getattr(result, name)), np.asarray(getattr(reference, name))
        )
        for name in RESULT_ARRAY_FIELDS
    )


def probe(quick: bool) -> dict:
    out: dict = {}

    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        # -- gate 1: warm restart ------------------------------------------
        grid = build_restart_grid(quick).resolve().normalized()
        key = sweep_fingerprint(grid, None)
        out["restart_grid_points"] = grid.size

        reference = sweep_grid(grid, engine="vectorized", use_cache=False)
        writer = ResultStore(root)
        start = time.perf_counter()
        writer.save_sweep(key, reference)
        out["persist_s"] = time.perf_counter() - start

        def evaluate():
            return sweep_grid(grid, engine="vectorized", use_cache=False)

        def load():
            # a fresh instance = a fresh process
            return ResultStore(root).load_sweep(key)

        eval_samples, load_samples, ratios = [], [], []
        identical = True
        for i in range(N_RESTART_PAIRS):
            walls = {}
            for fn in ((load, evaluate) if i % 2 else (evaluate, load)):
                start = time.perf_counter()
                result = fn()
                walls[fn] = time.perf_counter() - start
                assert result is not None, "persisted sweep must load"
                identical = identical and bit_identical(result, reference)
                del result
            eval_samples.append(walls[evaluate])
            load_samples.append(walls[load])
            ratios.append(walls[evaluate] / walls[load])
        out["restart_pairs"] = N_RESTART_PAIRS
        out["eval_s"] = statistics.median(eval_samples)
        out["load_s_p50"] = statistics.median(load_samples)
        out["load_s_max"] = max(load_samples)
        out["warm_restart_speedup"] = statistics.median(ratios)
        out["restart_bit_identical"] = identical
        out["store_bytes"] = ResultStore(root).stats()["sweeps"]["bytes"]

    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        # -- gate 2: overlapping-grid delta evaluation ---------------------
        subset, superset = build_overlap_grids(quick)
        subset = subset.resolve().normalized()
        superset = superset.resolve().normalized()
        out["overlap_subset_points"] = subset.size
        out["overlap_superset_points"] = superset.size

        first = new_tier_counters()
        tiered_sweep(subset, store=ResultStore(root), counters=first)
        second = new_tier_counters()
        start = time.perf_counter()
        overlap = tiered_sweep(
            superset, store=ResultStore(root), counters=second
        )
        out["overlap_sweep_s"] = time.perf_counter() - start
        out["first_counters"] = first
        out["second_counters"] = second

        # -- gate 3: the delta-assembled result is bit-identical -----------
        reference = sweep_grid(superset, engine="vectorized", use_cache=False)
        out["overlap_bit_identical"] = bit_identical(overlap, reference)

    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", default="BENCH_store.json")
    args = parser.parse_args()

    results = probe(args.quick)
    results["quick"] = args.quick

    print(f"restart grid: {results['restart_grid_points']:,} points "
          f"({results['store_bytes'] / 1e6:.1f} MB persisted)")
    print(f"persist:         {results['persist_s'] * 1000:10.1f} ms")
    print(f"cold evaluation: {results['eval_s'] * 1000:10.1f} ms p50")
    print(f"warm load:       {results['load_s_p50'] * 1000:10.2f} ms p50 "
          f"(max {results['load_s_max'] * 1000:.2f} ms) -> median "
          f"{results['warm_restart_speedup']:.0f}x over "
          f"{results['restart_pairs']} pairs, "
          f"bit_identical={results['restart_bit_identical']}")
    second = results["second_counters"]
    print(f"overlap sweep ({results['overlap_subset_points']:,} -> "
          f"{results['overlap_superset_points']:,} points): "
          f"{second['blocks_cached']}/{second['blocks_total']} blocks cached, "
          f"{second['blocks_evaluated']} evaluated "
          f"({results['overlap_sweep_s'] * 1000:.1f} ms, "
          f"bit_identical={results['overlap_bit_identical']})")

    failures = []
    if results["warm_restart_speedup"] < WARM_RESTART_SPEEDUP_FLOOR:
        failures.append(
            f"warm-restart gate: load is a median of only "
            f"{results['warm_restart_speedup']:.1f}x faster than "
            f"re-evaluation (floor {WARM_RESTART_SPEEDUP_FLOOR:.0f}x)"
        )
    if not results["restart_bit_identical"]:
        failures.append("warm-restart result differs from fresh evaluation")
    if results["first_counters"]["blocks_cached"] != 0:
        failures.append("first overlap sweep hit blocks in an empty store")
    expected_delta = second["blocks_total"] - second["blocks_cached"]
    if second["blocks_cached"] == 0:
        failures.append("overlap gate: no blocks reused from the subset sweep")
    if second["blocks_evaluated"] != expected_delta:
        failures.append(
            f"overlap gate: evaluated {second['blocks_evaluated']} blocks, "
            f"want exactly the missing {expected_delta}"
        )
    if not results["overlap_bit_identical"]:
        failures.append("delta-assembled result differs from fresh evaluation")
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all store gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
