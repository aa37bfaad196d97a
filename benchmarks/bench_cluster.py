#!/usr/bin/env python
"""Distributed-cluster overhead gate: the cluster against the dense baseline.

The baseline is the fastest single-process path,
``sweep_grid(engine="vectorized")``.  On a >= 50k-point architecture
grid, a 4-worker shard cluster evaluates the same cold sweeps; the
report is the cluster's wall time as a multiple of the vectorized
baseline's (``cluster_over_vectorized``), with both bases recorded.  On
one host the cluster cannot beat in-process NumPy — every block crosses
a lease, a binary frame and a keep-alive HTTP round trip — so the gate
is a **ceiling** on that multiple: cluster scale-out must stay within
a bounded overhead of the single-process path on work that one process
could do alone.  Parity is gated too: the cluster's arrays must match
the vectorized ones bit for bit.

Both sides evaluate the same sequence of *distinct* cold grids (one
clock value perturbed per iteration) so neither the whole-grid memo nor
the service LRU can serve a cached result.  The gate compares
**best-of-N** on both sides: with five-plus processes time-slicing a
small host, per-iteration wall times jitter by 2x and the minimum is
the standard low-noise estimator of what each path can actually do;
medians are recorded alongside in the JSON.

Results are written to ``BENCH_cluster.json`` (per-iteration wall
times, the ratio, cluster lease counters) and uploaded as a CI
artifact so the scale-out trajectory stays machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_cluster.py          # full gate
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick  # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.api import DistributedBackend, SweepGrid
from repro.core.dse import sweep_grid

#: the acceptance ceiling: cluster best-of-N over vectorized best-of-N.
#: Measured at 3.4-5.3x (full) and 3.5-6.5x (--quick) over five runs
#: each on a 2-vCPU host before the block executor was unified; the
#: ceiling leaves ~1.5x headroom over the worst of those runs
MAX_CLUSTER_OVER_VECTORIZED = 10.0
#: shard-cluster workers
N_WORKERS = 4
#: the gate is defined on a grid at least this large
MIN_GRID_POINTS = 50_000


def build_grid(iteration: int) -> SweepGrid:
    """A >= 50k-point grid, distinct per iteration (cold everywhere)."""
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=tuple(
            int(p) for p in np.linspace(100_000, 3840 * 2160, 10)
        ),
        clocks_ghz=(0.6, 0.8, 1.0, 1.2, 1.695 + iteration * 1e-6),
        grid_sram_kb=(256, 512, 1024, 2048),
        n_engines=(4, 8, 16, 32),
        n_batches=(4, 8, 16, 32),
    )


def probe(iterations: int) -> dict:
    grid_points = build_grid(0).size
    assert grid_points >= MIN_GRID_POINTS, grid_points

    # -- the baseline: one process, vectorized -----------------------------
    # (warmed up on a grid outside the timed set, like the cluster below)
    sweep_grid(build_grid(-1), engine="vectorized", use_cache=False)
    vectorized_s = []
    for i in range(iterations):
        grid = build_grid(i).resolve().normalized()
        start = time.perf_counter()
        sweep_grid(grid, engine="vectorized", use_cache=False)
        vectorized_s.append(time.perf_counter() - start)

    # -- distributed: 4 persistent workers behind the shard coordinator ---
    backend = DistributedBackend(workers=N_WORKERS)
    try:
        # one full-size warm-up sweep (a grid outside the timed set): the
        # claim under test is steady-state throughput of persistent
        # workers, so first-touch allocation noise stays out of the gate
        setup_start = time.perf_counter()
        backend.sweep(build_grid(-1))
        warmup_s = time.perf_counter() - setup_start
        distributed_s = []
        results = []
        for i in range(iterations):
            grid = build_grid(i)
            start = time.perf_counter()
            results.append(backend.sweep(grid))
            distributed_s.append(time.perf_counter() - start)
        cluster_stats = backend.coordinator.stats()
    finally:
        backend.close()

    # parity: the last cold grid must agree bit for bit (the backend
    # normalizes axis order — compare on the same layout)
    reference = sweep_grid(
        build_grid(iterations - 1).resolve().normalized(),
        engine="vectorized", use_cache=False,
    )
    bit_identical = all(
        np.array_equal(getattr(results[-1], name), getattr(reference, name))
        for name in ("baseline_ms", "accelerated_ms", "amdahl_bound",
                     "area_overhead_pct", "power_overhead_pct")
    )

    return {
        "grid_points": grid_points,
        "n_workers": N_WORKERS,
        "iterations": iterations,
        "vectorized_s": vectorized_s,
        "vectorized_s_median": statistics.median(vectorized_s),
        "vectorized_s_best": min(vectorized_s),
        "distributed_s": distributed_s,
        "distributed_s_median": statistics.median(distributed_s),
        "distributed_s_best": min(distributed_s),
        "distributed_warmup_s": warmup_s,
        "cluster_over_vectorized": min(distributed_s) / min(vectorized_s),
        "cluster_over_vectorized_median": (
            statistics.median(distributed_s) / statistics.median(vectorized_s)
        ),
        "bit_identical": bit_identical,
        "cluster_blocks": cluster_stats["blocks"],
        "cluster_workers_registered": cluster_stats["workers"]["registered"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer iterations, same gate")
    parser.add_argument("--output", default="BENCH_cluster.json")
    args = parser.parse_args()

    results = probe(iterations=3 if args.quick else 7)
    results["quick"] = args.quick

    print(f"grid: {results['grid_points']:,} points, "
          f"{results['n_workers']} cluster workers")
    print(f"vectorized (one process):  "
          f"{results['vectorized_s_best'] * 1000:8.1f} ms best "
          f"({results['vectorized_s_median'] * 1000:.1f} ms median)")
    print(f"distributed shard cluster: "
          f"{results['distributed_s_best'] * 1000:8.1f} ms best "
          f"({results['distributed_s_median'] * 1000:.1f} ms median; "
          f"persistent workers, {results['distributed_warmup_s']:.2f}s warmup)")
    print(f"cluster/vectorized: {results['cluster_over_vectorized']:.2f}x "
          f"best-of-{results['iterations']} "
          f"({results['cluster_over_vectorized_median']:.2f}x median; "
          f"ceiling {MAX_CLUSTER_OVER_VECTORIZED:.1f}x); "
          f"blocks: {results['cluster_blocks']}")

    failures = []
    if results["grid_points"] < MIN_GRID_POINTS:
        failures.append(
            f"grid gate: {results['grid_points']} points "
            f"(need >= {MIN_GRID_POINTS})"
        )
    if results["cluster_over_vectorized"] > MAX_CLUSTER_OVER_VECTORIZED:
        failures.append(
            f"overhead gate: the cluster took "
            f"{results['cluster_over_vectorized']:.2f}x the vectorized "
            f"baseline (ceiling {MAX_CLUSTER_OVER_VECTORIZED:.1f}x)"
        )
    if not results["bit_identical"]:
        failures.append("parity gate: cluster arrays differ from vectorized")
    if results["cluster_workers_registered"] < N_WORKERS:
        failures.append(
            f"cluster gate: only {results['cluster_workers_registered']} of "
            f"{N_WORKERS} workers registered"
        )
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all cluster gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
