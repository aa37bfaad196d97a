#!/usr/bin/env python
"""Wall-clock scaling of the batched DSE engine vs the naive loop.

Five acceptance gates guard the sweep engine:

1. On a >= 1000-point (app x scheme x scale x pixels) workload grid the
   vectorized engine must beat the per-point scalar loop by >= 10x
   wall-clock.
2. On a >= 50k-point grid that also sweeps the architecture axes
   (clock, grid SRAM, engine count, pipeline batches), the vectorized
   engine must beat the scalar engine by >= 10x, and
   :func:`repro.core.dse.pareto_front` must finish in under a second
   over a 100k-point random cloud and over a tie-heavy 32,768-cell
   plane shaped like layerbench's ``adaptive`` question (184 distinct
   costs, constant along the clock axis).
3. On a 9-axis grid — the seed eight plus the registry's
   ``log2_hashmap_sizes`` encoding axis — the vectorized fast path must
   still beat the scalar engine by >= 10x (>= 5x in --quick), proving
   axes registered through ``repro.core.axes`` ride the batched paths.
4. The fixed costs a small sweep pays per call: the median of
   :func:`repro.core.dse.evaluate_block` on a 1-point block must stay
   <= 0.08 ms, and of ``SweepGrid.from_dict(d).resolve()`` on
   ``bench_store``'s warm-restart grid <= 0.1 ms.  --quick reports the
   two medians without gating them, so a slow shared host cannot fail
   the smoke run.
5. The dense queries at the kernel's speed: on a 1,048,576-point grid
   shaped like layerbench's ``adaptive`` question, the median
   ``SweepResult.pareto_front`` (all-apps average) must stay <= 0.8x
   the median dense ``sweep_grid`` of the same grid, timed in
   interleaved rounds (sweep, front, cheapest point at 60 FPS) on each
   round's fresh result.  ``cheapest_point_meeting_fps`` is reported
   beside it; --quick reports both without gating.

Both sides agree to 1e-9 relative (the correctness net is
``tests/test_golden_values`` + ``tests/test_sweep_engine``; this file
re-checks a sample so a regression cannot hide behind a fast-but-wrong
path).  Results are also written to ``BENCH_sweep.json`` (points/sec per
engine, grid sizes, speedups) so the perf trajectory stays
machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py          # full gate
    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --quick  # CI smoke

Exits non-zero when a floor is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.config import SCALE_FACTORS
from repro.core.dse import (
    SweepGrid, evaluate_block, pareto_front, shard_plan, sweep_grid,
)
from repro.core.emulator import emulate_uncached

from bench_store import build_restart_grid

#: wall-clock floor for the full >= 1000-point vectorized gate
SPEEDUP_FLOOR = 10.0
#: smoke floor for --quick (smaller grid: fixed per-block overhead weighs more)
QUICK_SPEEDUP_FLOOR = 5.0
#: floor for the vectorized engine over the scalar engine on the
#: >= 50k-point architecture grid (full mode only)
ARCH_SPEEDUP_FLOOR = 10.0
#: ceiling for a 100k-point Pareto front, and for the tie-heavy plane's
PARETO_100K_CEILING_S = 1.0
#: distinct costs of the tie-heavy plane (the ``adaptive`` plane's areas)
PARETO_TIES_DISTINCT_COSTS = 184
#: ceilings on the median fixed cost of one 1-point block and of one
#: grid rebuilt from its JSON axes (full mode only)
BLOCK_1PT_CEILING_MS = 0.08
GRID_FROM_DICT_CEILING_MS = 0.1
#: timed calls behind each fixed-cost median
FIXED_COST_CALLS = 1000
#: ceiling on the dense front's median over the dense sweep's (full mode)
FRONT_OVER_SWEEP_CEILING = 0.8
#: interleaved (sweep, front, cheapest) rounds behind the query medians
QUERY_ROUNDS = 41
QUERY_SCHEME = "multi_res_hashgrid"
FHD = 1920 * 1080


def build_grid(n_pixel_steps: int) -> SweepGrid:
    """4 apps x 3 schemes x 4 scales x ``n_pixel_steps`` resolutions."""
    pixel_counts = tuple(
        int(p) for p in np.linspace(100_000, 3840 * 2160, n_pixel_steps)
    )
    return SweepGrid(
        apps=APP_NAMES,
        schemes=ENCODING_SCHEMES,
        scale_factors=SCALE_FACTORS,
        pixel_counts=pixel_counts,
    )


def build_architecture_grid(quick: bool) -> SweepGrid:
    """The architecture-axis hypercube: >= 50k points in full mode."""
    n_pixel_steps = 2 if quick else 7
    clocks = (0.9, 1.695) if quick else (0.6, 0.9, 1.2, 1.695, 2.0)
    srams = (512, 1024) if quick else (256, 512, 1024, 2048)
    batches = (8, 16) if quick else (4, 8, 16, 32)
    return SweepGrid(
        apps=APP_NAMES,
        schemes=ENCODING_SCHEMES,
        scale_factors=SCALE_FACTORS,
        pixel_counts=tuple(
            int(p) for p in np.linspace(518_400, 3840 * 2160, n_pixel_steps)
        ),
        clocks_ghz=clocks,
        grid_sram_kb=srams,
        n_engines=(8, 16),
        n_batches=batches,
    )


def build_encoding_grid(quick: bool) -> SweepGrid:
    """A 9-axis hypercube: the seed eight plus ``log2_hashmap_sizes``."""
    scales = (8, 64) if quick else SCALE_FACTORS
    pixels = (2_073_600,) if quick else (518_400, 2_073_600)
    return SweepGrid(
        apps=APP_NAMES,
        schemes=("multi_res_hashgrid",),
        scale_factors=scales,
        pixel_counts=pixels,
        clocks_ghz=(0.9, 1.695),
        grid_sram_kb=(512, 1024),
        n_engines=(8, 16),
        n_batches=(8, 16),
        log2_hashmap_sizes=(14, 19, 22),
    )


def time_naive_loop(grid: SweepGrid) -> float:
    """The seed-era sweep: one uncached scalar emulation per grid point."""
    start = time.perf_counter()
    for point in grid.points():  # 8- or 11-tuples, workload axes first
        app, scheme, scale, n_pixels = point[:4]
        emulate_uncached(app, scheme, scale, n_pixels)
    return time.perf_counter() - start


def time_engine(grid: SweepGrid, engine: str, repeats: int = 1, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sweep_grid(grid, engine=engine, use_cache=False, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def time_cached(grid: SweepGrid) -> float:
    sweep_grid(grid)  # warm
    start = time.perf_counter()
    sweep_grid(grid)
    return time.perf_counter() - start


def time_pareto_100k() -> float:
    rng = np.random.default_rng(0)
    costs = rng.uniform(0.1, 100.0, 100_000)
    values = rng.uniform(0.1, 100.0, 100_000)
    start = time.perf_counter()
    front = pareto_front(costs, values)
    elapsed = time.perf_counter() - start
    assert front, "front of a random cloud is never empty"
    return elapsed


def time_pareto_ties() -> float:
    """One front over an ``adaptive``-shaped plane of cost cells: 8
    scales x 32 clocks x 16 SRAM sizes x 8 engine counts, whose cost
    (area) does not vary along clock and takes 184 distinct values."""
    rng = np.random.default_rng(0)
    areas = rng.uniform(0.1, 100.0, PARETO_TIES_DISTINCT_COSTS)
    costs = np.broadcast_to(
        rng.choice(areas, (8, 1, 16, 8)), (8, 32, 16, 8)
    ).reshape(-1)
    values = rng.uniform(0.1, 100.0, costs.size)
    start = time.perf_counter()
    front = pareto_front(costs, values)
    elapsed = time.perf_counter() - start
    assert front, "front of a random plane is never empty"
    return elapsed


def median_call_ms(fn, calls: int = FIXED_COST_CALLS) -> float:
    """Median wall time of one ``fn()`` call, over ``calls`` timed calls."""
    for _ in range(calls // 10):  # warm
        fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def time_fixed_costs(quick: bool) -> dict:
    """Medians of the two per-call costs every small sweep pays."""
    one_point = SweepGrid(
        apps=("nerf",), schemes=("multi_res_hashgrid",), scale_factors=(8,),
    ).resolve()
    ((_, task),) = shard_plan(one_point, 1)
    axes = build_restart_grid(quick).resolve().to_dict()
    return {
        "evaluate_block_1pt_ms": median_call_ms(lambda: evaluate_block(task)),
        "grid_from_dict_resolve_ms": median_call_ms(
            lambda: SweepGrid.from_dict(axes).resolve()
        ),
        "calls": FIXED_COST_CALLS,
    }


def build_adaptive_grid() -> SweepGrid:
    """The shape of layerbench's ``adaptive`` question: 1,048,576 points,
    2 apps x 8 scales x 32 clocks x 16 SRAM sizes x 8 engine counts x
    16 batch counts (32,768 cost cells)."""
    return SweepGrid(
        apps=("nerf", "gia"), schemes=(QUERY_SCHEME,),
        scale_factors=tuple(2 ** i for i in range(8)), pixel_counts=(FHD,),
        clocks_ghz=tuple(float(c) for c in np.linspace(0.5, 2.1, 32)),
        grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
        n_engines=tuple(2 ** i for i in range(8)),
        n_batches=tuple(2 ** i for i in range(16)),
    )


def time_query_costs() -> dict:
    """Medians of the dense sweep, its front and its cheapest point.

    Each round sweeps the grid afresh and asks both queries of that
    result, so the three medians share the host's state.
    """
    grid = build_adaptive_grid()
    times = {"sweep_ms": [], "pareto_front_ms": [], "cheapest_ms": []}
    sweep_grid(grid, use_cache=False)  # warm
    for _ in range(QUERY_ROUNDS):
        start = time.perf_counter()
        result = sweep_grid(grid, use_cache=False)
        swept = time.perf_counter()
        front = result.pareto_front(QUERY_SCHEME, n_pixels=FHD)
        fronted = time.perf_counter()
        hit = result.cheapest_point_meeting_fps(
            "nerf", 60.0, n_pixels=FHD, scheme=QUERY_SCHEME
        )
        done = time.perf_counter()
        assert front and hit is not None
        times["sweep_ms"].append(swept - start)
        times["pareto_front_ms"].append(fronted - swept)
        times["cheapest_ms"].append(done - fronted)
    costs = {key: float(np.median(ts)) * 1e3 for key, ts in times.items()}
    costs.update(
        points=grid.size, rounds=QUERY_ROUNDS,
        front_over_sweep=costs["pareto_front_ms"] / costs["sweep_ms"],
        front_over_sweep_ceiling=FRONT_OVER_SWEEP_CEILING,
    )
    return costs


def check_sample_agreement(result) -> None:
    from repro.core.axes import EncodingVariant
    from repro.core.config import NFPConfig, NGPCConfig
    from repro.core.emulator import emulate_with_config

    grid = result.grid
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = tuple(rng.integers(n) for n in grid.shape)
        i, j, k, l, c, g, e, b = idx[:8]
        encoding = EncodingVariant()
        if len(idx) == 11:  # extension axes active: trailing (T, H, R)
            t, h, r = idx[8:]
            encoding = EncodingVariant(
                grid.gridtypes[t],
                grid.log2_hashmap_sizes[h],
                grid.per_level_scales[r],
            )
        nfp = NFPConfig(
            clock_ghz=grid.clocks_ghz[c],
            grid_sram_kb_per_engine=grid.grid_sram_kb[g],
            n_encoding_engines=grid.n_engines[e],
        )
        config = NGPCConfig(
            scale_factor=grid.scale_factors[k],
            nfp=nfp,
            n_pipeline_batches=grid.n_batches[b],
        )
        scalar = emulate_with_config(
            grid.apps[i], grid.schemes[j], config, grid.pixel_counts[l],
            encoding,
        )
        batched = float(result.accelerated_ms[idx])
        rel = abs(batched - scalar.accelerated_ms) / scalar.accelerated_ms
        assert rel <= 1e-9, (idx, rel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smaller grids, relaxed floors, no scalar arch gate",
    )
    parser.add_argument(
        "--output", default="BENCH_sweep.json",
        help="machine-readable results file (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    results = {"quick": args.quick}
    failures = []

    # -- gate 1: vectorized vs naive on the workload grid ------------------
    n_pixel_steps = 6 if args.quick else 21
    floor = QUICK_SPEEDUP_FLOOR if args.quick else SPEEDUP_FLOOR
    grid = build_grid(n_pixel_steps)
    if not args.quick and grid.size < 1000:
        raise AssertionError(f"gate requires >= 1000 points, built {grid.size}")

    emulate_uncached("nerf", "multi_res_hashgrid", 8)  # warm calibration caches
    naive_s = time_naive_loop(grid)
    batched_s = time_engine(grid, "vectorized", repeats=3)
    cached_s = time_cached(grid)
    check_sample_agreement(sweep_grid(grid))  # memoized: the timed result
    speedup = naive_s / batched_s
    results["workload_grid"] = {
        "points": grid.size,
        "naive_s": naive_s,
        "vectorized_s": batched_s,
        "cached_requery_s": cached_s,
        "naive_points_per_sec": grid.size / naive_s,
        "vectorized_points_per_sec": grid.size / batched_s,
        "speedup_vectorized_vs_naive": speedup,
        "floor": floor,
    }

    print(f"workload grid: {grid.size} points "
          f"({len(grid.apps)} apps x {len(grid.schemes)} schemes x "
          f"{len(grid.scale_factors)} scales x {len(grid.pixel_counts)} resolutions)")
    print(f"  naive per-point loop : {naive_s * 1e3:9.2f} ms "
          f"({naive_s / grid.size * 1e6:7.1f} us/point)")
    print(f"  batched (vectorized) : {batched_s * 1e3:9.2f} ms "
          f"({batched_s / grid.size * 1e6:7.1f} us/point)")
    print(f"  memoized re-query    : {cached_s * 1e3:9.2f} ms")
    print(f"  speedup              : {speedup:9.1f}x (floor {floor:.0f}x)")
    if speedup < floor:
        failures.append(
            f"vectorized sweep only {speedup:.1f}x faster than naive (< {floor:.0f}x)"
        )

    # -- gate 2: vectorized vs scalar on the architecture grid ------------
    arch = build_architecture_grid(args.quick)
    if not args.quick and arch.size < 50_000:
        raise AssertionError(
            f"architecture gate requires >= 50k points, built {arch.size}"
        )
    arch_shape = "x".join(str(n) for n in arch.shape)
    print(f"\narchitecture grid: {arch.size} points ({arch_shape})")
    vectorized_s = time_engine(arch, "vectorized", repeats=3)
    check_sample_agreement(sweep_grid(arch, use_cache=False))
    results["architecture_grid"] = {
        "points": arch.size,
        "shape": list(arch.shape),
        "vectorized_s": vectorized_s,
        "vectorized_points_per_sec": arch.size / vectorized_s,
    }
    print(f"  vectorized           : {vectorized_s * 1e3:9.2f} ms "
          f"({arch.size / vectorized_s / 1e6:7.2f} Mpoints/s)")
    if args.quick:
        print("  scalar engine        : skipped (--quick)")
    else:
        scalar_s = time_engine(arch, "scalar")
        arch_speedup = scalar_s / vectorized_s
        results["architecture_grid"].update(
            scalar_s=scalar_s,
            scalar_points_per_sec=arch.size / scalar_s,
            speedup_vectorized_vs_scalar=arch_speedup,
            floor=ARCH_SPEEDUP_FLOOR,
        )
        print(f"  scalar engine        : {scalar_s * 1e3:9.2f} ms "
              f"({scalar_s / arch.size * 1e6:7.1f} us/point)")
        print(f"  vectorized vs scalar : {arch_speedup:9.1f}x "
              f"(floor {ARCH_SPEEDUP_FLOOR:.0f}x)")
        if arch_speedup < ARCH_SPEEDUP_FLOOR:
            failures.append(
                f"vectorized engine only {arch_speedup:.1f}x faster than "
                f"scalar on the architecture grid "
                f"(< {ARCH_SPEEDUP_FLOOR:.0f}x)"
            )

    # -- gate 3: the 9-axis encoding grid keeps the vectorized fast path ---
    enc_grid = build_encoding_grid(args.quick)
    enc_shape = "x".join(str(n) for n in enc_grid.shape)
    print(f"\nencoding grid: {enc_grid.size} points ({enc_shape})")
    enc_vec_s = time_engine(enc_grid, "vectorized", repeats=3)
    enc_scalar_s = time_engine(enc_grid, "scalar")
    enc_result = sweep_grid(enc_grid, engine="vectorized", use_cache=False)
    assert enc_result.accelerated_ms.ndim == 11, "extension axes inactive?"
    check_sample_agreement(enc_result)
    enc_speedup = enc_scalar_s / enc_vec_s
    enc_floor = QUICK_SPEEDUP_FLOOR if args.quick else SPEEDUP_FLOOR
    results["encoding_grid"] = {
        "points": enc_grid.size,
        "shape": list(enc_grid.shape),
        "scalar_s": enc_scalar_s,
        "vectorized_s": enc_vec_s,
        "vectorized_points_per_sec": enc_grid.size / enc_vec_s,
        "speedup_vectorized_vs_scalar": enc_speedup,
        "floor": enc_floor,
    }
    print(f"  scalar engine        : {enc_scalar_s * 1e3:9.2f} ms "
          f"({enc_scalar_s / enc_grid.size * 1e6:7.1f} us/point)")
    print(f"  batched (vectorized) : {enc_vec_s * 1e3:9.2f} ms "
          f"({enc_vec_s / enc_grid.size * 1e6:7.1f} us/point)")
    print(f"  speedup              : {enc_speedup:9.1f}x "
          f"(floor {enc_floor:.0f}x)")
    if enc_speedup < enc_floor:
        failures.append(
            f"9-axis vectorized sweep only {enc_speedup:.1f}x faster than "
            f"scalar (< {enc_floor:.0f}x)"
        )

    # -- gate 2 (cont.): pareto fronts: a 100k cloud, a tie-heavy plane
    results["pareto_100k_ceiling_s"] = PARETO_100K_CEILING_S
    for key, label, timer in (
        ("pareto_100k_s", "100k random points", time_pareto_100k),
        ("pareto_ties_32k_s", "32,768 cells, 184 distinct costs",
         time_pareto_ties),
    ):
        pareto_s = timer()
        results[key] = pareto_s
        print(f"\npareto front, {label}: {pareto_s * 1e3:.1f} ms "
              f"(ceiling {PARETO_100K_CEILING_S * 1e3:.0f} ms)")
        if pareto_s >= PARETO_100K_CEILING_S:
            failures.append(
                f"pareto_front on {label} took {pareto_s:.2f}s (>= 1s)"
            )

    # -- gate 4: the fixed costs of a small sweep (reported in --quick) ---
    fixed = time_fixed_costs(args.quick)
    fixed["gated"] = not args.quick
    results["fixed_costs"] = fixed
    print(f"\nfixed costs, median of {FIXED_COST_CALLS} calls"
          f"{' (reported only, --quick)' if args.quick else ''}:")
    for key, label, ceiling in (
        ("evaluate_block_1pt_ms", "evaluate_block, 1-point block",
         BLOCK_1PT_CEILING_MS),
        ("grid_from_dict_resolve_ms", "SweepGrid.from_dict(d).resolve()",
         GRID_FROM_DICT_CEILING_MS),
    ):
        fixed[key.replace("_ms", "_ceiling_ms")] = ceiling
        print(f"  {label:34s}: {fixed[key]:.4f} ms (ceiling {ceiling} ms)")
        if not args.quick and fixed[key] > ceiling:
            failures.append(
                f"{label} takes {fixed[key]:.4f} ms (> {ceiling} ms)"
            )

    # -- gate 5: the dense queries against the dense sweep (reported in
    # --quick)
    costs = time_query_costs()
    costs["gated"] = not args.quick
    results["query_costs"] = costs
    ratio = costs["front_over_sweep"]
    print(f"\ndense queries, {costs['points']:,}-point adaptive-shaped grid, "
          f"medians of {QUERY_ROUNDS} interleaved rounds"
          f"{' (reported only, --quick)' if args.quick else ''}:")
    print(f"  sweep_grid                        : "
          f"{costs['sweep_ms']:.2f} ms")
    print(f"  pareto_front (all-apps average)   : "
          f"{costs['pareto_front_ms']:.2f} ms ({ratio:.2f}x the sweep, "
          f"ceiling {FRONT_OVER_SWEEP_CEILING}x)")
    print(f"  cheapest_point_meeting_fps        : "
          f"{costs['cheapest_ms']:.2f} ms")
    if not args.quick and ratio > FRONT_OVER_SWEEP_CEILING:
        failures.append(
            f"pareto_front takes {ratio:.2f}x the dense sweep "
            f"(> {FRONT_OVER_SWEEP_CEILING}x)"
        )

    print("\nagreement: batched == scalar to 1e-9 rel (10-point sample)")
    results["failures"] = failures
    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS")
    return 0


def bench_sweep_scaling(benchmark):
    """pytest-benchmark hook: the batched engine on the full 1008-point grid."""
    grid = build_grid(21)
    result = benchmark(sweep_grid, grid, use_cache=False)
    assert result.grid.size >= 1000
    naive_s = time_naive_loop(grid)
    assert naive_s / time_engine(grid, "vectorized") >= SPEEDUP_FLOOR


def bench_vectorized_architecture_grid(benchmark):
    """pytest-benchmark hook: the vectorized engine on the arch grid."""
    grid = build_architecture_grid(quick=True)
    result = benchmark(sweep_grid, grid, engine="vectorized", use_cache=False)
    check_sample_agreement(result)


if __name__ == "__main__":
    sys.exit(main())
