#!/usr/bin/env python
"""Overhead gate of the ``repro.api`` Session facade.

The facade must stay free: a typed entry point that costs measurable
wall-clock over calling :func:`~repro.core.dse.sweep_grid` directly
would push hot-path consumers back to the raw engines and re-fragment
the API surface.  Two measurements on a >= 10k-point grid:

1. **Cold sweep overhead** (the gate): ``Session.sweep`` vs a direct
   ``sweep_grid`` call on the identical normalized grid, caches off,
   timed as interleaved pairs (alternating which runs first); the
   median of the per-pair relative differences must stay **< 5 %**.
2. **Warm (memoized) path**: the same comparison with the sweep memo
   hot, plus the per-query cost of ``Sweep.pareto()`` vs
   ``SweepResult.pareto_front()`` — reported for the record (absolute
   microseconds; no gate, the numbers sit at timer noise).

Results are written to ``BENCH_api.json`` and uploaded as a CI artifact
so the facade-cost trajectory stays machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_api.py          # full gate
    PYTHONPATH=src python benchmarks/bench_api.py --quick  # CI smoke

Exits non-zero when the gate is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.api import Session, SweepGrid
from repro.core.dse import sweep_grid
from repro.gpu.baseline import FHD_PIXELS

#: the acceptance ceiling on facade overhead over the direct engine call
OVERHEAD_CEILING = 0.05


def build_grid(quick: bool) -> SweepGrid:
    """>= 10k points full (10240), ~1k in --quick CI smoke."""
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=(FHD_PIXELS, 3840 * 2160),
        clocks_ghz=(0.8, 1.0, 1.2, 1.695) if quick else (0.8, 1.0, 1.2, 1.4, 1.695),
        grid_sram_kb=(512, 1024) if quick else (256, 512, 1024, 2048),
        n_engines=(8, 16) if quick else (4, 8, 16, 32),
        n_batches=(8, 16) if quick else (4, 8, 16, 32),
    )


def timed(fn, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def probe(quick: bool) -> dict:
    grid = build_grid(quick).normalized()  # the facade's canonical grid

    # -- cold sweeps: interleaved Session/direct pairs, alternating which
    # runs first, so drift on a shared host hits both sides of a pair
    # alike; the gate reads the median of the per-pair relative
    # differences (one ~4 ms sweep per side is far below the host's
    # noise, so no single comparison can carry a 5% gate)
    pairs = 41 if quick else 101
    session_cold = Session.local(engine="vectorized", use_cache=False)

    def direct():
        return sweep_grid(grid, engine="vectorized", use_cache=False)

    def facade():
        return session_cold.sweep(grid)

    direct(), facade()  # untimed warm-up of both sides
    direct_cold, facade_cold, paired = [], [], []
    for i in range(pairs):
        order = (facade, direct) if i % 2 else (direct, facade)
        walls = {fn: timed(fn, 1)[0] for fn in order}
        direct_cold.append(walls[direct])
        facade_cold.append(walls[facade])
        paired.append(walls[facade] / walls[direct] - 1.0)
    cold_overhead = statistics.median(paired)

    # -- warm (memoized) path ----------------------------------------------
    session_warm = Session.local(engine="vectorized")
    sweep_grid(grid, engine="vectorized")  # prime the memo
    session_warm.sweep(grid)
    warm_repeats = 100 if quick else 300
    direct_warm_s = statistics.median(
        timed(lambda: sweep_grid(grid, engine="vectorized"), warm_repeats)
    )
    facade_warm_s = statistics.median(
        timed(lambda: session_warm.sweep(grid), warm_repeats)
    )

    # -- per-query cost through the handle ----------------------------------
    handle = session_warm.sweep(grid)
    result = handle.result
    scheme = grid.schemes[0]
    query_repeats = 20 if quick else 50
    direct_pareto_s = statistics.median(
        timed(lambda: result.pareto_front(scheme, FHD_PIXELS), query_repeats)
    )
    facade_pareto_s = statistics.median(
        timed(lambda: handle.pareto(n_pixels=FHD_PIXELS), query_repeats)
    )

    q1, _, q3 = statistics.quantiles(paired, n=4)
    return {
        "grid_points": grid.size,
        "cold_pairs": pairs,
        "cold_direct_s": statistics.median(direct_cold),
        "cold_facade_s": statistics.median(facade_cold),
        "cold_overhead_pct": cold_overhead * 100.0,
        "cold_overhead_quartiles_pct": [q1 * 100.0, q3 * 100.0],
        "warm_direct_s": direct_warm_s,
        "warm_facade_s": facade_warm_s,
        "warm_facade_extra_us": (facade_warm_s - direct_warm_s) * 1e6,
        "pareto_direct_s": direct_pareto_s,
        "pareto_facade_s": facade_pareto_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", default="BENCH_api.json")
    args = parser.parse_args()

    results = probe(args.quick)
    results["quick"] = args.quick
    results["overhead_ceiling_pct"] = OVERHEAD_CEILING * 100.0

    print(f"grid: {results['grid_points']:,} points")
    q1, q3 = results["cold_overhead_quartiles_pct"]
    print(f"cold sweep:   direct {results['cold_direct_s'] * 1000:8.1f} ms, "
          f"Session {results['cold_facade_s'] * 1000:8.1f} ms (medians); "
          f"median paired overhead {results['cold_overhead_pct']:+.2f}% "
          f"over {results['cold_pairs']} pairs "
          f"(quartiles {q1:+.2f}% .. {q3:+.2f}%)")
    print(f"warm sweep:   direct {results['warm_direct_s'] * 1e6:8.1f} us, "
          f"Session {results['warm_facade_s'] * 1e6:8.1f} us "
          f"({results['warm_facade_extra_us']:+.1f} us facade cost)")
    print(f"pareto query: direct {results['pareto_direct_s'] * 1e6:8.1f} us, "
          f"handle {results['pareto_facade_s'] * 1e6:8.1f} us")

    failures = []
    if results["grid_points"] < (1_000 if args.quick else 10_000):
        failures.append("grid too small for the gate")
    if results["cold_overhead_pct"] >= OVERHEAD_CEILING * 100.0:
        failures.append(
            f"overhead gate: Session.sweep costs a median "
            f"{results['cold_overhead_pct']:+.2f}% over direct sweep_grid "
            f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("facade overhead gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
