#!/usr/bin/env python
"""Streaming-sweep gates: time-to-first-front and frame/pickle parity.

Two acceptance bars for the streaming result path and the binary frame
transport that replaced the pickle wire protocol:

1. **Time to first front.**  On a >= 500k-point architecture grid, the
   streaming evaluator must yield its first exact partial Pareto front
   in under **10%** of the full vectorized sweep's wall clock.  The win
   is structural: blocks are evaluated in window-major order (every
   (app, scheme) pair of one resolution window back to back), so full
   app coverage — and with it a non-empty exact front — lands after the
   first window instead of after the whole grid.

2. **Frame/pickle parity.**  A representative cluster result message
   (float arrays, placements, an NGPCConfig) round-tripped through the
   :mod:`repro.transport` frame codec must be **bit-identical** to the
   same message round-tripped through the retired pickle path: equal
   dtypes, equal shapes, equal payload bytes.  (Pickle is banned from
   ``src/repro/service`` — this benchmark is the one place it still
   runs, as the reference the frames are measured against.)

The first-front gate is measured as interleaved dense/stream pairs on
fresh grids, alternating which side runs first, and gates on the
median of the per-pair fractions: drift on a shared host slows both
sides of a pair alike, where a best-of-N against a best-of-N compares
two different moments.  Every pair is printed and recorded in
``BENCH_stream.json`` (a CI artifact) so the streaming trajectory
stays machine-readable across PRs; the transport timings are best-of-N.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_stream.py          # full gate
    PYTHONPATH=src python benchmarks/bench_stream.py --quick  # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import argparse
import json
import pickle  # the retired wire format: kept here as the parity reference
import statistics
import sys
import time

import numpy as np

from repro.api import LocalBackend, SweepGrid
from repro.core import NGPCConfig
from repro.core.dse import sweep_grid
from repro.transport import decode_message, encode_message

#: first partial front must land within this fraction of the dense wall
MAX_FIRST_FRONT_FRACTION = 0.10
#: the gate is defined on a grid at least this large
MIN_GRID_POINTS = 500_000


def build_grid(iteration: int) -> SweepGrid:
    """A 3,276,800-point grid, distinct per iteration (cold everywhere)."""
    return SweepGrid(
        schemes=("multi_res_hashgrid",),
        scale_factors=(8, 16, 32, 64),
        pixel_counts=(100_000, 1_000_000, 2_073_600, 3840 * 2160),
        clocks_ghz=tuple(
            float(c) for c in np.linspace(0.6, 1.695 + iteration * 1e-6, 32)
        ),
        grid_sram_kb=tuple(16 << k for k in range(16)),  # 16 KB .. 512 MB
        n_engines=(2, 4, 6, 8, 12, 16, 24, 32, 48, 64),
        n_batches=(1, 2, 4, 6, 8, 12, 16, 24, 32, 48),
    )


def probe_streaming(pairs: int) -> dict:
    grid_points = build_grid(0).size
    assert grid_points >= MIN_GRID_POINTS, grid_points
    backend = LocalBackend(engine="vectorized", use_cache=False)
    scheme, n_pixels = "multi_res_hashgrid", 2_073_600

    def dense_s(i: int) -> float:
        """Wall of one vectorized whole-grid call on a fresh grid."""
        grid = build_grid(i).resolve()
        start = time.perf_counter()
        sweep_grid(grid, engine="vectorized", use_cache=False)
        return time.perf_counter() - start

    def first_front(i: int):
        """(seconds, points) until a fresh grid's first streamed front.

        The generator is abandoned after it — the quantity under test is
        how soon a watcher sees a usable answer; closing it (joining the
        block in flight) happens outside the timed region.
        """
        grid = build_grid(1000 + i)
        start = time.perf_counter()
        stream = backend.stream_events(grid, scheme=scheme, n_pixels=n_pixels)
        try:
            for event in stream:
                if event["event"] == "front":
                    return time.perf_counter() - start, len(event["points"])
        finally:
            stream.close()
        raise AssertionError("stream ended without a partial front")

    # an untimed warm-up of each side (first-touch allocation and import
    # costs stay out of the latency gate, as in bench_cluster); then
    # interleaved pairs, alternating which side runs first, so drift on
    # a shared host hits both sides of a pair alike
    dense_s(-1)
    first_front(-1)
    rows = []
    for i in range(pairs):
        stream_first = i % 2 == 1
        if stream_first:
            first_s, points = first_front(i)
            dense = dense_s(i)
        else:
            dense = dense_s(i)
            first_s, points = first_front(i)
        rows.append({
            "dense_s": dense, "first_front_s": first_s,
            "fraction": first_s / dense, "first_front_points": points,
            "stream_first": stream_first,
        })

    # -- one streamed run to completion: the final front must match ------
    # the dense evaluator's answer exactly (same grid, same layout)
    parity_grid = build_grid(2000).resolve()
    start = time.perf_counter()
    final_front = None
    for event in backend.stream_events(
        parity_grid, scheme=scheme, n_pixels=n_pixels
    ):
        if event["event"] == "front":
            final_front = event["points"]
    streamed_total_s = time.perf_counter() - start
    dense_front = [
        p.to_dict()
        for p in sweep_grid(
            parity_grid, engine="vectorized", use_cache=False
        ).pareto_front(scheme, n_pixels=n_pixels)
    ]
    assert final_front == dense_front, "streamed final front != dense front"

    fractions = [row["fraction"] for row in rows]
    return {
        "grid_points": grid_points,
        "pairs": rows,
        "dense_s_median": statistics.median(r["dense_s"] for r in rows),
        "first_front_s_median": statistics.median(
            r["first_front_s"] for r in rows
        ),
        "first_front_points": rows[-1]["first_front_points"],
        "first_front_fraction": statistics.median(fractions),
        "first_front_fraction_quartiles": statistics.quantiles(
            fractions, n=4
        ),
        "streamed_total_s": streamed_total_s,
        "final_front_matches_dense": True,
    }


def probe_transport() -> dict:
    """Frame round trip vs the retired pickle path: bit-identical, timed."""
    rng = np.random.default_rng(7)
    message = {
        "job_id": "bench-stream",
        "task_id": 17,
        "placement": ((0, 1), (0, 1), (0, 12), (0, 12), (0, 10), (0, 10)),
        "ngpc": NGPCConfig(scale_factor=16),
        "block": {
            "baseline_ms": rng.random((12, 12, 10, 10)),
            "accelerated_ms": rng.random((12, 12, 10, 10)),
            "amdahl_bound": rng.random((12, 12, 10, 10)),
            "iterations": rng.integers(1, 64, (12, 12, 10, 10)),
        },
    }

    frame_bytes = encode_message(message)
    from_frame = decode_message(frame_bytes)
    pickle_bytes = pickle.dumps(message)
    from_pickle = pickle.loads(pickle_bytes)

    mismatches = []
    for name in message["block"]:
        a, b = from_frame["block"][name], from_pickle["block"][name]
        if a.dtype != b.dtype or a.shape != b.shape:
            mismatches.append(f"{name}: dtype/shape diverge")
        elif a.tobytes() != b.tobytes():
            mismatches.append(f"{name}: payload bytes diverge")
    if from_frame["placement"] != from_pickle["placement"]:
        mismatches.append("placement tuples diverge")
    if from_frame["ngpc"] != from_pickle["ngpc"]:
        mismatches.append("NGPCConfig diverges")

    def best_of(fn, n=30):
        walls = []
        for _ in range(n):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return min(walls)

    return {
        "frame_bytes": len(frame_bytes),
        "pickle_bytes": len(pickle_bytes),
        "frame_encode_s": best_of(lambda: encode_message(message)),
        "frame_decode_s": best_of(lambda: decode_message(frame_bytes)),
        "pickle_encode_s": best_of(lambda: pickle.dumps(message)),
        "pickle_decode_s": best_of(lambda: pickle.loads(pickle_bytes)),
        "mismatches": mismatches,
        "bit_identical": not mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer iterations, same gates")
    parser.add_argument("--output", default="BENCH_stream.json")
    args = parser.parse_args()

    results = probe_streaming(pairs=5 if args.quick else 9)
    results["transport"] = probe_transport()
    results["quick"] = args.quick

    print(f"grid: {results['grid_points']:,} points")
    for n, row in enumerate(results["pairs"], 1):
        order = "stream first" if row["stream_first"] else "dense first"
        print(f"pair {n:2d} ({order:12s}): dense "
              f"{row['dense_s'] * 1000:8.1f} ms, first front "
              f"{row['first_front_s'] * 1000:7.1f} ms "
              f"({row['first_front_points']} points) -> "
              f"{100 * row['fraction']:5.1f}%")
    q1, _, q3 = results["first_front_fraction_quartiles"]
    print(f"median per-pair fraction: "
          f"{100 * results['first_front_fraction']:.1f}% of the dense wall "
          f"(quartiles {100 * q1:.1f}-{100 * q3:.1f}%; gate "
          f"< {100 * MAX_FIRST_FRONT_FRACTION:.0f}%); dense "
          f"{results['dense_s_median'] * 1000:.1f} ms median; "
          f"streamed-to-completion {results['streamed_total_s']:.2f}s")
    t = results["transport"]
    print(f"transport: frame {t['frame_bytes']:,} B vs pickle "
          f"{t['pickle_bytes']:,} B; decode "
          f"{t['frame_decode_s'] * 1e6:.0f} us vs "
          f"{t['pickle_decode_s'] * 1e6:.0f} us; "
          f"bit-identical: {t['bit_identical']}")

    failures = []
    if results["grid_points"] < MIN_GRID_POINTS:
        failures.append(
            f"grid gate: {results['grid_points']} points "
            f"(need >= {MIN_GRID_POINTS})"
        )
    if results["first_front_fraction"] >= MAX_FIRST_FRONT_FRACTION:
        failures.append(
            f"latency gate: first front at a median "
            f"{100 * results['first_front_fraction']:.1f}% of the dense wall "
            f"(ceiling {100 * MAX_FIRST_FRONT_FRACTION:.0f}%)"
        )
    if not t["bit_identical"]:
        failures.append(
            "parity gate: frame round trip diverges from pickle: "
            + "; ".join(t["mismatches"])
        )
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all streaming gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
