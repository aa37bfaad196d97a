#!/usr/bin/env python
"""Latency probe of the async DSE query service: cold sweep vs cached query.

Four gates guard the serving layer:

1. **Coalescing**: 32 concurrent identical sweep requests against a
   >= 10k-point grid must trigger exactly one underlying grid
   evaluation.
2. **Cached-query latency**: with a result cached, a ``pareto_front``
   query must answer in < 50 ms — *measured while a cold sweep of a
   larger grid is still running*, so the number reflects a loaded
   service, not an idle one.
3. **Cache speedup**: a cached sweep request must be far cheaper than
   the cold evaluation it memoized (sanity floor, not a tight gate).
4. **Served-result wire**: on the 10,240-point grid, a cached
   ``/result`` fetched over real keep-alive HTTP as a binary frame
   (``SyncServiceClient.fetch_result``) must be >= 10x faster than the
   same result as JSON (``json.loads`` + ``SweepResult.from_payload``),
   as the median of per-pair speedups over interleaved frame/JSON round
   trips that alternate which runs first — with bit-identical arrays in
   every pair.

Results are written to ``BENCH_service.json`` (cold/cached latencies,
grid sizes, coalescing counters, the wire pairs and their quartiles)
and uploaded as a CI artifact so the serving-latency trajectory stays
machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_service.py          # full gate
    PYTHONPATH=src python benchmarks/bench_service.py --quick  # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import http.client
import json
import statistics
import sys
import time

import numpy as np

from repro.core.dse import RESULT_ARRAY_FIELDS, SweepGrid, SweepResult, sweep_grid
from repro.gpu.baseline import FHD_PIXELS
from repro.service import SweepService, start_http_server
from repro.service.client import SyncServiceClient

#: the acceptance ceiling for a cached pareto_front query under load
CACHED_QUERY_CEILING_S = 0.050
#: concurrent identical requests that must coalesce into one evaluation
N_CONCURRENT = 32
#: the floor on the median per-pair JSON/frame time ratio of /result
WIRE_SPEEDUP_FLOOR = 10.0
#: interleaved frame/JSON round-trip pairs timed by the wire gate
WIRE_PAIRS = 10


def build_query_grid(quick: bool) -> SweepGrid:
    """The cached grid queries are answered from (>= 10k points full)."""
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=(FHD_PIXELS, 3840 * 2160),
        clocks_ghz=(0.8, 1.0, 1.2, 1.695) if quick else (0.8, 1.0, 1.2, 1.4, 1.695),
        grid_sram_kb=(512, 1024) if quick else (256, 512, 1024, 2048),
        n_engines=(8, 16) if quick else (4, 8, 16, 32),
        n_batches=(8, 16) if quick else (4, 8, 16, 32),
    )


def build_cold_grid(quick: bool) -> SweepGrid:
    """A bigger grid whose cold sweep overlaps the cached queries."""
    import numpy as np

    n_pixels = 4 if quick else 12
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=tuple(
            int(p) for p in np.linspace(100_000, 3840 * 2160, n_pixels)
        ),
        clocks_ghz=(0.6, 0.9, 1.2, 1.695, 2.0),
        grid_sram_kb=(256, 512, 1024, 2048),
        n_engines=(4, 8, 16, 32),
        n_batches=(4, 8, 16, 32),
    )


def time_wire_pairs(port: int, grid: dict, pairs: int) -> dict:
    """Interleaved JSON/frame ``/result`` round trips over keep-alive HTTP.

    Each side holds one open connection; the pairs alternate which side
    goes first.  Returns the (json_s, frame_s) pairs and whether every
    pair decoded bit-identical arrays.
    """
    body = json.dumps({"grid": grid})
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def via_json() -> SweepResult:
        connection.request("POST", "/result", body,
                           {"Content-Type": "application/json"})
        payload = json.loads(connection.getresponse().read())["result"]
        return SweepResult.from_payload(payload)

    out, identical = [], True
    with SyncServiceClient(port=port) as client, contextlib.closing(connection):
        sides = {"json": via_json, "frame": lambda: client.fetch_result(grid)}
        for fetch in sides.values():  # open both connections untimed
            fetch()
        for i in range(pairs):
            seconds, results = {}, {}
            for name in (("json", "frame") if i % 2 == 0 else ("frame", "json")):
                start = time.perf_counter()
                results[name] = sides[name]()
                seconds[name] = time.perf_counter() - start
            identical &= all(
                np.array_equal(getattr(results["json"], field),
                               getattr(results["frame"], field))
                for field in RESULT_ARRAY_FIELDS
            )
            out.append((seconds["json"], seconds["frame"]))
    return {"pairs": out, "identical": identical}


def quartiles(values) -> list:
    return [float(q) for q in statistics.quantiles(values, n=4)]


async def probe_wire(grid: SweepGrid) -> dict:
    """Gate 4: the cached served result, as JSON and as a frame."""
    service = SweepService(engine="vectorized")
    server = await start_http_server(service, "127.0.0.1", 0)
    try:
        await service.sweep(grid)  # cached: the trips time the wire alone
        timed = await asyncio.to_thread(
            time_wire_pairs, server.port, grid.to_dict(), WIRE_PAIRS
        )
    finally:
        await server.close()
    pairs = timed["pairs"]
    speedups = [json_s / frame_s for json_s, frame_s in pairs]
    return {
        "wire_grid_points": grid.size,
        "wire_pairs_json_frame_s": pairs,
        "wire_json_s_quartiles": quartiles([j for j, _ in pairs]),
        "wire_frame_s_quartiles": quartiles([f for _, f in pairs]),
        "wire_speedup_quartiles": quartiles(speedups),
        "wire_speedup_median": statistics.median(speedups),
        "wire_bit_identical": timed["identical"],
    }


async def probe(quick: bool) -> dict:
    query_grid = build_query_grid(quick)
    cold_grid = build_cold_grid(quick)
    scheme = query_grid.schemes[0]

    # -- gate 1: coalescing ------------------------------------------------
    service = SweepService(engine="vectorized")
    start = time.perf_counter()
    await asyncio.gather(*(service.sweep(query_grid) for _ in range(N_CONCURRENT)))
    coalesced_wall_s = time.perf_counter() - start
    evaluations = service.evaluations
    coalesced = service.coalesced

    # -- cold-sweep baseline ----------------------------------------------
    start = time.perf_counter()
    await service.sweep(cold_grid)
    cold_sweep_s = time.perf_counter() - start

    # -- cached sweep latency ----------------------------------------------
    start = time.perf_counter()
    await service.sweep(cold_grid)
    cached_sweep_s = time.perf_counter() - start

    # -- gate 2: cached queries while a cold sweep runs --------------------
    # a fresh service so the big grid is cold again, with an artificial
    # floor on the cold evaluation so the overlap window is guaranteed
    def slow_cold(grid, engine="vectorized", ngpc=None, on_block=None):
        result = sweep_grid(grid, engine="vectorized", ngpc=ngpc, use_cache=False)
        if grid.size >= cold_grid.size:
            time.sleep(0.5)
        return result

    loaded = SweepService(engine="vectorized", sweep_fn=slow_cold)
    await loaded.sweep(query_grid)  # warm the query grid
    cold_task = asyncio.ensure_future(loaded.sweep(cold_grid))
    await asyncio.sleep(0.1)  # the cold sweep is inside the executor now
    latencies = []
    for _ in range(10):
        start = time.perf_counter()
        front = await loaded.pareto_front(
            query_grid, scheme=scheme, n_pixels=FHD_PIXELS
        )
        latencies.append(time.perf_counter() - start)
        assert front, "pareto front must not be empty"
    overlapped = not cold_task.done()
    await cold_task
    cached_query_s = statistics.median(latencies)

    # -- gate 4: the served-result wire (always the 10,240-point grid) ------
    wire = await probe_wire(build_query_grid(quick=False))

    return {
        **wire,
        "query_grid_points": query_grid.size,
        "cold_grid_points": cold_grid.size,
        "n_concurrent": N_CONCURRENT,
        "evaluations": evaluations,
        "coalesced": coalesced,
        "coalesced_wall_s": coalesced_wall_s,
        "cold_sweep_s": cold_sweep_s,
        "cached_sweep_s": cached_sweep_s,
        "cached_query_s_p50": cached_query_s,
        "cached_query_s_max": max(latencies),
        "queries_overlapped_cold_sweep": overlapped,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args()

    results = asyncio.run(probe(args.quick))
    results["quick"] = args.quick

    print(f"query grid: {results['query_grid_points']:,} points, "
          f"cold grid: {results['cold_grid_points']:,} points")
    print(f"{results['n_concurrent']} concurrent identical sweeps -> "
          f"{results['evaluations']} evaluation(s), "
          f"{results['coalesced']} coalesced "
          f"({results['coalesced_wall_s'] * 1000:.1f} ms wall)")
    print(f"cold sweep:   {results['cold_sweep_s'] * 1000:10.1f} ms")
    print(f"cached sweep: {results['cached_sweep_s'] * 1000:10.3f} ms")
    print(f"cached pareto query under load: "
          f"{results['cached_query_s_p50'] * 1000:.2f} ms p50 "
          f"(max {results['cached_query_s_max'] * 1000:.2f} ms, "
          f"overlap={results['queries_overlapped_cold_sweep']})")
    json_q, frame_q = (results["wire_json_s_quartiles"],
                       results["wire_frame_s_quartiles"])
    print(f"/result wire, {results['wire_grid_points']:,} points, "
          f"{len(results['wire_pairs_json_frame_s'])} pairs: JSON "
          f"{json_q[1] * 1000:.1f} ms (IQR {json_q[0] * 1000:.1f}-"
          f"{json_q[2] * 1000:.1f}), frame {frame_q[1] * 1000:.2f} ms (IQR "
          f"{frame_q[0] * 1000:.2f}-{frame_q[2] * 1000:.2f}); median "
          f"per-pair speedup {results['wire_speedup_median']:.1f}x, "
          f"bit-identical={results['wire_bit_identical']}")

    failures = []
    if results["evaluations"] != 1:
        failures.append(
            f"coalescing gate: {results['evaluations']} evaluations for "
            f"{results['n_concurrent']} identical requests (want exactly 1)"
        )
    if not results["query_grid_points"] >= (1_000 if args.quick else 10_000):
        failures.append("query grid too small for the gate")
    if results["cached_query_s_p50"] >= CACHED_QUERY_CEILING_S:
        failures.append(
            f"latency gate: cached query took "
            f"{results['cached_query_s_p50'] * 1000:.2f} ms "
            f"(ceiling {CACHED_QUERY_CEILING_S * 1000:.0f} ms)"
        )
    if not results["queries_overlapped_cold_sweep"]:
        failures.append("cold sweep finished before the cached queries ran")
    if results["cached_sweep_s"] >= results["cold_sweep_s"]:
        failures.append("cached sweep not faster than the cold evaluation")
    if not results["wire_bit_identical"]:
        failures.append("wire gate: frame and JSON /result arrays differ")
    if results["wire_speedup_median"] < WIRE_SPEEDUP_FLOOR:
        failures.append(
            f"wire gate: frame /result only "
            f"{results['wire_speedup_median']:.1f}x faster than JSON "
            f"(floor {WIRE_SPEEDUP_FLOOR:.0f}x)"
        )
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all service gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
