#!/usr/bin/env python
"""Load probe of the service ops layer: quota fairness under a flood.

One misbehaving tenant fires hundreds of requests from a pool of
``FLOOD_THREADS`` concurrent clients — cold sweeps that saturate the
global cold-evaluation cap and its bounded queue — while a well-behaved
tenant keeps issuing cached pareto queries against the same server (the
clients run on threads beside the server's event loop).  Three gates
guard the multi-tenant acceptance bar:

1. **Isolation**: the well-behaved tenant's cached-query p99 stays
   under the ceiling *while the flood is in flight* — a hostile
   tenant saturating the evaluation slots must not move a cached
   reader's latency.
2. **Back-pressure**: the flood actually hits the admission layer —
   at least one structured 429 ``overloaded`` (cold queue full) and at
   least one 429 ``rate-limited`` (token bucket dry) are observed, and
   every rejection carries a ``retry_after_s`` hint.
3. **No collateral damage**: every one of the well-behaved tenant's
   requests succeeds (the flood's 429s are the *flooder's* problem).

Results are written to ``BENCH_service_ops.json`` (latency quantiles,
rejection counts, admission counters) and uploaded as a CI artifact so
the isolation trajectory stays machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_service_ops.py          # full gate
    PYTHONPATH=src python benchmarks/bench_service_ops.py --quick  # CI smoke

Exits non-zero when a gate is missed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.dse import SweepGrid, sweep_grid
from repro.service import (
    JsonLogger,
    OpsLayer,
    ServiceError,
    SweepService,
    SyncServiceClient,
)
from repro.service.http import start_http_server

#: acceptance ceilings for the well-behaved tenant's cached queries,
#: measured while the flood is in flight
CACHED_P50_CEILING_S = 0.050
CACHED_P99_CEILING_S = 0.250

#: how long each cold evaluation is pinned in the executor, so the
#: flood reliably saturates the single cold slot for the whole probe
COLD_FLOOR_S = 0.25

#: concurrent flood clients (one blocking connection each)
FLOOD_THREADS = 32

TENANTS = {
    "tenants": [
        # the flooder has a real (generous) rate limit so the probe
        # exercises both 429 shapes: rate-limited and overloaded
        {"name": "hog", "key": "ak-hog", "rate_per_s": 200.0, "burst": 40},
        {"name": "steady", "key": "ak-steady"},
    ],
    "limits": {"max_cold_sweeps": 1, "cold_queue_depth": 2},
}

QUERY_GRID = SweepGrid(
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.0, 1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)


def cold_grids(n: int):
    """``n`` distinct small grids (distinct fingerprints, all cold)."""
    return [
        SweepGrid(apps=("nerf",), scale_factors=(8,),
                  clocks_ghz=(0.5 + 0.001 * i,))
        for i in range(n)
    ]


def quantile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def flood_one(port: int, grid) -> tuple:
    """One hog request: its outcome and whether a 429 lacked a retry hint."""
    with SyncServiceClient(port=port, api_key="ak-hog") as client:
        try:
            client.sweep_summary(grid.to_dict())
        except ServiceError as error:
            if error.code in ("overloaded", "rate-limited"):
                return (error.code.replace("-", "_"),
                        not error.details.get("retry_after_s"))
            return "other", False
    return "completed", False


def probe(port: int, quick: bool) -> dict:
    """Flood the server on ``port`` while timing the steady tenant."""
    n_flood = 120 if quick else 400
    n_steady = 40 if quick else 100
    with SyncServiceClient(port=port, api_key="ak-steady") as steady, \
            ThreadPoolExecutor(FLOOD_THREADS) as pool:
        # warm the steady tenant's query grid before the flood starts
        steady.sweep_summary(QUERY_GRID.to_dict())

        flood = [pool.submit(flood_one, port, grid)
                 for grid in cold_grids(n_flood)]
        time.sleep(0.05)  # the flood owns the cold slot + queue

        latencies = []
        for _ in range(n_steady):
            start = time.perf_counter()
            front = steady.pareto_front(QUERY_GRID.to_dict())
            latencies.append(time.perf_counter() - start)
            assert front, "cached pareto answered nothing"
        flood_live = sum(1 for future in flood if not future.done())
        settled = [future.result() for future in flood]

        stats = steady.stats()
    outcomes = {"completed": 0, "overloaded": 0,
                "rate_limited": 0, "other": 0}
    for outcome, _ in settled:
        outcomes[outcome] += 1
    return {
        "n_flood_requests": n_flood,
        "n_steady_queries": n_steady,
        "query_grid_points": QUERY_GRID.size,
        "steady_query_s_p50": quantile(latencies, 0.50),
        "steady_query_s_p99": quantile(latencies, 0.99),
        "steady_query_s_max": max(latencies),
        "flood_outcomes": outcomes,
        "flood_live_during_queries": flood_live,
        "missing_retry_hints": sum(missing for _, missing in settled),
        "admission": stats["ops"]["admission"],
        "http_metrics": stats["ops"]["http_metrics"],
    }


async def serve_and_probe(quick: bool, tenants_path: str) -> dict:
    """Run :func:`probe` on a worker thread against a live server."""

    def slow_cold(grid, engine="vectorized", ngpc=None, on_block=None):
        result = sweep_grid(grid, engine="vectorized", ngpc=ngpc,
                            use_cache=False)
        time.sleep(COLD_FLOOR_S)
        return result

    service = SweepService(engine="vectorized", sweep_fn=slow_cold)
    # errors only: ~n_flood access-log lines would drown the report
    ops = OpsLayer(tenants_path=tenants_path,
                   logger=JsonLogger(level="error"))
    server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
    try:
        return await asyncio.to_thread(probe, server.port, quick)
    finally:
        await server.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", default="BENCH_service_ops.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tenants_path = os.path.join(tmp, "tenants.json")
        with open(tenants_path, "w") as handle:
            json.dump(TENANTS, handle)
        results = asyncio.run(serve_and_probe(args.quick, tenants_path))
    results["quick"] = args.quick

    outcomes = results["flood_outcomes"]
    print(f"flood: {results['n_flood_requests']} cold sweeps from "
          f"{FLOOD_THREADS} concurrent clients -> "
          f"{outcomes['completed']} completed, "
          f"{outcomes['overloaded']} overloaded, "
          f"{outcomes['rate_limited']} rate-limited, "
          f"{outcomes['other']} other")
    print(f"steady tenant: {results['n_steady_queries']} cached queries on "
          f"{results['query_grid_points']:,} points while "
          f"{results['flood_live_during_queries']} flood requests in flight")
    print(f"cached query under flood: "
          f"{results['steady_query_s_p50'] * 1000:.2f} ms p50, "
          f"{results['steady_query_s_p99'] * 1000:.2f} ms p99, "
          f"{results['steady_query_s_max'] * 1000:.2f} ms max")

    failures = []
    if results["steady_query_s_p50"] >= CACHED_P50_CEILING_S:
        failures.append(
            f"isolation gate: steady p50 "
            f"{results['steady_query_s_p50'] * 1000:.2f} ms "
            f"(ceiling {CACHED_P50_CEILING_S * 1000:.0f} ms)"
        )
    if results["steady_query_s_p99"] >= CACHED_P99_CEILING_S:
        failures.append(
            f"isolation gate: steady p99 "
            f"{results['steady_query_s_p99'] * 1000:.2f} ms "
            f"(ceiling {CACHED_P99_CEILING_S * 1000:.0f} ms)"
        )
    if not results["flood_live_during_queries"]:
        failures.append("flood drained before the steady queries ran "
                        "(the probe measured an idle server)")
    if outcomes["overloaded"] < 1:
        failures.append("back-pressure gate: no 429 'overloaded' observed")
    if outcomes["rate_limited"] < 1:
        failures.append("back-pressure gate: no 429 'rate-limited' observed")
    if results["missing_retry_hints"]:
        failures.append(
            f"{results['missing_retry_hints']} rejections lacked a "
            f"retry_after_s hint"
        )
    if outcomes["other"]:
        failures.append(f"{outcomes['other']} flood requests failed with "
                        f"unexpected errors")
    results["failures"] = failures

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all service ops gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
