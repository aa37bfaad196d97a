"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``emulate``      run the NGPC emulator for one (app, scheme, scale)
- ``sweep``        the full Fig. 12 sweep for one encoding scheme
- ``dse``          batched design-space exploration: grid, Pareto front
                   and FPS constraint queries in one vectorized call
- ``serve``        run the asyncio DSE query service (HTTP JSON API
                   with request coalescing and an LRU sweep cache);
                   ``--engine cluster`` distributes sweeps over shard
                   workers (``--workers`` spawns local ones);
                   ``--store DIR`` adds the persistent disk tier so
                   restarts and replicas share evaluated sweeps
- ``worker``       join a shard cluster: lease sweep blocks from a
                   coordinator and stream evaluated arrays back
- ``query``        client for a running ``serve`` instance
- ``experiments``  regenerate any registered table/figure experiment
- ``train``        train an application on its synthetic scene
- ``area``         print the NGPC area/power bill (Fig. 15)
- ``bandwidth``    print the Table III IO bandwidth report

Every design-space command goes through the :mod:`repro.api` Session
facade — ``emulate`` and ``dse`` on a local session, ``query`` on a
remote one — so the CLI never chooses an execution path by hand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_comparison, format_table, get_experiment
from repro.analysis.experiments import EXPERIMENTS
from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.axes import AXES, EXTENSION_AXES, suggest_axis
from repro.calibration import paper
from repro.core import NGPCConfig, ngpc_area_power
from repro.core.config import SCALE_FACTORS
from repro.core.emulator import speedup_table
from repro.core.ngpc import bandwidth_model
from repro.gpu.baseline import FHD_PIXELS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", choices=APP_NAMES, default="nerf")
    parser.add_argument("--scheme", choices=ENCODING_SCHEMES, default="multi_res_hashgrid")


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {text})")
    return value


def cmd_emulate(args: argparse.Namespace) -> int:
    from repro.api import Session

    result = Session().point(
        app=args.app, scheme=args.scheme,
        scale_factor=args.scale, n_pixels=args.pixels,
    )
    print(f"app={result.app} scheme={result.scheme} scale={result.scale_factor} "
          f"pixels={result.n_pixels:,}")
    print(f"  baseline:    {result.baseline_ms:10.3f} ms")
    print(f"  accelerated: {result.accelerated_ms:10.3f} ms  "
          f"({result.fps:,.1f} FPS)")
    print(f"  speedup:     {result.speedup:10.2f}x  "
          f"(Amdahl bound {result.amdahl_bound:.2f}x)")
    print(f"  engines: encoding {result.encoding_engine_ms:.4f} ms, "
          f"mlp {result.mlp_engine_ms:.4f} ms, dma {result.dma_ms:.4f} ms, "
          f"fused rest {result.fused_rest_ms:.4f} ms")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    table = speedup_table(args.scheme, args.pixels)
    rows = []
    for app in APP_NAMES:
        rows.append([app] + [f"{table[s][app]:.2f}x" for s in SCALE_FACTORS])
    rows.append(["average"] + [f"{table[s]['average']:.2f}x" for s in SCALE_FACTORS])
    rows.append(
        ["paper avg"]
        + [f"{paper.FIG12_AVERAGE_SPEEDUPS[args.scheme][s]}x" for s in SCALE_FACTORS]
    )
    print(
        format_table(
            ["app"] + [f"NGPC-{s}" for s in SCALE_FACTORS],
            rows,
            title=f"End-to-end speedup, {args.scheme}",
        )
    )
    return 0


#: ``--sweep`` axis names -> (SweepGrid field, value parser), derived
#: from the axis registry: every spec that declares a ``cli`` key is
#: sweepable from the command line, so registering an axis with
#: ``cli=``/``cli_cast=`` surfaces it here with no CLI edit
_SWEEP_AXES = {
    spec.cli: (spec.name, spec.cli_cast)
    for spec in AXES
    if spec.cli is not None
}


def _unknown_sweep_axis(name: str, part: str) -> argparse.ArgumentTypeError:
    """The structured unknown-axis message (closest registered spelling)."""
    suggestion = suggest_axis(name)
    hint = ""
    if suggestion:
        spec = next(
            (s for s in AXES if suggestion in
             (s.name, s.builder, s.query_name, s.cli)), None
        )
        if spec is not None and spec.cli:
            hint = f"; did you mean {spec.cli!r}?"
    return argparse.ArgumentTypeError(
        f"unknown sweep axis {name!r} in {part!r}{hint} "
        f"(registered: {', '.join(sorted(_SWEEP_AXES))})"
    )


def _sweep_spec(text: str) -> dict:
    """Parse one ``--sweep`` argument: ``axis=v1:v2[,axis=...]``."""
    parsed = {}
    for part in text.split(","):
        name, sep, values = part.partition("=")
        name = name.strip()
        if not sep or not values:
            raise argparse.ArgumentTypeError(
                f"bad sweep axis {part!r}; expected axis=v1:v2 with axis "
                f"in {sorted(_SWEEP_AXES)}"
            )
        if name not in _SWEEP_AXES:
            raise _unknown_sweep_axis(name, part)
        field, convert = _SWEEP_AXES[name]
        if field in parsed:
            raise argparse.ArgumentTypeError(f"sweep axis {name!r} given twice")
        try:
            parsed[field] = tuple(convert(v) for v in values.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad value in sweep axis {part!r}"
            )
    return parsed


def _merge_sweep_axes(args: argparse.Namespace, prog: str) -> dict:
    """Merge repeated ``--sweep`` specs with the scale/pixels defaults.

    Shared by ``dse`` and ``query``: duplicate axes across ``--sweep``
    arguments and a ``--pixels`` that conflicts with ``--sweep
    pixels=...`` both fail loudly.
    """
    axes = {}
    for spec in args.sweep or []:
        duplicates = axes.keys() & spec.keys()
        if duplicates:
            raise SystemExit(
                f"{prog}: error: sweep axis given twice across --sweep "
                f"arguments: {sorted(duplicates)}"
            )
        axes.update(spec)
    if "pixel_counts" in axes and args.pixels != FHD_PIXELS:
        raise SystemExit(
            f"{prog}: error: --pixels conflicts with --sweep pixels=...; "
            "pass the resolutions on one of them"
        )
    axes.setdefault("scale_factors", SCALE_FACTORS)
    axes.setdefault("pixel_counts", (args.pixels,))
    return axes


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.api import InfeasibleQueryError, Session, SweepGrid

    axes = _merge_sweep_axes(args, "repro dse")
    session = Session.local(engine=args.engine, store=args.store)
    grid_spec = SweepGrid(apps=APP_NAMES, schemes=(args.scheme,), **axes)
    if args.follow:
        import time

        # lazy sweep + watch(): exact partial Pareto fronts stream in as
        # blocks evaluate; the loop's last front is the final one, and
        # the handle holds the dense result for the tables below
        sweep = session.sweep(grid_spec, lazy=True)
        n_pixels = sweep.grid.pixel_counts[0]
        started = time.perf_counter()
        for n, front in enumerate(
            sweep.watch(scheme=args.scheme, n_pixels=n_pixels), 1
        ):
            best = (min(p.area_overhead_pct for p in front)
                    if front else float("nan"))
            print(f"  [{time.perf_counter() - started:7.2f}s] "
                  f"front #{n}: {len(front)} points "
                  f"(cheapest +{best:.2f}% area)")
        print()
    else:
        sweep = session.sweep(grid_spec)
    grid = sweep.grid  # resolved + normalized axes
    n_pixels = grid.pixel_counts[0]
    # anything beyond the classic scale ladder is "architectural": the
    # registry knows every CLI-sweepable axis, so a newly registered
    # axis lands in the N-dimensional display with no CLI edit
    architectural = any(
        len(getattr(grid, spec.name) or ()) > 1
        for spec in AXES
        if spec.cli is not None and spec.name != "scale_factors"
    )
    # encoding axes are slice selectors in queries: a grid sweeping
    # several encoding variants gets one front per variant
    enc_specs = [
        spec for spec in EXTENSION_AXES
        if len(getattr(grid, spec.name) or ()) > 1
    ]
    if enc_specs:
        import itertools

        enc_combos = [
            dict(zip((s.query_name for s in enc_specs), values))
            for values in itertools.product(
                *(getattr(grid, s.name) for s in enc_specs)
            )
        ]
    else:
        enc_combos = [{}]
    front_points = sweep.pareto(scheme=args.scheme, n_pixels=n_pixels,
                                **enc_combos[0])
    result = sweep.result
    title = (f"Design space, {args.scheme} @ {n_pixels:,} px "
             f"({result.grid.size} points, engine={result.engine})")
    if not architectural:
        front = {p.scale_factor for p in front_points}
        rows = []
        for k, scale in enumerate(grid.scale_factors):
            row = [f"NGPC-{scale}",
                   f"{result.area_overhead_pct[k, 0, 0, 0]:.2f}%",
                   f"{result.power_overhead_pct[k, 0, 0, 0]:.2f}%"]
            row += [
                f"{sweep.point(app=app, scale_factor=scale, n_pixels=n_pixels).speedup:.2f}x"
                for app in APP_NAMES
            ]
            row.append("*" if scale in front else "")
            rows.append(row)
        print(
            format_table(
                ["config", "area", "power"] + list(APP_NAMES) + ["pareto"],
                rows,
                title=title,
            )
        )
    else:
        # N-dimensional sweep: show the Pareto front over all config axes
        # (candidates = the config combinations of one resolution slice,
        # one front per encoding variant when encoding axes are swept)
        n_configs = grid.size // (len(grid.apps) * len(grid.schemes)
                                  * len(grid.pixel_counts)
                                  * len(enc_combos))
        for n, combo in enumerate(enc_combos):
            points = front_points if n == 0 else sweep.pareto(
                scheme=args.scheme, n_pixels=n_pixels, **combo
            )
            suffix = ""
            if combo:
                suffix = (" ["
                          + ", ".join(f"{k}={v}" for k, v in combo.items())
                          + "]")
            rows = [
                [p.describe(), f"{p.area_overhead_pct:.2f}%",
                 f"{p.power_overhead_pct:.2f}%", f"{p.average_speedup:.2f}x"]
                for p in points
            ]
            print(
                format_table(
                    ["config", "area", "power", "avg speedup"],
                    rows,
                    title=title + suffix + f" — Pareto front ({len(rows)} of "
                                           f"{n_configs} configs @ "
                                           f"{n_pixels:,} px)",
                )
            )
    if args.fps is not None:
        # answer from the grid already evaluated above — no re-sweep
        print(f"\ncheapest configuration meeting {args.fps:g} FPS:")
        for combo in enc_combos:
            if combo:
                print("  [" + ", ".join(f"{k}={v}" for k, v in combo.items())
                      + "]")
            for app in APP_NAMES:
                try:
                    hit = sweep.cheapest(app=app, fps=args.fps,
                                         n_pixels=n_pixels, **combo)
                except InfeasibleQueryError:
                    print(f"  {app:5s}: not achievable on the evaluated grid")
                else:
                    print(f"  {app:5s}: {hit.describe()} "
                          f"(+{hit.area_overhead_pct:.2f}% area, "
                          f"{hit.speedups[app]:.2f}x speedup)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import OpsLayer, ShardCoordinator, SweepService, run_server

    if args.workers is not None and args.engine != "cluster":
        raise SystemExit(
            "repro serve: error: --workers spawns shard workers and applies "
            "to --engine cluster only"
        )
    ops = OpsLayer(
        tenants_path=args.tenants,
        metrics_enabled=args.metrics,
        max_cold_sweeps=args.max_cold_sweeps,
        cold_queue_depth=args.cold_queue_depth,
    )
    if args.engine == "cluster":
        # distributed evaluation: the same port serves the JSON API to
        # clients and the /cluster/* lease protocol to workers (local
        # spawned ones and any remote `repro worker` that joins)
        coordinator = ShardCoordinator(lease_timeout_s=args.lease_timeout)
        service = SweepService(
            engine="cluster",
            sweep_fn=coordinator.sweep_fn,
            max_cached_sweeps=args.cache_size,
            store=args.store,
        )
        return run_server(
            service, args.host, args.port,
            cluster=coordinator, spawn_workers=args.workers or 0,
            max_body_bytes=args.max_body_mb * 1024 * 1024,
            ops=ops,
        )
    service = SweepService(
        engine=args.engine,
        max_cached_sweeps=args.cache_size,
        store=args.store,
    )
    return run_server(service, args.host, args.port,
                      max_body_bytes=args.max_body_mb * 1024 * 1024,
                      ops=ops)


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    return run_worker(
        host=args.host,
        port=args.port,
        block_delay_s=args.block_delay,
        max_idle_s=args.max_idle,
    )


def _query_grid(args: argparse.Namespace) -> dict:
    """The grid JSON for a ``query`` op (same --sweep syntax as dse)."""
    axes = _merge_sweep_axes(args, "repro query")
    grid = {"apps": list(APP_NAMES), "schemes": [args.scheme]}
    grid.update({name: list(values) for name, values in axes.items()})
    return grid


def cmd_query(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.api import (
        BackendUnavailableError,
        ReproError,
        Session,
        SweepGrid,
        as_structured_error,
    )

    if args.op == "cheapest" and args.fps is None:
        raise SystemExit("repro query: error: cheapest requires --fps")
    session = Session.remote(host=args.host, port=args.port,
                             api_key=args.api_key)
    try:
        if args.op == "stats":
            output = session.stats()
        elif args.op == "health":
            output = session.health()
        else:
            sweep = session.sweep(SweepGrid.from_dict(_query_grid(args)))
            if args.op == "sweep":
                output = {
                    "grid": sweep.grid.to_dict(),
                    "shape": list(sweep.grid.shape),
                    "size": sweep.size,
                    "engine": sweep.result.engine,
                    "backend": sweep.backend,
                }
            elif args.op == "pareto":
                output = [
                    p.to_dict()
                    for p in sweep.pareto(scheme=args.scheme, app=args.app)
                ]
            elif args.op == "cheapest":
                # infeasible raises InfeasibleQueryError -> the ReproError
                # handler below prints the structured payload and exits 1
                output = sweep.cheapest(app=args.app, fps=args.fps).to_dict()
            else:  # point
                result = sweep.point(
                    app=args.app,
                    scale_factor=args.scale,
                    clock_ghz=args.clock,
                    grid_sram_kb=args.sram,
                    n_engines=args.engines,
                    n_batches=args.batches,
                )
                output = dataclasses.asdict(result)
                output["speedup"] = result.speedup
                output["fps"] = result.fps
    except BackendUnavailableError as exc:
        print(
            f"repro query: {exc}; start one with 'python -m repro serve'",
            file=sys.stderr,
        )
        return 1
    except ReproError as exc:
        # the same structured shape the HTTP 400s carry
        error = as_structured_error(exc)
        print(json.dumps(error.to_payload()["error"], indent=2), file=sys.stderr)
        return 1
    finally:
        session.close()
    print(json.dumps(output, indent=2))
    return 0


def cmd_admin(args: argparse.Namespace) -> int:
    import json

    from repro.api import BackendUnavailableError, RemoteBackend, ServiceError

    backend = RemoteBackend(host=args.host, port=args.port,
                            api_key=args.api_key)
    try:
        body = backend.admin(args.op)
    except ServiceError as exc:
        print(json.dumps(exc.to_payload()["error"], indent=2),
              file=sys.stderr)
        return 1
    except BackendUnavailableError as exc:
        print(f"repro admin: {exc}", file=sys.stderr)
        return 1
    finally:
        backend.close()
    print(json.dumps(body, indent=2))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    ids = args.ids or sorted(EXPERIMENTS)
    for exp_id in ids:
        exp = get_experiment(exp_id)
        print(f"\n== {exp_id}: {exp.description} ==")
        for row in exp.run():
            print(" ", format_comparison(row.label, row.measured, row.reported))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.apps import GIAApp, NSDFApp, NVRApp, NeRFApp

    factories = {"gia": GIAApp, "nsdf": NSDFApp, "nerf": NeRFApp, "nvr": NVRApp}
    app = factories[args.app](scheme=args.scheme, seed=args.seed)
    print(f"training {args.app} ({args.scheme}), "
          f"{app.num_parameters:,} parameters, {args.steps} steps")
    for step in range(args.steps):
        result = app.train_step(args.batch_size)
        if (step + 1) % max(args.steps // 10, 1) == 0:
            print(f"  step {result.step:5d}  loss {result.loss:.6f}")
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    rows = []
    for scale in SCALE_FACTORS:
        r = ngpc_area_power(NGPCConfig(scale_factor=scale))
        rows.append(
            [f"NGPC-{scale}", f"{r.area_mm2_7nm:.1f}", f"{r.area_overhead_pct:.2f}%",
             f"{r.power_w_7nm:.1f}", f"{r.power_overhead_pct:.2f}%"]
        )
    print(
        format_table(
            ["config", "area mm2", "vs 3090 die", "power W", "vs 3090 TDP"],
            rows,
            title="NGPC area & power at 7 nm (Fig. 15)",
        )
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verification import is_healthy, verify_all

    findings = verify_all()
    for f in findings:
        status = "ok " if f.passed else "FAIL"
        print(f"  [{status}] {f.check}: {f.detail}")
    healthy = is_healthy(findings)
    print("all checks passed" if healthy else "SOME CHECKS FAILED")
    return 0 if healthy else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_markdown

    text = build_markdown()
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    import json

    from repro.apps.params import get_config

    config = get_config(args.app, args.scheme)
    print(json.dumps(config.to_dict(), indent=2))
    return 0


def cmd_bandwidth(args: argparse.Namespace) -> int:
    rows = []
    for app in APP_NAMES:
        r = bandwidth_model(app)
        rows.append(
            [app, f"{r.input_gbps:.2f}", f"{r.output_gbps:.2f}",
             f"{r.total_gbps:.2f}", f"{r.access_time_ms:.3f}",
             f"{r.fraction_of_gpu_bandwidth:.1%}"]
        )
    print(
        format_table(
            ["app", "in GB/s", "out GB/s", "total GB/s", "access ms", "of GPU BW"],
            rows,
            title="NGPC IO bandwidth @ 4K 60 FPS (Table III)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardware Acceleration of Neural Graphics — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emulate", help="run the NGPC emulator once")
    _add_common(p)
    p.add_argument("--scale", type=int, choices=SCALE_FACTORS, default=8)
    p.add_argument("--pixels", type=int, default=FHD_PIXELS)
    p.set_defaults(func=cmd_emulate)

    p = sub.add_parser("sweep", help="Fig. 12 sweep for one scheme")
    p.add_argument("--scheme", choices=ENCODING_SCHEMES, default="multi_res_hashgrid")
    p.add_argument("--pixels", type=int, default=FHD_PIXELS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "dse",
        help="batched design-space exploration",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "sweep axes: scale, pixels, clock (GHz), sram (KB/engine),\n"
            "engines (per NFP), batches (pipeline), gridtype (hash|tiled),\n"
            "loghash (log2 hash-table entries), plscale (per-level growth\n"
            "factor); values are ':'-separated.\n"
            "\n"
            "examples:\n"
            "  repro dse --sweep clock=0.8:1.2:1.695,sram=512:1024\n"
            "  repro dse --sweep engines=8:16:32 --sweep batches=4:8:16:32\n"
            "  repro dse --sweep scale=8:16:32:64,clock=1.2:1.695 --fps 60\n"
            "  repro dse --sweep sram=256:512:1024:2048 --follow\n"
            "  repro dse --sweep gridtype=hash:tiled,loghash=14:19:24\n"
        ),
    )
    p.add_argument("--scheme", choices=ENCODING_SCHEMES, default="multi_res_hashgrid")
    p.add_argument("--pixels", type=int, default=FHD_PIXELS)
    p.add_argument("--fps", type=_positive_float, default=None,
                   help="also answer: cheapest config meeting this FPS target")
    p.add_argument("--engine", choices=("vectorized", "scalar"),
                   default="vectorized")
    p.add_argument("--sweep", action="append", type=_sweep_spec, default=None,
                   metavar="AXIS=V1:V2[,AXIS=...]",
                   help="sweep architecture axes (repeatable); see examples below")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persistent result store directory: sweeps load "
                        "memory-mapped when previously evaluated (by any "
                        "process sharing DIR) and cold grids reuse every "
                        "persisted block")
    p.add_argument("--follow", action="store_true",
                   help="stream exact partial Pareto fronts while the grid "
                        "evaluates block by block")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser(
        "serve",
        help="serve sweeps over an async HTTP JSON API",
        description=(
            "Run the asyncio DSE query service: coalesces concurrent "
            "identical sweep requests into one evaluation, caches "
            "SweepResults in an LRU keyed on the canonical "
            "grid+calibration fingerprint, and answers pareto/cheapest/"
            "point queries while cold sweeps run off the event loop."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--engine",
                   choices=("vectorized", "scalar", "cluster"),
                   default="vectorized",
                   help="local engines, or 'cluster' to distribute block "
                        "shards over workers (serves /cluster/* on the "
                        "same port for `repro worker` to join)")
    p.add_argument("--cache-size", type=int, default=32,
                   help="max cached SweepResults (LRU)")
    p.add_argument("--workers", type=int, default=None,
                   help="with --engine cluster: local shard workers to "
                        "spawn (remote `repro worker` hosts may join too)")
    p.add_argument("--lease-timeout", type=_positive_float, default=10.0,
                   help="cluster block-lease timeout in seconds (a dead "
                        "worker's blocks are re-leased after this long)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="persistent result store directory under the RAM "
                        "LRU: a restarted service serves persisted sweeps "
                        "warm, and replicas sharing DIR evaluate each "
                        "sweep once")
    p.add_argument("--max-body-mb", type=int, default=64,
                   help="largest accepted request body in MiB (bigger "
                        "bodies get a structured 413 before they are read)")
    p.add_argument("--tenants", metavar="FILE", default=None,
                   help="tenant config JSON (API keys + quota policy); "
                        "hot-reloaded on mtime change or SIGHUP. Without "
                        "it every request runs as the anonymous admin "
                        "tenant (open dev mode)")
    p.add_argument("--metrics", action="store_true", default=True,
                   help="expose Prometheus text metrics at GET /metrics "
                        "(default: on)")
    p.add_argument("--no-metrics", dest="metrics", action="store_false",
                   help="disable the /metrics endpoint")
    p.add_argument("--max-cold-sweeps", type=int, default=None,
                   help="global cap on concurrently evaluating cold "
                        "sweeps; excess requests queue up to "
                        "--cold-queue-depth, then get 429 + Retry-After "
                        "(default: unlimited)")
    p.add_argument("--cold-queue-depth", type=int, default=16,
                   help="bounded queue for cold sweeps waiting on "
                        "--max-cold-sweeps slots")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="join a shard cluster as a sweep-block worker",
        description=(
            "Connect to a coordinator-serving instance (`repro serve "
            "--engine cluster`, possibly on another machine), lease "
            "contiguous vectorized sweep blocks, evaluate each under the "
            "calibration its lease names, and stream the arrays back "
            "until stopped."
        ),
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="coordinator host")
    p.add_argument("--port", type=int, default=8787,
                   help="coordinator port")
    p.add_argument("--block-delay", type=float, default=0.0,
                   help="fault-injection: sleep this long before each "
                        "block (testing/chaos drills only)")
    p.add_argument("--max-idle", type=float, default=None,
                   help="exit after this many seconds without work")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "query",
        help="query a running 'repro serve' instance",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro query sweep --sweep clock=0.8:1.2:1.695\n"
            "  repro query pareto --sweep sram=256:512:1024\n"
            "  repro query cheapest --app nerf --fps 60\n"
            "  repro query point --app nerf --scale 8\n"
            "  repro query stats\n"
        ),
    )
    p.add_argument("op", choices=("sweep", "pareto", "cheapest", "point",
                                  "stats", "health"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--scheme", choices=ENCODING_SCHEMES, default="multi_res_hashgrid")
    p.add_argument("--pixels", type=int, default=FHD_PIXELS)
    p.add_argument("--sweep", action="append", type=_sweep_spec, default=None,
                   metavar="AXIS=V1:V2[,AXIS=...]",
                   help="sweep axes (same syntax as 'repro dse --sweep')")
    p.add_argument("--app", choices=APP_NAMES, default=None,
                   help="app selector (pareto benefit / cheapest / point)")
    p.add_argument("--fps", type=_positive_float, default=None,
                   help="FPS target for the cheapest op")
    p.add_argument("--scale", type=int, default=None,
                   help="scale-factor selector for the point op")
    p.add_argument("--clock", type=float, default=None,
                   help="clock (GHz) selector for the point op")
    p.add_argument("--sram", type=int, default=None,
                   help="grid-SRAM (KB) selector for the point op")
    p.add_argument("--engines", type=int, default=None,
                   help="engine-count selector for the point op")
    p.add_argument("--batches", type=int, default=None,
                   help="batch-count selector for the point op")
    p.add_argument("--api-key", default=None,
                   help="tenant API key (sent as a bearer token) for "
                        "servers running with --tenants")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "admin",
        help="operate a running 'repro serve' instance",
        description=(
            "Operator actions against a live service: 'drain' starts a "
            "rolling cluster restart (old-generation workers stop at "
            "their next lease poll; in-flight blocks finish or re-queue "
            "via lease expiry), 'ops' prints the ops section of /stats "
            "(admission, tenants, request metrics summary)."
        ),
    )
    p.add_argument("op", choices=("drain", "ops"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--api-key", default=None,
                   help="admin tenant API key (drain requires an admin "
                        "tenant when --tenants is active)")
    p.set_defaults(func=cmd_admin)

    p = sub.add_parser("experiments", help="regenerate registered experiments")
    p.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("train", help="train an application")
    _add_common(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("area", help="NGPC area/power (Fig. 15)")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("bandwidth", help="NGPC IO bandwidth (Table III)")
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("describe", help="print a Table I config as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("report", help="full paper-vs-measured markdown report")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run all model-consistency checks")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
