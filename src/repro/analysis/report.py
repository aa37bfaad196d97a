"""Markdown report builder for the full evaluation.

Programmatic generation of the paper-vs-measured record consumed by
``tools/generate_experiments_md.py`` and the ``python -m repro report``
command: experiment tables, the sensitivity summary and the design-space
view, as one self-contained markdown document.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.experiments import EXPERIMENTS, ExperimentRow, run_all
from repro.analysis.sensitivity import sensitivity_sweep
from repro.api import Session, SweepGrid, SweepResult


def rows_to_markdown(rows: List[ExperimentRow]) -> List[str]:
    """Render experiment rows as a markdown table."""
    lines = ["| quantity | ours | paper | delta |", "|---|---|---|---|"]
    for row in rows:
        ours = f"{row.measured:.4g}"
        if row.reported is None:
            lines.append(f"| {row.label} | {ours} | n/a | — |")
        else:
            err = row.relative_error
            delta = f"{err * 100:+.1f}%" if err is not None else "—"
            lines.append(f"| {row.label} | {ours} | {row.reported:.4g} | {delta} |")
    return lines


def experiments_section(results: Optional[Dict[str, List[ExperimentRow]]] = None) -> List[str]:
    """One subsection per registered experiment."""
    results = results or run_all()
    lines: List[str] = []
    for exp_id, rows in results.items():
        exp = EXPERIMENTS[exp_id]
        lines.append(f"\n## {exp_id} — {exp.description}\n")
        lines.extend(rows_to_markdown(rows))
    return lines


def sensitivity_section() -> List[str]:
    """Robustness of the Fig. 12 averages to the reconstructed constants."""
    lines = [
        "\n## Sensitivity of the Fig. 12 averages\n",
        "| perturbation | factor | worst shift |",
        "|---|---|---|",
    ]
    for result in sensitivity_sweep(factors=(0.8, 1.2)):
        lines.append(
            f"| {result.parameter} | x{result.factor} | "
            f"{result.max_relative_shift * 100:.1f}% |"
        )
    return lines


def design_space_section(result: Optional[SweepResult] = None) -> List[str]:
    """Cost/benefit of each scaling factor (Figs. 12 + 15 combined).

    Served by the batched DSE engine: one vectorized evaluation feeds
    the table, the Pareto column and the FPS constraint queries.  Pass
    ``result`` to render from an already-evaluated sweep instead — e.g.
    one fetched from a running query service and rebuilt with
    :meth:`~repro.core.dse.SweepResult.from_payload` — as long as it
    covers one scheme with singleton architecture axes (the default
    report grid's shape).
    """
    if result is None:
        result = Session().sweep(SweepGrid(schemes=("multi_res_hashgrid",))).result
    grid = result.grid
    if len(grid.schemes) != 1:
        raise ValueError("the design-space section renders one scheme")
    if any(
        len(axis) != 1
        for axis in (grid.clocks_ghz, grid.grid_sram_kb,
                     grid.n_engines, grid.n_batches)
    ):
        raise ValueError(
            "the design-space section needs singleton architecture axes"
        )
    scheme = grid.schemes[0]
    n_pixels = grid.pixel_counts[0]
    front = {p.scale_factor for p in result.pareto_front(scheme, n_pixels)}
    lines = [
        "\n## Design space (hashgrid)\n",
        "| config | area overhead | power overhead | avg speedup | speedup/area% | Pareto |",
        "|---|---|---|---|---|---|",
    ]
    for k, scale in enumerate(grid.scale_factors):
        speedups = [
            result.point(app, scheme, scale, n_pixels).speedup
            for app in grid.apps
        ]
        avg = sum(speedups) / len(speedups)
        area = float(result.area_overhead_pct[k, 0, 0, 0])
        lines.append(
            f"| NGPC-{scale} | {area:.2f}% | "
            f"{result.power_overhead_pct[k, 0, 0, 0]:.2f}% | {avg:.2f}x | "
            f"{avg / area:.2f} | "
            f"{'yes' if scale in front else 'no'} |"
        )
    lines.extend(
        [
            "\n### Cheapest configuration meeting 60 FPS at FHD\n",
            "| app | config | area overhead | speedup |",
            "|---|---|---|---|",
        ]
    )
    # answered from the same evaluation — no re-sweep
    for app in grid.apps:
        scale = result.cheapest_meeting_fps(app, 60.0, n_pixels)
        if scale is None:
            lines.append(f"| {app} | not achievable | — | — |")
        else:
            k = grid.scale_factors.index(scale)
            point = result.point(app, scheme, scale, n_pixels)
            lines.append(
                f"| {app} | NGPC-{scale} | "
                f"{result.area_overhead_pct[k, 0, 0, 0]:.2f}% | "
                f"{point.speedup:.2f}x |"
            )
    return lines


def architecture_sweep_section() -> List[str]:
    """Architecture-axis sweep: clock x grid-SRAM trade-off at NGPC-8.

    One vectorized N-dimensional evaluation feeds the whole table; the
    Pareto column marks the non-dominated (area, average speedup)
    configurations across every (clock, SRAM) combination.
    """
    scheme = "multi_res_hashgrid"
    sweep = Session().sweep(SweepGrid(
        schemes=(scheme,),
        scale_factors=(8,),
        clocks_ghz=(0.8, 1.2, 1.695),
        grid_sram_kb=(256, 512, 1024),
    ))
    result = sweep.result
    grid = result.grid
    front = {p.config_axes for p in sweep.pareto(scheme=scheme)}
    lines = [
        "\n## Architecture-axis sweep (NGPC-8, hashgrid)\n",
        "The batched engine sweeps the NFP architecture parameters — clock,",
        "per-engine grid SRAM, engine count, pipeline batches — through the",
        "same vectorized fast paths as the scale/resolution axes.  One",
        f"evaluation covers the full {grid.size}-point (app x clock x SRAM)",
        "grid behind the rows below; speedups are four-app averages.\n",
        "| clock (GHz) | grid SRAM (KB) | area overhead | power overhead | avg speedup | Pareto |",
        "|---|---|---|---|---|---|",
    ]
    speedup = result.speedup
    for c, clock in enumerate(grid.clocks_ghz):
        for g, sram in enumerate(grid.grid_sram_kb):
            avg = float(speedup[:, 0, 0, 0, c, g, 0, 0].mean())
            axes = (("clock_ghz", clock), ("grid_sram_kb", sram))
            lines.append(
                f"| {clock:g} | {sram} | "
                f"{result.area_overhead_pct[0, c, g, 0]:.2f}% | "
                f"{result.power_overhead_pct[0, c, g, 0]:.2f}% | "
                f"{avg:.2f}x | {'yes' if axes in front else 'no'} |"
            )
    return lines


def serving_section() -> List[str]:
    """How to serve sweeps: endpoints, clients, cache semantics.

    Static documentation (no evaluation behind it) so the generated
    EXPERIMENTS.md carries the service's contract next to the numbers
    it serves.
    """
    return [
        "\n## Serving sweeps\n",
        "`python -m repro serve --port 8787` runs the asyncio DSE query",
        "service: an HTTP JSON API over the batched sweep engine.  Results",
        "are cached in an LRU keyed on the canonical grid + config +",
        "calibration fingerprint (`repro.core.dse.sweep_fingerprint`), so",
        "any spelling of the same design space — reordered or repeated",
        "axis values included — maps to one cache entry.  Concurrent",
        "identical requests coalesce into a single in-flight evaluation",
        "(single-flight futures), and evaluation runs block by block off",
        "the event loop on an executor thread, so cached queries answer in",
        "milliseconds while a cold 50k-point sweep is in progress",
        "(`benchmarks/bench_service.py` gates < 50 ms).\n",
        "| endpoint | body | answer |",
        "|---|---|---|",
        "| `GET /healthz` | — | liveness |",
        "| `GET /stats` | — | cache hits/misses, coalesced, evaluations |",
        "| `POST /sweep` | `{\"grid\": {...}}` | evaluation summary |",
        "| `POST /result` | `{\"grid\": {...}}` | full SweepResult payload |",
        "| `POST /records` | `{\"grid\", \"limit\"?}` | flat per-point records |",
        "| `POST /pareto` | `{\"grid\", \"scheme\"?, \"n_pixels\"?, \"app\"?}` | Pareto front |",
        "| `POST /cheapest` | `{\"grid\", \"app\", \"fps\", ...}` | cheapest config meeting FPS |",
        "| `POST /point` | `{\"grid\", \"app\"?, \"scale_factor\"?, ...}` | one emulation record |\n",
        "Example invocations:\n",
        "```",
        "python -m repro serve --port 8787",
        "python -m repro query pareto --sweep clock=0.8:1.2:1.695,sram=256:512:1024",
        "python -m repro query cheapest --app nerf --fps 60",
        "python -m repro query point --app nerf --scale 8",
        'curl -s localhost:8787/pareto -d \'{"grid": {"scale_factors": [8, 16, 32, 64]}}\'',
        "curl -s localhost:8787/stats",
        "```\n",
        "A scalar query against a swept axis without an explicit selector",
        "returns a structured 400 whose payload names the ambiguous axis",
        "(`error.code == \"ambiguous-axis\"`, `error.axis`,",
        "`error.values`).  The report itself can render from a served",
        "result: fetch `POST /result`, rebuild it with",
        "`SweepResult.from_payload`, and pass it to",
        "`design_space_section(result=...)`.\n",
        "Connections are keep-alive: clients (the `repro.api` remote",
        "backend, `repro query`) reuse one socket across requests, and",
        "`/stats` counts `http.connections` / `http.requests` /",
        "`http.reused`.  Payloads are versioned: every response envelope",
        "carries `schema_version`, clients advertise the version they",
        "speak in each request body, and an unsupported version is a",
        "structured 400 (`error.code == \"unsupported-schema\"`).",
    ]


def api_section() -> List[str]:
    """The ``repro.api`` Session quickstart and the backend matrix.

    Static documentation (no evaluation behind it) so the generated
    EXPERIMENTS.md carries the facade's contract — the one entry point
    every consumer (CLI, report, workloads, examples) goes through.
    """
    return [
        "\n## API — the `repro.api` Session facade\n",
        "One typed entry point answers every design-space question over",
        "any execution path.  A `Session` binds a backend; the returned",
        "`Sweep` handle is backed by the same dense `SweepResult` either",
        "way, so queries are bit-identical in-process and over HTTP",
        "(`tests/test_api_session.py` holds the parity to 1e-9, and",
        "`benchmarks/bench_api.py` gates the facade overhead < 5 %).\n",
        "```python",
        "from repro.api import Grid, Session",
        "",
        "session = Session()                        # local, engine='vectorized'",
        "sweep = session.sweep(",
        "    Grid().app('nerf').scale(8, 16, 32, 64).clock(0.8, 1.2, n=5)",
        ")",
        "front = sweep.pareto()                     # non-dominated configs",
        "hit = sweep.cheapest(app='nerf', fps=60)   # cheapest config @ 60 FPS",
        "r = sweep.point(app='nerf', scale_factor=8, clock_ghz=0.8)",
        "",
        "remote = Session.remote(port=8787)         # same calls, over HTTP",
        "```\n",
        "| backend | constructor | evaluation | transport |",
        "|---|---|---|---|",
        "| local | `Session()` / `Session.local(engine=...)` | "
        "`sweep_grid` (vectorized) + memoized scalar "
        "emulate | in-process |",
        "| remote | `Session.remote(host, port)` | a running "
        "`python -m repro serve` (coalescing + LRU) | one keep-alive HTTP "
        "connection, `schema_version`-negotiated |\n",
        "Grids normalize (axis values sorted, de-duplicated) before",
        "evaluation, so every spelling of a design space shares one cache",
        "entry on every backend.  Failures raise one hierarchy rooted at",
        "`repro.errors.ReproError`: `AmbiguousAxisError` (underspecified",
        "scalar query), `NotOnGridError` (selector value absent from the",
        "grid), `ServiceError` (structured service failure),",
        "`BackendUnavailableError` (nothing listening).\n",
        "Deprecated entry points, kept as thin shims: `design_space()`,",
        "`pareto_frontier()` (now delegating to the index-based",
        "`pareto_front`) and `smallest_scale_for_fps()` — all emit",
        "`DeprecationWarning` and forward to the Session path.",
    ]


def build_markdown(
    header: str = "# Evaluation report\n",
    include_sensitivity: bool = True,
    include_design_space: bool = True,
    design_space_result: Optional[SweepResult] = None,
) -> str:
    """The complete report as a markdown string.

    ``design_space_result`` lets a caller render the design-space
    section from an already-evaluated (possibly served) sweep.
    """
    lines = [header]
    lines.extend(experiments_section())
    if include_sensitivity:
        lines.extend(sensitivity_section())
    if include_design_space:
        lines.extend(design_space_section(design_space_result))
        lines.extend(architecture_sweep_section())
        lines.extend(api_section())
        lines.extend(serving_section())
    return "\n".join(lines) + "\n"
