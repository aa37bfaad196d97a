"""Markdown report builder for the full evaluation.

Programmatic generation of the paper-vs-measured record consumed by
``tools/generate_experiments_md.py`` and the ``python -m repro report``
command: experiment tables, the sensitivity summary and the design-space
view, as one self-contained markdown document.  The documentation of
the query stack (the Session facade, serving, streaming, the cluster,
the store, dense answers, the axis registry and operations) is written
here too, as static sections, so EXPERIMENTS.md has one source: it is
exactly what the generator writes.
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


_API_DOC = """
## API — the `repro.api` Session facade

One typed entry point answers every design-space question over
any execution path.  A `Session` binds a backend; the returned
`Sweep` handle is backed by the same dense `SweepResult` either
way, so queries are bit-identical in-process and over HTTP
(`tests/test_api_session.py` holds the parity to 1e-9, and
`benchmarks/bench_api.py` gates the facade overhead < 5 %).

```python
from repro.api import Grid, Session

session = Session()                        # local, engine='vectorized'
sweep = session.sweep(
    Grid().app('nerf').scale(8, 16, 32, 64).clock(0.8, 1.2, n=5)
)
front = sweep.pareto()                     # non-dominated configs
hit = sweep.cheapest(app='nerf', fps=60)   # cheapest config @ 60 FPS
r = sweep.point(app='nerf', scale_factor=8, clock_ghz=0.8)

remote = Session.remote(port=8787)         # same calls, over HTTP
```

| backend | constructor | evaluation | transport |
|---|---|---|---|
| local | `Session()` / `Session.local(engine=...)` | `sweep_grid` (vectorized) + memoized scalar emulate | in-process |
| remote | `Session.remote(host, port)` | a running `python -m repro serve` (coalescing + LRU) | one keep-alive HTTP connection, `schema_version`-negotiated; the result arrays arrive as one binary frame |
| distributed | `Session.distributed(workers=N)` | block shards leased to persistent workers (local subprocesses + any `repro worker` host) | embedded coordinator; binary-frame `/cluster/*` leases over keep-alive HTTP |

Grids normalize (axis values sorted, de-duplicated) before
evaluation, so every spelling of a design space shares one cache
entry on every backend.  Failures raise one hierarchy rooted at
`repro.errors.ReproError`: `AmbiguousAxisError` (underspecified
scalar query), `NotOnGridError` (selector value absent from the
grid), `UnknownAxisError` (selector name the query does not
accept), `ServiceError` (structured service failure),
`BackendUnavailableError` (nothing listening)."""


_SERVING_DOC = """
## Serving sweeps

`python -m repro serve --port 8787` runs the asyncio DSE query
service: an HTTP JSON API over the batched sweep engine.  Results
are cached in an LRU keyed on the canonical grid + config +
calibration fingerprint (`repro.core.dse.sweep_fingerprint`), so
any spelling of the same design space — reordered or repeated
axis values included — maps to one cache entry.  Concurrent
identical requests coalesce into a single in-flight evaluation
(each waits on the sweep's one progress record; a cancelled request
only stops waiting), and evaluation runs off the event loop
on an executor thread, so cached queries answer in milliseconds
while a cold 50k-point sweep is in progress
(`benchmarks/bench_service.py` gates < 50 ms).  A sweep started by
a stream or a `/result?wait=` long-poll runs the window-major
stream plan and reports every block as it lands; any other sweep
runs one block per (app, scheme) pair.

`/result` is JSON by default and a binary frame on request.  A
client sending `Accept: application/x-repro-frame` gets a finished
result as one CRC-checked `repro.transport` frame of the raw
float64 columns, each timing field at its compact rank (extent 1
along the axes it does not vary along, `repro.core.dse.TIMING_AXES`);
without the header (curl, `request_json`) the JSON body is unchanged:
dense, `schema_version` 2.
Errors and 202 long-poll bodies are JSON either way.  The
`repro.api` remote backend (and so `repro query`) asks for frames:
on the 10,240-point grid of `bench_service.py`'s wire gate a
cached `/result` takes ~100 ms as JSON (`.tolist()`, `json.dumps`,
`json.loads`, `from_payload`) and ~1-2 ms as a frame, with
bit-identical arrays.  A corrupt frame raises `ServiceError` 502
`bad-frame`, never wrong numbers.

| endpoint | body | answer |
|---|---|---|
| `GET /healthz` | — | liveness: `version`, `uptime_s`, `ready`; `?ready=1` turns it into a readiness probe (503 until the engine can serve) |
| `GET /metrics` | — | Prometheus text metrics (see "Operating the service") |
| `GET /stats` | — | cache hits/misses, coalesced, evaluations, `ops` section |
| `POST /sweep` | `{"grid": {...}}` | evaluation summary |
| `POST /result` | `{"grid": {...}}` | full SweepResult: the dense JSON payload by default; one binary `repro.transport` frame (meta `schema_version`/`grid`/`engine`, one column per array, timing columns compact) with `Accept: application/x-repro-frame` |
| `POST /records` | `{"grid", "limit"?}` | flat per-point records |
| `POST /pareto` | `{"grid", "scheme"?, "n_pixels"?, "app"?}` | Pareto front |
| `POST /cheapest` | `{"grid", "app", "fps", ...}` | cheapest config meeting FPS |
| `POST /point` | `{"grid", "app"?, "scale_factor"?, ...}` | one emulation record |
| `POST /sweep/stream` | `{"grid", "scheme"?, "n_pixels"?, "app"?}` | chunked ndjson event stream (see "Streaming sweeps") |
| `POST /result?wait=S` | `{"grid": {...}}` | long-poll: result (JSON, or a frame on request), or a JSON 202 + progress after S seconds |
| `POST /cluster/drain` | — | rolling worker restart (admin tenants only; see "Operating the service") |

Example invocations:

```
python -m repro serve --port 8787
python -m repro query pareto --sweep clock=0.8:1.2:1.695,sram=256:512:1024
python -m repro query cheapest --app nerf --fps 60
python -m repro query point --app nerf --scale 8
curl -s localhost:8787/pareto -d '{"grid": {"scale_factors": [8, 16, 32, 64]}}'
curl -s localhost:8787/stats
```

A scalar query against a swept axis without an explicit selector
returns a structured 400 whose payload names the ambiguous axis
(`error.code == "ambiguous-axis"`, `error.axis`,
`error.values`); a selector value absent from the grid is a 404
(`error.code == "not-on-grid"`) carrying the same two fields;
a selector name the query does not accept (selectors are keyed
by the axis registry's query names: the encoding axes on
`/pareto`, `/cheapest` and `/sweep/stream`, every axis on
`/point`) is a 400 (`error.code == "unknown-axis"`) carrying
`error.name` and the did-you-mean `error.suggestion`.
The report itself can render from a served
result: fetch `POST /result`, rebuild it with
`SweepResult.from_payload` (or take `SyncServiceClient.fetch_result`,
which does it from a frame), and pass it to
`design_space_section(result=...)`.

Connections are keep-alive: clients (the `repro.api` remote
backend, `repro query`, cluster workers) reuse one socket across
requests, and `/stats` counts `http.connections` / `http.requests` /
`http.reused`.  Every client connection runs on one routine,
`repro.service.client.KeepAliveClient`: the service client re-sends
a request only when a reused connection died before one response
byte, so a sweep is never dispatched twice, while the worker's
at-least-once `/cluster/*` client re-sends once after any failure
on a reused connection.  Payloads are versioned: every response envelope
carries `schema_version`, clients advertise the version they
speak in each request body, and an unsupported version is a
structured 400 (`error.code == "unsupported-schema"`).  Request
bodies are capped (`repro serve --max-body-mb`, default 64 MiB);
an oversized body gets a structured 413
(`error.code == "payload-too-large"`, with `limit_bytes` and the
offending `content_length`) before a byte of it is read."""


_STREAMING_DOC = """
## Streaming sweeps

A sweep request no longer has to block until the whole grid
finishes.  The evaluation side is blockwise (every path runs a
block plan through `repro.core.dse.run_plan` — in-process, through
the store, or leased to the cluster); streaming taps that seam: each
completed block is scattered into a `PartialSweep` (dense arrays +
a validity mask) and every subscriber is woken.  Because every
streamed plan is served **window-major** — the local stream plan, the
store's block plan and the shard cluster's leases alike, every
(app, scheme) pair of one resolution window back to back — full app
coverage lands after the first `apps × schemes` blocks, and from that
moment on the service can compute **exact partial Pareto fronts**:
only grid points whose every app slice is evaluated are candidates,
and the math mirrors the dense `pareto_front` operation for
operation.  Fronts only ever refine; the last one is bit-identical to
the dense result's front.

Partial fronts are merged, not recomputed: front(A ∪ B) =
front(front(A) ∪ B).  Each stream keeps its running front, and on
every tick gathers only the cells that became complete since the last
one (O(block) under the `PartialSweep` lock), reduces them over the
batch axis and merges them into the running front with
`pareto_front`, outside the lock, so a producer recording a block
never waits behind a ranking.  The dense front reduces before it
sorts too: area cost has no batch axis, so `repro.core.dse.front`
keeps each cost cell's first best batch and ranks |B|x fewer keys,
with the same lowest-flat-index tie-break.  On a
4,194,304-point grid `SweepResult.pareto_front` takes ~13 ms against
~148 ms unreduced.  `SweepResult.speedup`, `fps` and
`train_steps_per_s` are computed once per result and are read-only.

Every streaming path emits one event schema, built by one function,
`repro.service.progress.progress_events`, over the sweep's
`SweepProgress`: the local backend builds it on the caller's thread
while a helper thread evaluates, the distributed backend builds it on
the caller's thread from the embedded service's progress, and the
service builds it in its executor for `POST /sweep/stream`, which
answers with a chunked newline-delimited JSON stream of those events
(`Connection: close` — the stream owns its socket; the keep-alive
JSON connection is untouched):

```
{"event": "progress", "points_done": ..., "points_total": ..., "blocks_done": ..., "blocks_total": ...,
 "done": false, "failed": false, "subscribers": 1, "elapsed_s": ...}
{"event": "front", "final": false, "points": [...]}       # exact over the evaluated subset
{"event": "progress", ..., "done": true, ...}              # the terminal triple: finished counters,
{"event": "front", "final": true,  "points": [...]}       # == the dense front, bit for bit,
```

and the triple ends with a `complete` event carrying `engine` (the
producing engine, e.g. `"vectorized"`), `cached` (false when any block
ran) and `elapsed_s`.  A served stream that fails mid-way ends instead
with one `error` event whose `error` object is the structured error a
plain request would have got.

In-process streams also carry the dense `SweepResult` as
`result_obj` in `complete` (so `Sweep.watch()` keeps it without a
second evaluation); the wire drops it, and an in-process stream
re-raises an evaluation error instead of sending `error`.  A cached
sweep is simply a progress that is already finished: a re-stream
yields exactly `progress → front → complete` with `"cached": true`
(no block ran: `blocks_done == blocks_total == 0`) and no
re-evaluation; a stream that joins a sweep already running unwatched
(a `/result`, a distributed backend's `sweep`) gets no partial fronts
but ends on that sweep's real block count with `"cached": false`;
concurrent subscribers to the same grid share one evaluation (the
single-flight keying sits in front); a subscriber
that disconnects mid-stream releases its subscription immediately
while the sweep keeps running for everyone else.  Selector errors
(unknown scheme/app, ambiguous `n_pixels`, a misspelled encoding
selector) fail the request with the usual structured JSON *before*
the first chunk — and the dense `/pareto`, `/cheapest` and `/point`
queries likewise answer them before evaluating anything.
`tests/test_stream.py::TestOneEventSchema` streams one grid cold and
cached through the local, distributed and HTTP paths and requires the
same key set per event kind and the same terminal triple.

Consumers, highest level first:

```python
sweep = session.sweep(grid, lazy=True)
for front in sweep.watch(scheme="multi_res_hashgrid"):   # Session facade
    ...                                                  # refining exact fronts

for event in session.backend.stream_events(grid, scheme=...):  # any backend
    ...
for event in client.stream_pareto(grid):                 # SyncServiceClient generator
    ...
```

```
python -m repro dse --follow --sweep clock=0.6:1.7@24,sram=64:...   # CLI
  [   0.31s] front #1: 14 points (cheapest +0.62% area)
  [   0.58s] front #2: 17 points (cheapest +0.41% area)
  ...
```

`POST /result?wait=S` long-polls the same machinery: it returns
the full result as soon as the sweep lands, or — after `S`
seconds — a 202 whose body carries the per-sweep progress
counters (`points_done/points_total`, `blocks_done/blocks_total`,
`subscribers`, `elapsed_s`; the same counters appear per in-flight
sweep under `/stats` as `progress`).  A finished sweep answers at
once, `wait=0` included.  A sweep the long-poll starts is watched
like a stream's, so `points_done` climbs block by block.
Both clients wrap it as `result_wait(grid, wait_s=...)`.

`benchmarks/bench_stream.py` gates the two acceptance bars (CI
runs `--quick`; `BENCH_stream.json` is an artifact): on a
3,276,800-point grid the first exact partial front must arrive in
**< 10%** of the dense vectorized wall, and a representative cluster
message round-tripped through the frame transport (below) is
**bit-identical** to the retired pickle path.  The first-front gate is
timed as interleaved dense/stream pairs on fresh grids, alternating
which side runs first, and reads the median per-pair fraction; every
pair is printed.  Measured that way on a shared 2-vCPU host the gate
still misses, narrowly: three `--quick` runs read a median first front
of 4.6-5.2 ms against a ~40 ms dense sweep (10.7-12.2%), against
5.6-6.3 ms (11.7-14.6%) before partial fronts were merged instead of
recomputed.  The first front needs four ~0.5 ms blocks, one per app,
plus ~1 ms of set-up and ~1 ms to merge and build the front.  The
same merge is what makes streaming the whole grid cheap: the run to
completion that checks the final front takes ~0.10 s against ~0.87 s
when every tick re-ranked the whole partial grid (medians of three
alternating runs)."""


_CLUSTER_DOC = """
## Distributed sweeps — the shard cluster

The block task tuples of `repro.core.dse.shard_plan` are
self-contained, JSON-safe work units; the cluster in
`repro.service.cluster` ships them across machines, and
`repro.core.dse.run_plan` assembles the leased blocks exactly as it
does local ones (the cluster is just another block runner).
Topology:

- **Coordinator** — one per cluster, owned by a `repro serve
  --engine cluster` process or embedded in a
  `DistributedBackend`/`Session.distributed(...)`.  It cuts every
  submitted sweep into contiguous vectorized blocks (about
  2 per worker, capped so one block's arrays stay under ~4 MB),
  queues them window-major — one window of every (app, scheme)
  pair after another, so a streamed cluster sweep's first exact
  partial front lands after `apps × schemes` blocks — and serves
  the pull-based lease protocol on the
  *same* HTTP port as the JSON API: `POST /cluster/register`,
  `POST /cluster/lease` (long-poll), `POST /cluster/complete`,
  `GET /cluster/stats`.  Bodies are **versioned binary columnar
  frames** (`repro.transport`, `application/x-repro-frame`): a
  fixed struct header (magic, version, CRC-32 over meta+payload),
  a JSON meta/column table, and 8-byte-aligned little-endian
  array columns decoded as zero-copy read-only NumPy views —
  dense float64 blocks round-trip bit-identically to the pickle
  protocol the frames replaced, but decoding is pure data: no
  code execution, numeric dtypes only, every truncation or
  flipped bit rejected by CRC (`tests/test_transport.py`).
  `import pickle` is banned from `src/repro/service` (grep gate
  in `tools/run_checks.sh`).
- **Workers** — any number of `python -m repro worker --host H
  --port P` processes, on any machine that can reach the
  coordinator.  A worker registers, long-polls for leases,
  evaluates each block through the vectorized batch path with
  the job's base config and under the calibration its lease
  names (keeping blocks bit-identical to local evaluation), and
  streams the arrays back.
- **Lease semantics / failure handling** — work is pull-based,
  so nothing is ever assigned to a dead worker; a leased block
  whose deadline (`--lease-timeout`, default 10 s) passes is
  re-queued and its worker marked dead, so SIGKILLing a worker
  mid-sweep delays its blocks by at most one lease timeout
  (`tests/test_cluster.py` kills one of two workers and asserts
  the sweep completes bit-identically).  A completion whose lease
  expired and moved to another worker — a late result *or* a late
  error report — is a counted no-op (`late_completions` /
  `stale_completions` in `/cluster/stats`): it neither
  double-counts the block nor clobbers or poisons the current
  holder's lease.  A sweep with no live workers fails structured
  after the backend's `sweep_timeout_s`.

The sweep service's single-flight keying sits in front of the
coordinator, so identical sweeps issued by many client hosts
against one `repro serve --engine cluster` share a single
distributed evaluation, and repeated sweeps hit the LRU.

```
# host A: coordinator + 2 local workers, port 8787
python -m repro serve --engine cluster --workers 2 --port 8787

# hosts B, C: join the same cluster
python -m repro worker --host A --port 8787

# any host: query it like any served instance
python -m repro query pareto --host A --sweep clock=0.8:1.2:1.695
```

`benchmarks/bench_cluster.py` measures the cluster against the
fastest single-process path, the vectorized `sweep_grid` engine, on
the same distinct cold 51,200-point grids.  On one 2-vCPU host the
4-worker cluster takes 3.4-5.3x the vectorized wall time (best of
seven, five runs; 3.5-6.5x in `--quick`): every block pays a lease,
a frame and an HTTP round trip, and one process already runs the
whole grid at NumPy speed.  The gate is therefore a ceiling — the
cluster must stay within 10x of vectorized — plus bit-identity of
the arrays.  `BENCH_cluster.json` is a CI artifact."""


_STORE_DOC = """
## The persistent result store — the disk tier

The service's LRU and the process-wide sweep memo die with their
process; the store in `repro.store` is the tier under them.  One
directory — local, or a volume shared by N service replicas — holds
every evaluated sweep and block, content-addressed:

```
<root>/
  sweeps/<digest>.frame   one whole SweepResult per entry
  blocks/<digest>.frame   one vectorized block per entry
```

Every entry is one `repro.transport` frame, the format `/result` and
the cluster already ship: a sweep entry is
`encode_frame({schema_version, grid, engine}, columns)`, a block entry
has an empty meta.  The file tree is the index: `stats()` counts and
sizes the `.frame` files of each directory.

`<digest>` is the SHA-256 of the canonical fingerprint
(`sweep_fingerprint` for sweeps, `block_fingerprint` for blocks),
which hashes the normalized grid axes, the base `NGPCConfig`, **and
the calibration in use** — so invalidation is content addressing: a
sweep under a perturbed calibration (`repro.calibration.use`) has its
own fingerprints, and stale entries are simply never addressed again
(the nominal entries remain, still valid, for the nominal
configuration).  Entries are
written with a same-directory temp file + fsync + atomic `os.replace`
and skipped when already present, so replicas racing to persist the
same sweep write identical bytes and converge harmlessly.  A load maps
the file read-only and runs the frame's structural parse
(`repro.transport.parse_frame`): the columns are views over the map,
so serving a persisted sweep costs the frame header and column table,
not an array copy.  The load skips the frame CRC that every wire
frame is checked against: computing it faults in every page of the
map, and on the 9.7 MB entry of `bench_store --quick` it would take
the load from ~1.8 ms to ~7 ms.  Sweep and block entries hold the compact timing
columns, as result frames do: the 1,048,576-point grid of
layerbench's `adaptive` workload persists 10.0 MB where the dense
layout held 51.4 MB (six 8.4 MB timing arrays plus the cost
arrays).  Entries written with dense columns before the layout
changed still load: every reader accepts a timing column at its
compact or its dense shape and nothing else, and the fingerprints
(which address values, not layout) are unchanged.

Attach the tier anywhere an evaluation path exists:

```
python -m repro serve --port 8787 --store /var/lib/repro-store
python -m repro dse --sweep clock=0.8:1.2:1.695 --store ~/.cache/repro
```

```python
from repro.api import Session

session = Session(store="results/")        # or Session.local(store=...)
sweep = session.sweep(...)                 # tiered evaluation ladder
```

The ladder, cheapest rung first: **RAM** (LRU / sweep memo) → **disk,
whole sweep** (persisted result under the sweep fingerprint) →
**disk, blocks** → **evaluate**.  Below the RAM rung it is one
function, `repro.store.tiered_sweep(grid, ngpc, store, counters,
on_plan, on_block)`, which every backend runs — the local backend
after its sweep memo, the service (and through it the HTTP and
distributed backends) after its LRU, the shard cluster as the
injected `sweep_fn` at its evaluate rung (persisted sweeps never reach
it, and its result is persisted whole); the backends differ only in
their block runner and transport.  The block rung is what makes
incremental grid refinement nearly free: `store_block_plan` cuts every
grid into value-keyed blocks — one per (app, scheme, scale, pixels)
carrying the full architecture sub-grid — so a sweep that overlaps a
previously evaluated hypercube loads the covered blocks and evaluates
only the missing ones before `finalize_sweep_result` assembles a
result **bit-identical** to a from-scratch evaluation (extending an
*architecture* axis changes block content and re-evaluates; extending
workload axes reuses the overlap).  Crash mid-sweep and the blocks
already evaluated are banked.

`/stats` tells the truth about the tiers: `cache` carries
`ram_hits`/`disk_hits`/`evaluations` next to the LRU's own counters,
and `store` carries the entry counts and bytes by kind and
block-reuse counters.  Corruption degrades instead of failing: a
truncated, garbage or misshapen entry emits a
`StoreCorruptionWarning`, is quarantined to `*.corrupt`, and the
caller re-evaluates and re-persists a clean copy.  An `.npz` entry
left by a store from before entries were frames is never addressed:
its sweep or block is a plain miss, re-evaluated and persisted as a
frame.

`benchmarks/bench_store.py` gates the tier: a warm restart (fresh
store instance over a persisted ~1M-point sweep) must load ≥ 50x
faster than re-evaluation, and an overlapping-grid sweep must evaluate
exactly the missing blocks, both bit-identical to fresh evaluations.
The restart ratio is the median over interleaved (fresh evaluation,
fresh-instance load) pairs; on a shared 2-vCPU host it reads ~20x
(~37 ms to evaluate against ~1.8 ms to load), under the floor.  About
0.04 ms of that load (once 0.6 ms) is rebuilding and validating the
grid from the entry's meta.  `BENCH_store.json` is a CI
artifact."""


_DENSE_DOC = """
## Dense answers at every size

Every `Session.sweep` evaluates its whole grid through the vectorized
block plan, whatever its size: `pareto()` and `cheapest(...)` answer
from the dense arrays with the one query kernel in `repro.core.dse`.
`explore=` still accepts `"auto"` (the default) and `"exhaustive"`,
and both mean dense; any other value raises `ValueError`.

An adaptive explorer once answered grids of ≥ 131,072 points from a
few percent of their points.  Once the dense front reduced over the
batch axis before sorting, the dense answer measured faster, so the
explorer was removed (about 1,300 lines of `src/`).  On a shared 2-vCPU
host:

- layerbench `adaptive` (1,048,576 points, `--seconds 10`, 10
  alternating runs against the explorer, seeds 101–110):
  `answer_p10_ms` fell from a median of 64.5 to 53.6 ms and
  `first_front_p10_ms` from 55.0 to 52.5 ms, every answer still equal
  to the dense vectorized reference;
- a 4,194,304-point grid, warm `Session` Pareto + cheapest: a median of
  73 ms dense against 119 ms adaptive over 8 interleaved runs.

`tools/run_checks.sh` keeps a smoke above the old threshold: a
`Session().sweep` of a large grid must read `explore == "exhaustive"`
and answer the same front and cheapest point as a fresh uncached
vectorized `sweep_grid` evaluation.

**The result is the only grid-sized allocation of a dense answer.**
`run_plan` allocates the result's columns once and hands each block
its slot of `accelerated_ms`; the makespan kernel
(`pipeline_total_ms_batch`) writes into that slot one slab of at most
16,384 elements at a time, with slab-sized temporaries, and assembly
copies only what is not already in place (stored and cluster blocks).
`pareto_front` and the cheapest-point queries read the plane's stored
`baseline_ms`/`accelerated_ms` one slab at a time and never build the
cached `speedup`, `fps` or `train_steps_per_s` arrays.  Each slab's
cost cells are reduced over batches by a running elementwise max (the
front's benefit) or `fmin` (the cheapest point's time) across the
batch columns: one long ufunc call per batch, where an `argmax` along
the 16-value batch axis ran one short loop per cell.  The front divides
each app's speedup into one of two slab buffers allocated once per
query and sums them in app order, as `mean(axis=0)` does; the maxima
are divided by the app count once, which keeps the max because the
divisor is positive.  Every cost cell is ranked once, and only the
cells returned look up their batch: a front cell its first best one,
the cheapest cell its first feasible one (a cell meets a target when
its fastest batch does, since `ms <= budget` and the training rate
only turn false as the time grows).  The bits do not change.
`tests/test_dense_allocation.py` bounds the `tracemalloc` peak on an
`adaptive`-shaped 1,048,576-point grid, as a multiple of its 8.4 MB
`accelerated_ms`: an uncached `sweep_grid` reads 1.30x (bound 1.5x;
2.29x before), `pareto_front` 0.22x (bound 0.5x; 0.38x with a
per-slab `argmax`, 1.75x over whole planes) and
`cheapest_point_meeting_fps` 0.07x (bound 0.25x; 1.06x before, on a
fresh result).  `tests/test_batch_reducers.py` pins both queries and
`reduce_batches` to whole-plane `argmax`/`argmin` references, ties,
infinities and NaN included, and gate 5 of
`benchmarks/bench_sweep_scaling.py` holds the front to <= 0.8x the
dense sweep of the same grid.  On a shared 2-vCPU host (medians of 41
rounds interleaved with that sweep) the front takes 3.1–3.3 ms against
4.4 ms with a per-slab `argmax` (0.63–0.67x the sweep against
0.91–0.96x) and `cheapest_point_meeting_fps` 0.96–1.03 ms against
1.31 ms.  Layerbench `adaptive` (`--seconds 15`, 10 alternating
pairs, every answer correct): `answer_p10_ms` fell from a median of
11.96 to 10.08 ms and `first_front_p10_ms` from 10.45 to 8.96 ms,
better in every pair; `served` read 3.81 against 3.72 ms and
`cluster_stream` 51.0 against 51.4 ms.

**The dense answer's two inner loops run long.** With the batch axis
last, each pass of the makespan kernel used to run a ufunc inner loop
over one cell's 16 batch counts.  The kernel now treats the batch axis
and the axes behind it as a row and cuts slabs of whole rows, a quarter
of `SLAB_POINTS` so that its five live operands stay in a core's L2.
The batch counts, and a rest time that is the same in every row, are
tiled over a slab once per call, and dividing the per-cell stage time
by the tiled counts repeats it along the batch axis, so every later
pass is one contiguous loop over the slab.  `pareto_front` sorts the
costs once, stably, and ranks each distinct cost by the running max of
its values, where it used to sort every (cost, -value) pair: the
`adaptive` plane's 32,768 cost cells hold only 184 distinct areas,
because area does not vary along clock.  Both return what they
replaced bit for bit and index for index;
`tests/test_contiguous_kernels.py` pins them to copies of the old
code.  On a shared 2-vCPU host, one 524,288-point `adaptive` block's
kernel takes 2.8–3.1 ms against 3.8–4.3 ms before, and the front's
ranking 0.8–1.0 ms against 2.6–3.3 ms (medians of 21–31).  Layerbench
`adaptive` (`--seconds 10`, 10 alternating pairs, every answer correct):
`answer_p10_ms` fell from a median of 17.77 to 14.58 ms and
`first_front_p10_ms` from 16.05 to 12.87 ms, better in every
pair.  `served` stayed flat (7.19 against 7.17 ms) and `cluster_stream`
read 58.5 against 56.0 ms.

**The fixed cost of a small sweep.** Axis values are validated once,
where they enter: a `SweepGrid` built from arguments or JSON, and the
public `emulate_batch`.  The validators are the config dataclasses' own
range checks, so no config is built per value; `resolve()`,
`normalized()` and the block path re-check nothing, the per-level table
bytes are built once per (app, encoding variant), and a sweep nobody
watches builds no `PartialSweep`.  The bits do not change.  On a shared
2-vCPU host `evaluate_block` on a 1-point block reads 0.09–0.11 ms
against ~0.23 ms before, and `SweepGrid.from_dict(d).resolve()` on
`bench_store`'s grid ~0.03 ms against ~0.35 ms.  Layerbench `served`
(`--seconds 15`, 10 alternating pairs): `answer_p10_ms` fell from a
median of 6.81 to 5.20 ms, better in every pair; `adaptive` fell from
14.49 to 12.92 ms (every pair) and `cluster_stream` from 59.8 to
56.8 ms (9 of 10 pairs)."""


_AXIS_REGISTRY_DOC = """
## Adding an axis — the registry contract

Every sweep axis is one declarative `AxisSpec` entry in
`src/repro/core/axes.py` — the **only** place an axis list lives.
`SweepGrid`/`SweepResult` array layout, fingerprints, store block
plans, the transport payload schema, the `Grid()` fluent builder and
the CLI `--sweep` parser all derive from the registry (`tools/run_checks.sh` greps the tree to keep
private axis tuples from creeping back).  To add an axis, append one
spec and wire its physics:

```python
AxisSpec(
    name="log2_hashmap_sizes",     # SweepGrid field (plural, array order)
    query_name="log2_hashmap_size",# point()/cheapest() selector keyword
    kind="encoding",               # workload | arch | encoding
    canon=int,                     # canonicalizer applied per value
    validate=_validate_log2_hashmap,
    inherit=lambda base: LOG2_HASHMAP_INHERIT,  # value when unset
    sentinel=LOG2_HASHMAP_INHERIT, # "inactive" marker (see below)
    legacy=False,                  # False for every post-seed axis
    batch_kwarg="log2_hashmap_sizes",  # emulate_batch keyword
    builder="hashmap",             # Grid().hashmap(...) method
    cli="loghash",                 # dse --sweep loghash=14:19
    cli_cast=int,
    description="log2 hash-table entries T (0 = inherit Table I)",
)
```

**Fingerprint-compatibility rules.**  Warm stores and remote caches
must survive the registration, so a new axis must obey:

- `legacy=False` and a `sentinel`: the axis is *active* only when its
  values differ from `(sentinel,)`.  Inactive grids keep the seed
  8-dimensional arrays, `sweep/v1` fingerprints and schema-v1 payloads
  bit for bit — a store written before the axis existed reads back hit
  for hit (`tests/test_store.py::TestPreRegistryStoreCompatibility`
  pins this against a committed pre-registry fixture).
- Active grids gain a trailing array dimension per active extension
  axis and fingerprint under versioned tags (`sweep/v2`, `block/v2`),
  so new-axis results can never collide with seed-axis entries.
- Never reorder or rename the seed eight specs — their names double as
  fingerprint salts.
- Add a value pool to `_AXIS_VALUE_POOLS` in
  `tests/test_sweep_engine.py`; the registry-driven hypothesis harness
  fails loudly on a registered axis without coverage, then sweeps it
  generically through the vectorized-vs-scalar parity net.

The proof-of-life is the hash-grid trio — `gridtype` (hash|tiled),
`log2_hashmap_size` (T), `per_level_scale` (b) — which reaches the
encoding-engine spill model and the SRAM-cost model
(`hashmap_sram_kb` prices each table size in die area), plus the
derived `train_steps_per_s` metric, so `cheapest()` can target
training throughput: `sweep.cheapest(app="nerf",
train_steps_per_s=1.0, log2_hashmap_size=19, ...)` (HTTP: `POST
/cheapest` with `"train_steps_per_s"` instead of `"fps"`).  The worked
quality-vs-area Pareto example is
`examples/hashgrid_quality_pareto.py`: collision-rate quality
(`hash_collision_rate_batch`) against hash-table silicon cost
(`hashgrid_area_power_batch`), swept and queried through one
`Session` sweep."""


_OPERATIONS_DOC = """
## Operating the service — tenants, quotas, metrics, rolling restarts

`repro serve` ships with an operations layer that is on for every
server: structured JSON logs on stdout (one object per line; the
startup record's `message` keeps the `listening on http://host:port`
text for humans and init scripts; the workers' `/cluster/*` RPCs log
their access lines at debug, and an embedded `Session.distributed()`
logs to stderr at warning, so it writes nothing to the caller's
stdout), `GET /healthz` liveness with
`version`/`uptime_s`/`ready` (add `?ready=1` for a readiness probe
that 503s until the engine — and, with `--engine cluster`, the
coordinator — can actually serve), Prometheus metrics at
`GET /metrics`, and an `ops` section under `/stats`.  Without a
tenants file every request runs as the `anonymous` admin tenant —
the zero-config dev workflow is unchanged.

**Tenants.**  `repro serve --tenants tenants.json` turns on bearer
auth.  The file is a JSON object:

```json
{
  "tenants": [
    {"name": "acme", "key": "ak-acme-Fz31", "rate_per_s": 20, "burst": 40},
    {"name": "ops",  "key": "ak-ops-9a0c", "admin": true}
  ],
  "limits": {"max_cold_sweeps": 2, "cold_queue_depth": 8}
}
```

Clients send `Authorization: Bearer <key>` (`repro query --api-key`,
`Session.remote(..., api_key=...)`, every service client).  A missing
key is a structured 401 (`error.code == "unauthenticated"`, with
`WWW-Authenticate: Bearer`); an unknown key is a 403 (`"forbidden"`).
`/healthz` is always open, `/metrics` is open by default
(in-perimeter scrapers), and the `/cluster/*` worker wire protocol is
exempt except for `/cluster/drain`.  The file **hot-reloads**: an
mtime change is picked up within a second on the request path, and
`SIGHUP` forces an immediate re-read.  A malformed edit keeps the
previous config live (counted as `load_errors` in `/stats`) — a
fat-fingered rotation never takes auth down.

**Quotas.**  Two mechanisms guard two resources.  Per-tenant token
buckets (`rate_per_s`/`burst`) debit one token per request; an empty
bucket answers 429 with `error.code == "rate-limited"`, a computed
`retry_after_s`, and a `Retry-After` header.  Globally,
`--max-cold-sweeps N` caps concurrently *evaluating* cold sweeps
(cached reads, coalesced joins, and streams over in-flight sweeps
never touch the cap); excess cold sweeps queue FIFO up to
`--cold-queue-depth` and beyond that get 429 `"overloaded"`.  The
tenants file's `limits` section overrides both caps and hot-reloads
with the file.  `benchmarks/bench_service_ops.py` gates the isolation
property: one tenant flooding hundreds of concurrent cold sweeps
cannot move a second tenant's cached-query p99, every rejection
carries a retry hint, and `BENCH_service_ops.json` is a CI artifact.

**Metrics.**  `GET /metrics` renders Prometheus text 0.0.4:
`repro_http_requests_total{tenant,status}`,
`repro_http_rejects_total{tenant,code}` (401/403/429 by structured
error code), and a `repro_http_request_seconds{tenant}` latency
histogram, followed by the flattened `/stats` counters
(`repro_evaluations`, `repro_cache_ram_hits`,
`repro_sweep_points_done{sweep}` per in-flight sweep,
per-worker cluster gauges, ...).  `--no-metrics` disables the
endpoint.

**Rolling restarts (drain runbook).**  To replace cluster workers
without losing a running sweep:

1. `repro admin drain --port 8787 --api-key <admin-key>` (or
   `curl -X POST .../cluster/drain` with the bearer key).  The
   coordinator bumps its worker **generation** and answers with
   `draining_workers` / `leases_outstanding`.
2. Old-generation workers finish (or re-queue via lease expiry) their
   in-flight blocks — completions are still accepted, nothing is lost
   or double-counted — and their next lease poll answers
   `{"stop": true, "reason": "drained"}`; parked long-pollers are
   woken immediately.  Each worker exits 0.
3. Start replacement workers (`repro worker --host H --port P`); they
   register into the new generation and take over the queue
   mid-sweep.  `tests/test_service_ops.py` pins the end-to-end bar: a
   2-worker drain mid-sweep finishes bit-identical to a local
   evaluation.
4. Watch `/stats`: `cluster.generation`, `cluster.drains`, and
   `workers.current_generation` confirm the fleet rolled.

`repro admin ops` prints the `ops` section of `/stats` (admission
counters, tenant registry state, request totals) for a quick
operator check without a metrics stack."""


#: the static documentation sections, in document order: the contracts
#: of the query stack, written once here and rendered into EXPERIMENTS.md
#: and the full report next to the numbers they serve
DOCUMENTATION_SECTIONS = (
    _API_DOC,
    _SERVING_DOC,
    _STREAMING_DOC,
    _CLUSTER_DOC,
    _STORE_DOC,
    _DENSE_DOC,
    _AXIS_REGISTRY_DOC,
    _OPERATIONS_DOC,
)


def documentation_sections() -> List[str]:
    """Every static documentation section, in document order."""
    return list(DOCUMENTATION_SECTIONS)


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
        lines.extend(documentation_sections())
    return "\n".join(lines) + "\n"
