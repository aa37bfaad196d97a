#!/usr/bin/env bash
# Tier-1 gate: the full pytest suite plus a smoke run of the
# sweep-scaling benchmark (the >= 10x batched-DSE acceptance check runs
# in --quick mode here; run the benchmark without --quick for the full
# 1000-point gate and the >= 50k-point vectorized-vs-scalar gate), a
# one-block-path grep gate (no process pool anywhere under src/repro;
# exactly one block-level `emulate_batch(` call and one
# `finalize_sweep_result(` call — every evaluation path runs through
# repro.core.dse.run_plan), the service latency/coalescing gates
# (bench_service --quick, including the served-result wire gate: a
# framed /result >= 10x faster than JSON), the Session facade overhead gate
# (bench_api --quick), and a black-box sweep-service smoke: start
# `repro serve` as a subprocess, run one sweep and one pareto query over
# raw HTTP plus a remote-backend repro.api Session round trip (keep-alive
# reuse counted, local/remote parity asserted, and a RemoteBackend sweep
# — its /result shipped as a binary frame — equal to the local result
# bit for bit), and require a clean SIGINT shutdown.  The distributed
# layer gets two gates of its own: a 2-worker shard-cluster smoke
# (coordinator + real `repro worker` subprocesses, one sweep via
# DistributedBackend, parity vs vectorized, clean shutdown) and the
# cluster overhead benchmark
# (bench_cluster --quick: a ceiling on cluster wall time over the
# vectorized baseline plus bit-identity, emitting BENCH_cluster.json).  The persistent result store gets its
# own section: the store test suite runs standalone (warm restart,
# block-delta evaluation, corruption quarantine) and the store
# benchmark gates (warm load >= 50x re-evaluation, overlap evaluates
# only the missing blocks, bit-identity) run in --quick mode, emitting
# BENCH_store.json.  The adaptive exploration engine gets an
# exact-answer smoke (Session explore='adaptive' parity vs exhaustive,
# including the structured infeasible error, plus a CLI
# `repro dse --explore adaptive` run) and its acceptance gates
# (bench_adaptive --quick: golden equality, <= 10% of a multi-million
# point hypercube evaluated, >= 5x cold wall clock, emitting
# BENCH_adaptive.json).  The streaming result path gets a pickle ban
# (no `import pickle` / `pickle.` call anywhere under
# src/repro/service — the versioned binary frame transport replaced
# it on the wire) and its acceptance gates (bench_stream --quick:
# first exact partial front in < 10% of the dense wall on a >= 500k
# point grid, frame/pickle round-trip bit-identity, emitting
# BENCH_stream.json).  The multi-tenant ops layer gets its own
# section: the ops test suite runs standalone (auth 401/403 split,
# hot reload, quota fairness, Prometheus /metrics, rolling drain), the
# quota-isolation gates (bench_service_ops --quick: cached-query p99
# held under a misbehaving tenant's flood, both 429 shapes observed,
# emitting BENCH_service_ops.json) run in --quick mode, and an
# auth-enabled black-box smoke starts `repro serve --tenants FILE`,
# requires the 401/200 split over raw HTTP, runs `repro query
# --api-key` and `repro admin ops --api-key` through the CLI, and
# requires a clean SIGINT shutdown.  A second grep gate keeps one query
# kernel: no private selector/encoding-slice/config-axes helper
# (`_axis_index`, `_encoding_slice`, `_encoding_index`, `_config_axes`,
# `_pick`, `_pick_encoding`) is defined under src/repro, and
# `DesignPoint(` is constructed in exactly one place.  A third keeps one
# selector mapping: no encoding selector name (`gridtype`,
# `log2_hashmap_size`, `per_level_scale`) appears in the Session, the
# backends, the service or the explorer — they forward selectors as
# keywords to the query kernel.  A fourth keeps one tier ladder and one
# stream-event builder: `.load_sweep(`/`.save_sweep(` are called only
# in src/repro/store/tiered.py (once each, by `tiered_sweep`), and the
# literal `"event": "complete"` appears exactly once under src/repro.
# The service and reconnect suites run again under `python -X dev` and
# fail on any unclosed-socket ResourceWarning, and EXPERIMENTS.md must
# equal a fresh run of tools/generate_experiments_md.py byte for byte.
#
# Every section runs even when an earlier one fails; each failing
# section is recorded, and the script exits non-zero at the end with
# the list of failures.
#
# Usage:  bash tools/run_checks.sh
set -uo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=()
current=""
section() {
    echo
    echo "== $1 =="
    current="$1"
}
fail() {
    failures+=("$current")
}

section "tier-1 tests"
python -m pytest -x -q || fail

section "no unclosed sockets (service + reconnect tests under -X dev)"
# every client and connection these suites open must be closed: under
# python -X dev an unclosed socket or transport is a ResourceWarning,
# and any one of them fails the section
dev_log=$(python -X dev -m pytest -q -p no:cacheprovider \
    tests/test_service.py tests/test_client_reconnect.py 2>&1)
dev_status=$?
printf '%s\n' "$dev_log" | tail -n 1
if [ "$dev_status" -ne 0 ] \
   || printf '%s\n' "$dev_log" | grep -q 'ResourceWarning: unclosed'; then
    printf '%s\n' "$dev_log" | grep -B1 'ResourceWarning: unclosed' >&2
    fail
fi

section "EXPERIMENTS.md regenerates byte for byte"
# the generator (tools/generate_experiments_md.py, from the experiment
# registry and src/repro/analysis/report.py) is its only source
regen_dir=$(mktemp -d)
root=$PWD
if (cd "$regen_dir" \
        && PYTHONPATH="$root/src" python "$root/tools/generate_experiments_md.py") \
   && cmp "$regen_dir/EXPERIMENTS.md" EXPERIMENTS.md; then
    echo "EXPERIMENTS.md is what the generator writes"
else
    diff "$regen_dir/EXPERIMENTS.md" EXPERIMENTS.md | head -n 20 >&2
    echo "FAIL: EXPERIMENTS.md differs from its regeneration" >&2
    fail
fi
rm -rf "$regen_dir"

section "result store suite (warm restart, delta, corruption)"
python -m pytest tests/test_store.py tests/test_model_cache.py -q || fail

section "result store gates (smoke)"
python benchmarks/bench_store.py --quick || fail

section "sweep-scaling benchmark (smoke)"
python benchmarks/bench_sweep_scaling.py --quick || fail

section "one block-execution path (grep gate)"
if grep -rn --include='*.py' 'ProcessPoolExecutor' src/repro; then
    echo "FAIL: a process pool is back under src/repro (the cluster owns" \
         "multi-core and multi-host evaluation)" >&2
    fail
fi
# block-level kernel calls: core/energy.py's per-frame energy model
# calls emulate_batch for its own (non-block) purpose
kernel_calls=$(grep -rn --include='*.py' 'emulate_batch(' src/repro \
    | grep -v 'def emulate_batch(' | grep -v '^src/repro/core/energy\.py:')
finalize_calls=$(grep -rn --include='*.py' 'finalize_sweep_result(' src/repro \
    | grep -v 'def finalize_sweep_result(')
if [ "$(printf '%s\n' "$kernel_calls" | grep -c .)" != 1 ] \
   || [ "$(printf '%s\n' "$finalize_calls" | grep -c .)" != 1 ]; then
    printf 'FAIL: want exactly one block-level emulate_batch( call and one finalize_sweep_result( call, found:\n%s\n%s\n' \
        "$kernel_calls" "$finalize_calls" >&2
    fail
else
    echo "one block executor: $kernel_calls"
fi

section "one query kernel (grep gate)"
# the selector rule, the encoding slice, the swept-axis list and the
# DesignPoint builder are defined once, in repro.core.dse; dense,
# streamed and adaptive queries, the Session facade and the service
# all call them
if grep -rnE --include='*.py' \
    'def (_axis_index|_encoding_slice|_encoding_index|_config_axes|_pick|_pick_encoding)\(' \
    src/repro; then
    echo "FAIL: a private copy of a query helper is back under src/repro" >&2
    fail
fi
point_sites=$(grep -rn --include='*.py' 'DesignPoint(' src/repro)
if [ "$(printf '%s\n' "$point_sites" | grep -c .)" != 1 ]; then
    printf 'FAIL: want exactly one DesignPoint( construction site, found:\n%s\n' \
        "$point_sites" >&2
    fail
else
    echo "one query kernel: $point_sites"
fi

section "one selector mapping (grep gate)"
# query selectors travel as one keyword mapping keyed by the axis
# registry's query names, from the HTTP/Session edge down to the query
# kernel in repro.core.dse (query_slice, point_index, encoding_slice);
# no layer above it spells an encoding selector out (the Grid.gridtype
# builder in api/grid.py is a grid axis, not a selector, and not scanned)
if grep -rnwE --include='*.py' 'gridtype|log2_hashmap_size|per_level_scale' \
    src/repro/api/session.py src/repro/api/backends.py \
    src/repro/service/ src/repro/explore/; then
    echo "FAIL: a hand-threaded encoding selector is back above the query kernel" >&2
    fail
else
    echo "selectors reach the query kernel as one keyword mapping"
fi

section "one tier ladder (grep gate)"
# the persisted-sweep rungs are read and written only by the ladder
# (repro.store.tiered_sweep) every backend runs, and the stream events
# are built only by repro.service.progress.progress_events
ladder_calls=$(grep -rnE --include='*.py' '\.(load|save)_sweep\(' src/repro \
    | grep -v '^src/repro/store/tiered\.py:')
complete_sites=$(grep -rn --include='*.py' '"event": "complete"' src/repro)
if [ -n "$ladder_calls" ] \
   || [ "$(grep -cE '\.(load|save)_sweep\(' src/repro/store/tiered.py)" != 2 ] \
   || [ "$(printf '%s\n' "$complete_sites" | grep -c .)" != 1 ]; then
    printf 'FAIL: want .load_sweep(/.save_sweep( only in store/tiered.py (once each) and one "event": "complete" site, found:\n%s\n%s\n' \
        "$ladder_calls" "$complete_sites" >&2
    fail
else
    echo "one tier ladder, one event builder: $complete_sites"
fi

section "shard cluster smoke (2 workers, sweep via DistributedBackend)"
python - <<'PY' || fail
import numpy as np

from repro.api import DistributedBackend, SweepGrid
from repro.core.dse import sweep_grid

grid = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 64),
    clocks_ghz=(1.2, 1.695),
    n_batches=(8, 16),
)
backend = DistributedBackend(workers=2)
try:
    result = backend.sweep(grid.resolve().normalized())
    vec = sweep_grid(grid.resolve().normalized(), engine="vectorized",
                     use_cache=False)
    np.testing.assert_allclose(
        result.accelerated_ms, vec.accelerated_ms, rtol=1e-9, atol=0.0
    )
    stats = backend.coordinator.stats()
    assert stats["workers"]["registered"] == 2, stats
    assert stats["blocks"]["completed"] >= 1, stats
finally:
    backend.close()
workers = backend._workers
assert all(p.poll() is not None for p in workers), "workers not reaped"
print(f"cluster smoke ok: {result.grid.size}-point sweep over 2 workers "
      f"({stats['blocks']['completed']} blocks, engine={result.engine}), "
      f"clean shutdown")
PY

section "cluster overhead gate (smoke)"
python benchmarks/bench_cluster.py --quick || fail

section "service latency + coalescing gates (smoke)"
python benchmarks/bench_service.py --quick || fail

section "Session facade overhead gate (smoke)"
python benchmarks/bench_api.py --quick || fail

section "adaptive exploration smoke (parity + structured infeasible)"
python - <<'PY' || fail
from repro.api import InfeasibleQueryError, Session, SweepGrid

grid = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.2, 1.695),
    n_batches=(8, 16),
)
session = Session.local(engine="vectorized")
adaptive = session.sweep(grid, explore="adaptive")
dense = session.sweep(grid, explore="exhaustive")
assert adaptive.explore == "adaptive", adaptive.explore
assert [p.to_dict() for p in adaptive.pareto()] == \
       [p.to_dict() for p in dense.pareto()]
assert adaptive.cheapest(app="nerf", fps=60.0).to_dict() == \
       dense.cheapest(app="nerf", fps=60.0).to_dict()
try:
    adaptive.cheapest(app="gia", fps=10.0**9)
except InfeasibleQueryError as exc:
    try:
        dense.cheapest(app="gia", fps=10.0**9)
    except InfeasibleQueryError as exc2:
        assert str(exc) == str(exc2) and exc.best_fps == exc2.best_fps
    else:
        raise AssertionError("dense path did not raise")
else:
    raise AssertionError("adaptive path did not raise")
stats = adaptive.explore_stats
assert stats["points_evaluated"] <= stats["points_total"], stats
assert stats["bound_violations"] == 0, stats
print(f"adaptive smoke ok: parity on {adaptive.size} points "
      f"({stats['points_evaluated']} evaluated in {stats['rounds']} "
      f"rounds), structured infeasible error identical across modes")
PY

section "CLI adaptive exploration smoke (repro dse --explore adaptive)"
if python -m repro dse --explore adaptive \
    --sweep scale=8:16:32:64,clock=0.8:1.2:1.695,batches=8:16 \
    --fps 60 > /dev/null; then
    echo "repro dse --explore adaptive ok"
else
    fail
fi

section "adaptive exploration gates (smoke)"
python benchmarks/bench_adaptive.py --quick || fail

section "axis-registry gate (no private axis tuples)"
# every axis list must derive from repro.core.axes: two adjacent
# axis-name string literals on one line is the AXIS_FIELDS-style
# hard-coded tuple this refactor retired
AXIS_NAMES='apps|schemes|scale_factors|pixel_counts|clocks_ghz|grid_sram_kb|n_engines|n_batches|gridtypes|log2_hashmap_sizes|per_level_scales'
if grep -rnE --include='*.py' \
    "[\"']($AXIS_NAMES)[\"'][[:space:]]*,[[:space:]]*[\"']($AXIS_NAMES)[\"']" \
    src/repro benchmarks tools \
    | grep -v '^src/repro/core/axes\.py:'; then
    echo "FAIL: literal axis-name tuple found outside src/repro/core/axes.py" >&2
    fail
else
    echo "axis lists derive from repro.core.axes only"
fi

section "hash-grid axes parity (local / store / cluster / adaptive)"
python - <<'PY' || fail
import tempfile

import numpy as np

from repro.api import DistributedBackend, Session, SweepGrid
from repro.core.dse import sweep_grid
from repro.store import ResultStore, tiered_sweep

grid = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    gridtypes=("hash", "tiled"),
    log2_hashmap_sizes=(14, 19),
    per_level_scales=(1.5, 2.0),
).resolve().normalized()
vec = sweep_grid(grid, engine="vectorized", use_cache=False)
assert vec.accelerated_ms.ndim == 11, vec.accelerated_ms.shape

stored = tiered_sweep(grid, store=ResultStore(tempfile.mkdtemp()))
np.testing.assert_array_equal(stored.accelerated_ms, vec.accelerated_ms)

session = Session.local(engine="vectorized")
adaptive = session.sweep(grid, explore="adaptive")
dense = session.sweep(grid, explore="exhaustive")
for sel in (
    {"gridtype": "hash", "log2_hashmap_size": 14, "per_level_scale": 2.0},
    {"gridtype": "tiled", "log2_hashmap_size": 19, "per_level_scale": 1.5},
):
    assert [p.to_dict() for p in adaptive.pareto(**sel)] == \
           [p.to_dict() for p in dense.pareto(**sel)]
    assert adaptive.cheapest(app="nerf", fps=30.0, **sel).to_dict() == \
           dense.cheapest(app="nerf", fps=30.0, **sel).to_dict()
    assert adaptive.cheapest(app="nerf", train_steps_per_s=1.0, **sel) \
        .to_dict() == \
        dense.cheapest(app="nerf", train_steps_per_s=1.0, **sel).to_dict()

backend = DistributedBackend(workers=2)
try:
    cluster = backend.sweep(grid)
    np.testing.assert_array_equal(cluster.accelerated_ms, vec.accelerated_ms)
finally:
    backend.close()
print(f"hash-grid parity ok: {grid.size}-point extended sweep bit-identical "
      f"across local, store-backed, cluster and adaptive paths")
PY

section "pickle ban (the frame transport owns the wire)"
if grep -rnE '^\s*(import pickle|from pickle)|pickle\.' src/repro/service/ --include='*.py'; then
    echo "FAIL: pickle import/call found under src/repro/service" >&2
    fail
else
    echo "no pickle imports or calls under src/repro/service"
fi

section "streaming gates (smoke)"
python benchmarks/bench_stream.py --quick || fail

section "sweep service smoke (serve + query + clean shutdown)"
python - <<'PY' || fail
import json, re, signal, subprocess, sys, http.client

proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", "0",
     "--engine", "vectorized"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    # skip any interpreter/library warnings until the banner shows up
    match = None
    for line in proc.stdout:
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match:
            break
    assert match, "server exited without printing a listening line"
    host, port = match.group(1), int(match.group(2))

    def post(path, payload):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request("POST", path, json.dumps(payload),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    grid = {"apps": ["nerf"], "scale_factors": [8, 16, 32, 64],
            "clocks_ghz": [0.8, 1.2, 1.695]}
    status, sweep = post("/sweep", {"grid": grid})
    assert status == 200 and sweep["ok"], sweep
    status, front = post("/pareto", {"grid": grid})
    assert status == 200 and front["result"], front

    # remote-backend Session round trip: same queries through the typed
    # facade, one keep-alive connection, parity vs the local backend
    import numpy as np
    from repro.api import InfeasibleQueryError, Session, SweepGrid

    remote = Session.remote(host=host, port=port)
    local = Session.local(engine="vectorized")
    api_grid = SweepGrid.from_dict(grid)
    remote_sweep = remote.sweep(api_grid)
    local_sweep = local.sweep(api_grid)
    np.testing.assert_allclose(
        remote_sweep.result.accelerated_ms,
        local_sweep.result.accelerated_ms, rtol=1e-9, atol=0.0,
    )
    assert [p.to_dict() for p in remote_sweep.pareto()] == \
           [p.to_dict() for p in local_sweep.pareto()]
    # the served result arrives as one binary frame (RemoteBackend asks
    # /result for it) and must equal the local result bit for bit
    from repro.api import RemoteBackend
    from repro.core.dse import RESULT_ARRAY_FIELDS
    backend = RemoteBackend(host=host, port=port)
    framed = backend.sweep(api_grid.resolve().normalized())
    backend.close()
    for name in RESULT_ARRAY_FIELDS:
        assert np.array_equal(getattr(framed, name),
                              getattr(local_sweep.result, name)), name
    hit = remote_sweep.cheapest(app="nerf", fps=30.0)
    try:
        remote_sweep.cheapest(app="nerf", fps=10.0**9)
    except InfeasibleQueryError:
        pass
    else:
        raise AssertionError("remote cheapest did not raise on infeasible")
    stats = remote.stats()
    assert stats["http"]["reused"] >= 1, stats["http"]
    remote.close()

    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=30)
    assert code == 0, f"server exited with {code}"
    print(f"service smoke ok: swept {sweep['result']['size']} points, "
          f"pareto front of {len(front['result'])} configs, "
          f"Session parity on {remote_sweep.size} points, "
          f"RemoteBackend frame bit-identical to local "
          f"(cheapest@30fps={hit.describe()}, infeasible raises, "
          f"{stats['http']['reused']} keep-alive reuses), clean shutdown")
finally:
    if proc.poll() is None:
        proc.kill()
PY

section "service ops suite (auth, quotas, metrics, drain)"
python -m pytest tests/test_service_ops.py -q || fail

section "service ops quota-isolation gates (smoke)"
python benchmarks/bench_service_ops.py --quick || fail

section "authenticated service smoke (tenants file + CLI key flow)"
python - <<'PY' || fail
import json, os, re, signal, subprocess, sys, tempfile, http.client

tenants = {"tenants": [
    {"name": "ci", "key": "ak-ci", "admin": True},
    {"name": "guest", "key": "ak-guest", "rate_per_s": 50},
]}
tmp = tempfile.mkdtemp()
tenants_path = os.path.join(tmp, "tenants.json")
with open(tenants_path, "w") as handle:
    json.dump(tenants, handle)

proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", "0",
     "--engine", "vectorized", "--tenants", tenants_path,
     "--max-cold-sweeps", "2"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    match = None
    for line in proc.stdout:
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match:
            break
    assert match, "server exited without printing a listening line"
    # the startup banner is a structured JSON log record now
    record = json.loads(line)
    assert record["event"] == "server.start" and record["tenants"] == 2
    host, port = match.group(1), int(match.group(2))

    def post(path, payload, key=None):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        try:
            conn.request("POST", path, json.dumps(payload), headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    grid = {"apps": ["nerf"], "scale_factors": [8, 16, 32, 64]}
    status, body = post("/pareto", {"grid": grid})
    assert status == 401 and body["error"]["code"] == "unauthenticated", body
    status, body = post("/pareto", {"grid": grid}, key="ak-guest")
    assert status == 200 and body["result"], body

    # the CLI key flow end to end: query + admin through `python -m repro`
    env = dict(os.environ)
    query = subprocess.run(
        [sys.executable, "-m", "repro", "query", "pareto",
         "--host", host, "--port", str(port), "--api-key", "ak-guest",
         "--sweep", "scale=8:16:32:64"],
        capture_output=True, text=True, env=env,
    )
    assert query.returncode == 0, query.stderr
    assert json.loads(query.stdout), "empty pareto front from the CLI"
    admin = subprocess.run(
        [sys.executable, "-m", "repro", "admin", "ops",
         "--host", host, "--port", str(port), "--api-key", "ak-ci"],
        capture_output=True, text=True, env=env,
    )
    assert admin.returncode == 0, admin.stderr
    ops = json.loads(admin.stdout)
    assert ops["tenants"]["tenants"] == 2, ops
    assert ops["admission"]["max_cold_sweeps"] == 2, ops

    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=30)
    assert code == 0, f"server exited with {code}"
    print(f"auth smoke ok: 401 without a key, pareto with one, CLI query "
          f"+ admin round trips, clean shutdown")
finally:
    if proc.poll() is None:
        proc.kill()
PY

echo
if [ "${#failures[@]}" -gt 0 ]; then
    echo "FAILED sections:" >&2
    printf '  - %s\n' "${failures[@]}" | uniq >&2
    exit 1
fi
echo "all sections passed"
