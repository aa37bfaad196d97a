"""Backend-parity harness for the ``repro.api`` Session facade.

The acceptance surface of the API redesign:

- **Parity**: one scenario suite (sweep records, Pareto front, cheapest
  config, point lookups, the scalar fast path, ambiguous-axis errors)
  runs against a :class:`~repro.api.LocalBackend` and a live
  :class:`~repro.api.RemoteBackend` and must produce identical payloads
  to 1e-9 relative — the dense arrays bit-identically, since JSON
  shortest-repr round-trips float64 exactly.
- **One exception hierarchy**: every failure mode derives from
  :class:`~repro.errors.ReproError`, and the ambiguous-axis error names
  its axis identically on both backends.
- **Keep-alive**: a remote session reuses one connection across
  requests, observable in the service's ``/stats`` counters.
- **Schema negotiation**: payloads are stamped with ``schema_version``;
  an unsupported requested version is a structured 400.
- **GridBuilder**: fluent spellings canonicalize to the same
  :class:`~repro.core.dse.SweepGrid` + fingerprint as the hand-built
  grid, and invalid axes fail at the call site.
- **Facade purity**: the CLI's design-space commands import only
  ``repro.api`` — never ``sweep_grid``/``ServiceClient`` directly.
- **Dense at every size**: a grid past the old adaptive threshold is
  evaluated densely by the default ``explore="auto"`` and answers
  exactly as ``sweep_grid`` does; ``explore="adaptive"`` is rejected.

No pytest-asyncio in the image: the remote service runs on its own
event-loop thread (module-scoped), and sessions talk to it through the
blocking keep-alive client exactly as production callers do.
"""

import asyncio
import inspect
import json
import threading

import numpy as np
import pytest

from repro.api import (
    PAYLOAD_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    AmbiguousAxisError,
    BackendUnavailableError,
    Grid,
    InfeasibleQueryError,
    LocalBackend,
    RemoteBackend,
    ReproError,
    ServiceError,
    Session,
    SweepGrid,
    as_sweep_grid,
    sweep_fingerprint,
)
from repro.core.dse import SweepResult
from repro.gpu.baseline import FHD_PIXELS
from repro.service import SweepService, start_http_server
from repro.service.client import SyncServiceClient, request_json

RTOL = 1e-9

#: the shared parity design space: two workload axes + three
#: architecture axes, 96 points — every query kind has something to bite
PARITY_GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)


# ---------------------------------------------------------------------------
# live service + sessions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_service():
    """A real HTTP sweep service on its own event-loop thread."""
    started = threading.Event()
    holder = {}

    def serve():
        async def main():
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0)
            holder["port"] = server.port
            holder["service"] = service
            holder["server"] = server
            holder["stop"] = asyncio.Event()
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await holder["stop"].wait()
            await server.close()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    yield holder
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def remote_session(live_service):
    session = Session.remote(port=live_service["port"])
    yield session
    session.close()


@pytest.fixture
def local_session():
    return Session.local(engine="vectorized")


@pytest.fixture(scope="module")
def distributed_session():
    """A live 2-worker shard cluster behind the Session facade."""
    session = Session.distributed(workers=2)
    yield session
    session.close()


# ---------------------------------------------------------------------------
# the scenario suite (each returns a JSON-comparable payload)
# ---------------------------------------------------------------------------


def scenario_sweep_summary(session):
    sweep = session.sweep(PARITY_GRID)
    return {"grid": sweep.grid.to_dict(), "shape": list(sweep.grid.shape),
            "size": sweep.size}


def scenario_records(session):
    return session.sweep(PARITY_GRID).records(limit=24)


def scenario_pareto_average(session):
    return [p.to_dict() for p in session.sweep(PARITY_GRID).pareto()]


def scenario_pareto_per_app(session):
    return [p.to_dict() for p in session.sweep(PARITY_GRID).pareto(app="nerf")]


def scenario_cheapest(session):
    return session.sweep(PARITY_GRID).cheapest(app="nerf", fps=60.0).to_dict()


def scenario_cheapest_unreachable(session):
    """Infeasible cheapest: the identical structured error, every backend."""
    with pytest.raises(InfeasibleQueryError) as excinfo:
        session.sweep(PARITY_GRID).cheapest(app="gia", fps=10.0**9)
    exc = excinfo.value
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "app": exc.app,
        "fps": exc.fps,
        "n_pixels": exc.n_pixels,
        "scheme": exc.scheme,
        "best_fps": exc.best_fps,
    }


def scenario_grid_point(session):
    point = session.sweep(PARITY_GRID).point(
        app="gia", scale_factor=16, clock_ghz=1.2, grid_sram_kb=512,
        n_batches=8,
    )
    return {"accelerated_ms": point.accelerated_ms,
            "baseline_ms": point.baseline_ms,
            "speedup": point.speedup, "fps": point.fps}


def scenario_scalar_point(session):
    point = session.point(app="nerf", scheme="multi_res_hashgrid",
                          scale_factor=8, n_pixels=FHD_PIXELS)
    return {"accelerated_ms": point.accelerated_ms,
            "baseline_ms": point.baseline_ms, "speedup": point.speedup}


SCENARIOS = {
    "sweep_summary": scenario_sweep_summary,
    "records": scenario_records,
    "pareto_average": scenario_pareto_average,
    "pareto_per_app": scenario_pareto_per_app,
    "cheapest": scenario_cheapest,
    "cheapest_unreachable": scenario_cheapest_unreachable,
    "grid_point": scenario_grid_point,
    "scalar_point": scenario_scalar_point,
}


def assert_payloads_equal(local, remote, path="$"):
    """Recursive structural equality with 1e-9 relative floats."""
    assert type(local) is type(remote), f"{path}: {type(local)} vs {type(remote)}"
    if isinstance(local, dict):
        assert local.keys() == remote.keys(), f"{path}: key sets differ"
        for key in local:
            assert_payloads_equal(local[key], remote[key], f"{path}.{key}")
    elif isinstance(local, (list, tuple)):
        assert len(local) == len(remote), f"{path}: lengths differ"
        for i, (a, b) in enumerate(zip(local, remote)):
            assert_payloads_equal(a, b, f"{path}[{i}]")
    elif isinstance(local, float):
        assert local == pytest.approx(remote, rel=RTOL), f"{path} differs"
    else:
        assert local == remote, f"{path}: {local!r} != {remote!r}"


class TestBackendParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_payloads_identical(
        self, name, local_session, remote_session
    ):
        scenario = SCENARIOS[name]
        assert_payloads_equal(scenario(local_session), scenario(remote_session))

    def test_dense_arrays_bit_identical(self, local_session, remote_session):
        local = local_session.sweep(PARITY_GRID).result
        remote = remote_session.sweep(PARITY_GRID).result
        assert remote.grid == local.grid
        for name in ("baseline_ms", "accelerated_ms", "amdahl_bound",
                     "area_overhead_pct", "power_overhead_pct"):
            np.testing.assert_allclose(
                getattr(remote, name), getattr(local, name), rtol=RTOL, atol=0.0
            )
            # JSON shortest-repr round-trips float64 exactly
            np.testing.assert_array_equal(
                getattr(remote, name), getattr(local, name)
            )

    def test_ambiguous_axis_identical_on_both_backends(
        self, local_session, remote_session
    ):
        errors = []
        for session in (local_session, remote_session):
            with pytest.raises(AmbiguousAxisError) as excinfo:
                session.sweep(PARITY_GRID).point(app="nerf", scale_factor=8)
            errors.append(excinfo.value)
        local_err, remote_err = errors
        assert local_err.axis == remote_err.axis == "clock_ghz"
        assert local_err.values == remote_err.values
        assert str(local_err) == str(remote_err)
        for err in errors:
            assert isinstance(err, ReproError)
            assert isinstance(err, KeyError)  # legacy contract

    def test_respelled_grid_is_one_cache_entry_on_both_backends(
        self, local_session, remote_session, live_service
    ):
        respelled = SweepGrid(
            apps=tuple(reversed(PARITY_GRID.apps)),
            scale_factors=(64, 8, 32, 16, 8),
            clocks_ghz=tuple(reversed(PARITY_GRID.clocks_ghz)),
            grid_sram_kb=PARITY_GRID.grid_sram_kb,
            n_batches=PARITY_GRID.n_batches,
        )
        # local: the second spelling hits the sweep memo, not a re-eval
        first = local_session.sweep(PARITY_GRID)
        hits_before = local_session.stats()["cache"]["hits"]
        second = local_session.sweep(respelled)
        assert second.result is first.result
        assert local_session.stats()["cache"]["hits"] == hits_before + 1
        # remote: the service evaluates the fingerprint exactly once
        service = live_service["service"]
        remote_session.sweep(PARITY_GRID)
        evaluations = service.evaluations
        remote_session.sweep(respelled)
        assert service.evaluations == evaluations

    def test_scalar_point_matches_grid_point(self, local_session):
        scalar = local_session.point(app="nerf", scale_factor=8)
        grid = local_session.sweep(
            SweepGrid(apps=("nerf",), scale_factors=(8,))
        ).point()
        assert scalar.accelerated_ms == pytest.approx(
            grid.accelerated_ms, rel=RTOL
        )


class TestDistributedBackendParity:
    """The same scenario suite, local vs a live 2-worker shard cluster."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_payloads_identical(
        self, name, local_session, distributed_session
    ):
        scenario = SCENARIOS[name]
        assert_payloads_equal(
            scenario(local_session), scenario(distributed_session)
        )

    def test_dense_arrays_bit_identical(
        self, local_session, distributed_session
    ):
        local = local_session.sweep(PARITY_GRID).result
        distributed = distributed_session.sweep(PARITY_GRID).result
        assert distributed.grid == local.grid
        assert distributed.engine == "cluster"
        for name in ("baseline_ms", "accelerated_ms", "amdahl_bound",
                     "area_overhead_pct", "power_overhead_pct"):
            np.testing.assert_allclose(
                getattr(distributed, name), getattr(local, name),
                rtol=RTOL, atol=0.0,
            )
            # pickled float64 blocks round-trip exactly
            np.testing.assert_array_equal(
                getattr(distributed, name), getattr(local, name)
            )

    def test_ambiguous_axis_identical_on_both_backends(
        self, local_session, distributed_session
    ):
        errors = []
        for session in (local_session, distributed_session):
            with pytest.raises(AmbiguousAxisError) as excinfo:
                session.sweep(PARITY_GRID).point(app="nerf", scale_factor=8)
            errors.append(excinfo.value)
        local_err, distributed_err = errors
        assert local_err.axis == distributed_err.axis == "clock_ghz"
        assert local_err.values == distributed_err.values
        assert str(local_err) == str(distributed_err)
        for err in errors:
            assert isinstance(err, ReproError)
            assert isinstance(err, KeyError)  # legacy contract

    def test_respelled_grid_is_one_evaluation(self, distributed_session):
        respelled = SweepGrid(
            apps=tuple(reversed(PARITY_GRID.apps)),
            scale_factors=(64, 8, 32, 16, 8),
            clocks_ghz=tuple(reversed(PARITY_GRID.clocks_ghz)),
            grid_sram_kb=PARITY_GRID.grid_sram_kb,
            n_batches=PARITY_GRID.n_batches,
        )
        backend = distributed_session.backend
        distributed_session.sweep(PARITY_GRID)
        evaluations = backend.service.evaluations
        distributed_session.sweep(respelled)
        assert backend.service.evaluations == evaluations


# ---------------------------------------------------------------------------
# the registry extension axes, across every backend
# ---------------------------------------------------------------------------

#: a hash-grid design space: the new encoding axis swept through the
#: registry, answered via local, remote and cluster execution alike
HASHGRID_PARITY_GRID = SweepGrid(
    apps=("nerf",),
    scale_factors=(8, 32),
    gridtypes=("hash",),
    log2_hashmap_sizes=(14, 19, 22),
)


class TestHashGridAxisParity:
    """Sweeping ``log2_hashmap_size`` answers identically everywhere."""

    def test_dense_arrays_bit_identical_on_all_backends(
        self, local_session, remote_session, distributed_session
    ):
        local = local_session.sweep(HASHGRID_PARITY_GRID).result
        assert local.accelerated_ms.ndim == 11  # extended layout
        for session in (remote_session, distributed_session):
            other = session.sweep(HASHGRID_PARITY_GRID).result
            assert other.grid == local.grid
            for name in ("baseline_ms", "accelerated_ms", "speedup",
                         "area_overhead_pct", "train_steps_per_s"):
                np.testing.assert_array_equal(
                    getattr(other, name), getattr(local, name), err_msg=name
                )

    def test_swept_hashmap_axis_must_be_selected(
        self, local_session, remote_session, distributed_session
    ):
        errors = []
        for session in (local_session, remote_session, distributed_session):
            sweep = session.sweep(HASHGRID_PARITY_GRID)
            with pytest.raises(AmbiguousAxisError) as excinfo:
                sweep.point(app="nerf", scale_factor=8)
            errors.append(excinfo.value)
        assert {e.axis for e in errors} == {"log2_hashmap_size"}
        assert len({str(e) for e in errors}) == 1

    def test_point_and_pareto_agree_per_table_size(
        self, local_session, remote_session, distributed_session
    ):
        payloads = []
        for session in (local_session, remote_session, distributed_session):
            sweep = session.sweep(HASHGRID_PARITY_GRID)
            point = sweep.point(
                app="nerf", scale_factor=8, log2_hashmap_size=14
            )
            payloads.append({
                "point": {"accelerated_ms": point.accelerated_ms,
                          "baseline_ms": point.baseline_ms,
                          "speedup": point.speedup},
                "front": [
                    p.to_dict() for p in sweep.pareto(log2_hashmap_size=19)
                ],
            })
        assert_payloads_equal(payloads[0], payloads[1])
        assert_payloads_equal(payloads[0], payloads[2])

    def test_cheapest_train_rate_parity(
        self, local_session, remote_session, distributed_session
    ):
        hits, errors = [], []
        for session in (local_session, remote_session, distributed_session):
            sweep = session.sweep(HASHGRID_PARITY_GRID)
            hits.append(sweep.cheapest(
                app="nerf", train_steps_per_s=1.0, log2_hashmap_size=19
            ).to_dict())
            with pytest.raises(InfeasibleQueryError) as excinfo:
                sweep.cheapest(
                    app="nerf", train_steps_per_s=10.0**12,
                    log2_hashmap_size=19,
                )
            errors.append(excinfo.value)
        assert_payloads_equal(hits[0], hits[1])
        assert_payloads_equal(hits[0], hits[2])
        assert len({str(e) for e in errors}) == 1
        assert {e.steps_per_s for e in errors} == {10.0**12}
        assert len({e.best_rate for e in errors}) == 1


# ---------------------------------------------------------------------------
# keep-alive connection reuse
# ---------------------------------------------------------------------------


class TestKeepAlive:
    def test_remote_session_reuses_one_connection(
        self, live_service, remote_session
    ):
        service = live_service["service"]
        before = dict(service.http)
        sweep = remote_session.sweep(PARITY_GRID)
        sweep2 = remote_session.sweep(PARITY_GRID)
        remote_session.point(app="nerf", scale_factor=8)
        remote_session.stats()
        after = remote_session.stats()["http"]
        assert sweep2.size == sweep.size
        # five requests, one connection: four+ reuses counted server-side
        assert after["connections"] == before["connections"] + 1
        assert after["reused"] >= before["reused"] + 4
        client = remote_session.backend._client
        assert client.connections_opened == 1
        assert client.reuses >= 4

    def test_stale_connection_reconnects_transparently(self, live_service):
        session = Session.remote(port=live_service["port"])
        try:
            session.stats()
            # simulate an idle drop: the *server* closes the keep-alive
            # connection between requests (the retryable signature)
            dropped = threading.Event()
            server = live_service["server"]

            def drop():
                for writer in list(server._connections):
                    writer.close()
                dropped.set()

            live_service["loop"].call_soon_threadsafe(drop)
            assert dropped.wait(timeout=5)
            stats = session.stats()  # must reconnect, not raise
            assert stats["engine"] == "vectorized"
            assert session.backend._client.connections_opened == 2
        finally:
            session.close()

    def test_unavailable_backend_raises_structured_error(self):
        session = Session.remote(port=1)  # nothing listens on port 1
        with pytest.raises(BackendUnavailableError) as excinfo:
            session.stats()
        assert excinfo.value.port == 1
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ConnectionError)  # legacy contract


# ---------------------------------------------------------------------------
# payload schema versioning
# ---------------------------------------------------------------------------


class TestSchemaVersion:
    def test_payload_round_trip_is_stamped(self, local_session):
        payload = local_session.sweep(PARITY_GRID).result.to_payload()
        assert payload["schema_version"] == PAYLOAD_SCHEMA_VERSION
        rebuilt = SweepResult.from_payload(payload)
        np.testing.assert_array_equal(
            rebuilt.accelerated_ms,
            local_session.sweep(PARITY_GRID).result.accelerated_ms,
        )

    def test_unstamped_payload_reads_as_v1(self, local_session):
        payload = local_session.sweep(PARITY_GRID).result.to_payload()
        del payload["schema_version"]
        rebuilt = SweepResult.from_payload(payload)
        assert rebuilt.grid == PARITY_GRID.normalized().resolve()

    def test_unsupported_payload_version_rejected(self, local_session):
        payload = local_session.sweep(PARITY_GRID).result.to_payload()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="unsupported payload schema"):
            SweepResult.from_payload(payload)

    def test_server_negotiates_schema_version(self, live_service):
        port = live_service["port"]
        with SyncServiceClient(port=port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request(
                    "POST", "/sweep",
                    {"grid": {"apps": ["nerf"]}, "schema_version": 99},
                )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unsupported-schema"
        assert excinfo.value.details["supported"] == list(
            SUPPORTED_SCHEMA_VERSIONS
        )

    def test_every_response_envelope_is_stamped(self, live_service):
        port = live_service["port"]
        status, body = request_json("127.0.0.1", port, "GET", "/healthz")
        assert status == 200
        assert body["schema_version"] == PAYLOAD_SCHEMA_VERSION
        status, body = request_json("127.0.0.1", port, "POST", "/nonsense", {})
        assert status == 404
        assert body["schema_version"] == PAYLOAD_SCHEMA_VERSION


# ---------------------------------------------------------------------------
# the fluent GridBuilder
# ---------------------------------------------------------------------------


class TestGridBuilder:
    def test_fluent_spelling_canonicalizes_to_sweep_grid(self):
        built = (
            Grid()
            .app("nerf", "gia")
            .scheme("multi_res_hashgrid")
            .scale(8, 16, 32, 64)
            .clock(0.8, 1.2, 1.695)
            .sram(512, 1024)
            .batches(8, 16)
            .build()
        )
        assert built == PARITY_GRID
        assert sweep_fingerprint(built) == sweep_fingerprint(PARITY_GRID)

    def test_range_expansion(self):
        grid = Grid().clock(0.8, 1.2, n=5).build()
        assert grid.clocks_ghz == (0.8, 0.9, 1.0, 1.1, 1.2)
        pixels = Grid().pixels(1000, 2000, n=3).build().pixel_counts
        assert pixels == (1000, 1500, 2000)

    def test_eager_validation_at_the_call_site(self):
        with pytest.raises(ValueError, match="unknown app"):
            Grid().app("dlss")
        with pytest.raises(ValueError, match="power of two|scale"):
            Grid().scale(7)
        with pytest.raises(ValueError, match="at least one value"):
            Grid().clock()
        with pytest.raises(ValueError, match="n must be at least 2"):
            Grid().clock(0.8, 1.2, n=1)
        with pytest.raises(ValueError, match="2"):
            Grid().clock(0.8, 1.0, 1.2, n=5)

    def test_axis_cannot_be_silently_respecified(self):
        with pytest.raises(ValueError, match="already set"):
            Grid().scale(8).scale(16)

    def test_as_sweep_grid_accepts_every_spelling(self):
        builder = Grid().app("nerf").scale(8, 16)
        from_builder = as_sweep_grid(builder)
        from_dict = as_sweep_grid({"apps": ["nerf"], "scale_factors": [8, 16]})
        assert from_builder == from_dict == as_sweep_grid(from_builder)
        assert as_sweep_grid(None) == SweepGrid()
        with pytest.raises(TypeError, match="grid must be"):
            as_sweep_grid(42)

    def test_repr_names_the_set_axes(self):
        assert "scale_factors=(8,)" in repr(Grid().scale(8))

    def test_range_expansion_deduplicates_rounded_values(self):
        # 5 samples over [1000, 1002] round onto 3 distinct pixel counts;
        # a duplicated axis value would sweep (and double-count) the same
        # design points twice
        pixels = Grid().pixels(1000, 1002, n=5).build().pixel_counts
        assert pixels == (1000, 1001, 1002)
        assert len(set(pixels)) == len(pixels)
        # de-duplicated grids build (the duplicate would also have upset
        # record counts downstream)
        grid = Grid().app("nerf").pixels(2000, 2002, n=4).build()
        assert grid.pixel_counts == (2000, 2001, 2002)

    def test_range_collapsing_below_two_values_fails_at_call_site(self):
        with pytest.raises(ValueError, match="collapses"):
            Grid().pixels(1000, 1000, n=3)
        with pytest.raises(ValueError, match="collapses"):
            # every sample rounds to the same integer
            Grid().pixels(1000, 1000.4, n=5)
        # floats do not round, so a tight clock range is fine
        assert len(Grid().clock(1.0, 1.0001, n=3).build().clocks_ghz) == 3


# ---------------------------------------------------------------------------
# unified exception hierarchy + deprecated shims
# ---------------------------------------------------------------------------


class TestExceptionHierarchy:
    def test_every_facade_error_is_a_repro_error(self):
        from repro.api import NotOnGridError

        assert issubclass(AmbiguousAxisError, ReproError)
        assert issubclass(NotOnGridError, ReproError)
        assert issubclass(InfeasibleQueryError, ReproError)
        assert issubclass(ServiceError, ReproError)
        assert issubclass(BackendUnavailableError, ReproError)
        # and the legacy contracts are preserved
        assert issubclass(AmbiguousAxisError, KeyError)
        assert issubclass(NotOnGridError, KeyError)
        assert issubclass(InfeasibleQueryError, LookupError)
        assert issubclass(BackendUnavailableError, ConnectionError)

    def test_value_off_the_grid_is_structured(self, local_session):
        from repro.api import NotOnGridError

        sweep = local_session.sweep(PARITY_GRID)
        with pytest.raises(NotOnGridError, match="scale_factor=12"):
            sweep.point(app="nerf", scale_factor=12, clock_ghz=0.8,
                        grid_sram_kb=512, n_batches=8)
        with pytest.raises(NotOnGridError, match="clock_ghz=9.9"):
            sweep.point(app="nerf", scale_factor=8, clock_ghz=9.9,
                        grid_sram_kb=512, n_batches=8)
        with pytest.raises(NotOnGridError, match="app='bogus'"):
            sweep.pareto(app="bogus")

    def test_unknown_engine_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Session.local(engine="gpu")


HASHGRID = "multi_res_hashgrid"

#: (path, query, args, kwargs, axis): one off-grid selector per case, on
#: the dense, streamed (partial) and Session facade query paths
OFF_GRID_QUERIES = [
    ("dense", "pareto_front", ("bogus",), {}, "scheme"),
    ("dense", "pareto_front", (HASHGRID,), {"app": "bogus"}, "app"),
    ("dense", "pareto_front", (HASHGRID,), {"n_pixels": 7}, "n_pixels"),
    ("dense", "cheapest_point_meeting_fps", ("bogus", 60.0),
     {"scheme": HASHGRID}, "app"),
    ("partial", "pareto_front", ("bogus",), {}, "scheme"),
    ("partial", "pareto_front", (HASHGRID,), {"app": "bogus"}, "app"),
    ("partial", "pareto_front", (HASHGRID,), {"n_pixels": 7}, "n_pixels"),
    ("session", "pareto", ("bogus",), {}, "scheme"),
    ("session", "pareto", (HASHGRID,), {"app": "bogus"}, "app"),
    ("session", "pareto", (HASHGRID,), {"n_pixels": 7}, "n_pixels"),
    ("session", "cheapest", ("bogus", 60.0), {"scheme": HASHGRID}, "app"),
]


class TestOffGridSelectors:
    @pytest.mark.parametrize(
        "path, query, args, kwargs, axis", OFF_GRID_QUERIES,
        ids=[f"{c[0]}-{c[1]}-{c[4]}" for c in OFF_GRID_QUERIES],
    )
    def test_structured_not_on_grid_error(self, path, query, args, kwargs,
                                          axis):
        from repro.api import NotOnGridError
        from repro.core.dse import sweep_grid
        from repro.service.progress import PartialSweep

        # normalized: the layout the Session facade answers in
        grid = PARITY_GRID.resolve().normalized()
        target = {
            "dense": lambda: sweep_grid(grid),
            "partial": lambda: PartialSweep(grid, None),
            "session": lambda: Session.local().sweep(grid),
        }[path]()
        with pytest.raises(NotOnGridError) as err:
            getattr(target, query)(*args, **kwargs)
        assert err.value.axis == axis
        assert err.value.values == {
            "scheme": grid.schemes, "app": grid.apps,
            "n_pixels": grid.pixel_counts,
        }[axis]
        assert str(err.value).startswith(f"{axis}=")


# ---------------------------------------------------------------------------
# dense answers at every grid size
# ---------------------------------------------------------------------------


#: 131,072 points: the size at which explore="auto" used to stop
#: evaluating densely
BIG_GRID = SweepGrid(
    scale_factors=tuple(2 ** i for i in range(8)),
    clocks_ghz=tuple(0.5 + 0.05 * i for i in range(8)),
    grid_sram_kb=tuple(2 ** (4 + i) for i in range(8)),
    n_engines=tuple(2 ** i for i in range(8)),
    n_batches=tuple(2 ** i for i in range(8)),
)


class TestDenseAtEverySize:
    @pytest.fixture(scope="class")
    def big(self):
        from repro.core.dse import sweep_grid

        sweep = Session().sweep(BIG_GRID)  # default explore="auto"
        return sweep, sweep_grid(sweep.grid, use_cache=False)

    def test_large_default_sweep_is_dense(self, big):
        sweep, _ = big
        assert sweep.size >= 131_072
        assert sweep.explore == "exhaustive"
        assert sweep.explore_stats is None
        assert isinstance(sweep.result, SweepResult)

    def test_answers_equal_the_dense_reference(self, big):
        sweep, ref = big
        grid = sweep.grid
        for app in (None,) + grid.apps:
            assert [p.to_dict() for p in sweep.pareto(app=app)] == \
                [p.to_dict() for p in ref.pareto_front(HASHGRID, app=app)]
        for app in grid.apps:
            assert sweep.cheapest(app=app, fps=30.0).to_dict() == \
                ref.cheapest_point_meeting_fps(app, 30.0).to_dict()
            assert sweep.cheapest(app=app, train_steps_per_s=1.0).to_dict() \
                == ref.cheapest_point_meeting_train_rate(app, 1.0).to_dict()
        axes = dict(scale_factor=16, clock_ghz=grid.clocks_ghz[3],
                    grid_sram_kb=256, n_engines=8, n_batches=4)
        assert sweep.point(app="gia", **axes) == ref.point(
            "gia", HASHGRID, n_pixels=FHD_PIXELS, **axes
        )

    def test_unreachable_fps_raises_structured_error(self, big):
        sweep, ref = big
        with pytest.raises(InfeasibleQueryError) as excinfo:
            sweep.cheapest(app="nerf", fps=10.0 ** 9)
        exc = excinfo.value
        best = float(1000.0 / ref.accelerated_ms[ref.grid.apps.index("nerf")]
                     .min())
        assert (exc.app, exc.fps, exc.n_pixels, exc.scheme, exc.best_fps) \
            == ("nerf", 10.0 ** 9, FHD_PIXELS, HASHGRID, best)
        assert str(exc).startswith("no configuration on the grid reaches")

    @pytest.mark.parametrize("mode", ["adaptive", "greedy"])
    def test_any_other_explore_mode_is_rejected(self, mode):
        for session in (Session(), Session.remote(port=1)):  # no IO yet
            with session, pytest.raises(
                ValueError, match="adaptive explorer was removed"
            ):
                session.sweep(PARITY_GRID, explore=mode)

    def test_exhaustive_is_the_same_dense_sweep(self, local_session):
        auto = local_session.sweep(PARITY_GRID)
        exhaustive = local_session.sweep(PARITY_GRID, explore="exhaustive")
        assert auto.result is exhaustive.result


#: multi-app, multi-scheme, tie-rich: every query kind has something to
#: bite through the facade
GOLDEN_GRID = SweepGrid(
    apps=("nerf", "gia"),
    schemes=(HASHGRID, "multi_res_densegrid"),
    scale_factors=(8, 16, 32, 64),
    clocks_ghz=(0.8, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
)

#: reachable, marginal and unreachable rendering targets
FPS_TARGETS = (1.0, 30.0, 60.0, 240.0, 10.0 ** 9)


def points_dicts(points):
    return [p.to_dict() for p in points]


class TestDenseGoldenEquality:
    """Every Session answer equals the dense ``sweep_grid`` reference,
    tie-breaks and the structured infeasible error included."""

    @pytest.fixture(scope="class")
    def golden(self):
        from repro.core.dse import sweep_grid

        sweep = Session.local(engine="vectorized").sweep(GOLDEN_GRID)
        return sweep, sweep_grid(sweep.grid, use_cache=False)

    @pytest.mark.parametrize("scheme", GOLDEN_GRID.schemes)
    def test_pareto_fronts_identical(self, golden, scheme):
        sweep, ref = golden
        for n_pixels in ref.grid.pixel_counts:
            for app in (None,) + ref.grid.apps:
                got = sweep.pareto(scheme=scheme, n_pixels=n_pixels, app=app)
                want = ref.pareto_front(scheme, n_pixels=n_pixels, app=app)
                assert points_dicts(got) == points_dicts(want), (n_pixels, app)

    @pytest.mark.parametrize("fps", FPS_TARGETS)
    def test_cheapest_identical_including_infeasible(self, golden, fps):
        sweep, ref = golden
        grid = ref.grid
        for i, app in enumerate(grid.apps):
            for j, scheme in enumerate(grid.schemes):
                want = ref.cheapest_point_meeting_fps(app, fps, scheme=scheme)
                if want is not None:
                    got = sweep.cheapest(app=app, fps=fps, scheme=scheme)
                    assert got.to_dict() == want.to_dict(), (app, scheme)
                    continue
                with pytest.raises(InfeasibleQueryError) as excinfo:
                    sweep.cheapest(app=app, fps=fps, scheme=scheme)
                exc = excinfo.value
                assert (exc.app, exc.fps, exc.n_pixels, exc.scheme) == \
                    (app, fps, FHD_PIXELS, scheme)
                # best_fps is the exact dense maximum (same float)
                assert exc.best_fps == float(ref.fps[i, j, :, 0].max())

    def test_point_identical(self, golden):
        sweep, ref = golden
        axes = dict(clock_ghz=1.695, grid_sram_kb=512, n_batches=8)
        got = sweep.point(app="gia", scheme="multi_res_densegrid",
                          scale_factor=16, **axes)
        want = ref.point("gia", "multi_res_densegrid", 16,
                         ref.grid.pixel_counts[0], **axes)
        assert got == want

    def test_lazy_result_equals_the_dense_reference(self, golden):
        _, ref = golden
        lazy = Session.local(engine="vectorized").sweep(GOLDEN_GRID, lazy=True)
        np.testing.assert_array_equal(lazy.result.accelerated_ms,
                                      ref.accelerated_ms)
        assert lazy.records(limit=5) == ref.to_records(limit=5)

    def test_infeasible_error_identical_across_explore_modes(self):
        session = Session.local(engine="vectorized")
        payloads = []
        for mode in ("auto", "exhaustive"):
            sweep = session.sweep(GOLDEN_GRID, explore=mode)
            with pytest.raises(InfeasibleQueryError) as excinfo:
                sweep.cheapest(app="gia", fps=10.0 ** 9, scheme=HASHGRID)
            exc = excinfo.value
            payloads.append((str(exc), exc.app, exc.fps, exc.n_pixels,
                             exc.scheme, exc.best_fps))
        assert payloads[0] == payloads[1]

    def test_respelled_grid_shares_one_evaluation(self, local_session):
        respelled = SweepGrid(
            apps=tuple(reversed(GOLDEN_GRID.apps)),
            schemes=tuple(reversed(GOLDEN_GRID.schemes)),
            scale_factors=(64, 8, 32, 16),
            clocks_ghz=(1.695, 0.8),
            grid_sram_kb=GOLDEN_GRID.grid_sram_kb,
            n_batches=GOLDEN_GRID.n_batches,
        )
        sweep = local_session.sweep(GOLDEN_GRID)
        again = local_session.sweep(respelled)
        assert again.grid == sweep.grid
        assert again.result is sweep.result

    def test_fresh_session_over_warm_store_evaluates_nothing(self, tmp_path):
        store_dir = str(tmp_path / "results")
        warm = Session.local(use_cache=False, store=store_dir)
        sweep = warm.sweep(GOLDEN_GRID)
        front = points_dicts(sweep.pareto(scheme=HASHGRID))
        hit = sweep.cheapest(app="nerf", fps=60.0, scheme=HASHGRID).to_dict()
        assert warm.stats()["cache"]["evaluations"] == 1

        # a new session over the same directory answers identically from
        # the persisted sweep alone
        cold = Session.local(use_cache=False, store=store_dir)
        sweep2 = cold.sweep(GOLDEN_GRID)
        assert points_dicts(sweep2.pareto(scheme=HASHGRID)) == front
        assert sweep2.cheapest(app="nerf", fps=60.0,
                               scheme=HASHGRID).to_dict() == hit
        cache = cold.stats()["cache"]
        assert (cache["evaluations"], cache["disk_hits"]) == (0, 1)


# ---------------------------------------------------------------------------
# facade purity + CLI end to end against a live service
# ---------------------------------------------------------------------------


class TestFacadeConsumers:
    def test_cli_imports_only_the_facade(self):
        import repro.cli

        source = inspect.getsource(repro.cli)
        assert "sweep_grid" not in source
        assert "ServiceClient" not in source
        assert "request_json" not in source

    def test_cli_query_round_trip(self, live_service, capsys):
        from repro.cli import main

        port = str(live_service["port"])
        assert main(["query", "pareto", "--port", port]) == 0
        front = json.loads(capsys.readouterr().out)
        assert front and all("scale_factor" in p for p in front)

        assert main(["query", "stats", "--port", port]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert {"connections", "requests", "reused"} <= set(stats["http"])

        assert main(["query", "cheapest", "--app", "nerf", "--fps", "60",
                     "--port", port]) == 0
        cheapest = json.loads(capsys.readouterr().out)
        assert cheapest["scale_factor"] == 8

    def test_cli_query_structured_error_and_unreachable(
        self, live_service, capsys
    ):
        from repro.cli import main

        # cheapest without --app on a 4-app grid: ambiguous-axis payload
        assert main(["query", "cheapest", "--fps", "60",
                     "--port", str(live_service["port"])]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["axis"] == "app"
        # nothing listening: a friendly pointer, exit 1
        assert main(["query", "stats", "--port", "1"]) == 1
        assert "repro serve" in capsys.readouterr().err

    def test_report_design_space_section_uses_facade(self):
        from repro.analysis import report

        source = inspect.getsource(report)
        assert "Session" in source and "sweep_grid(" not in source

    def test_backend_protocol_is_pluggable(self, local_session):
        class RecordingBackend(LocalBackend):
            name = "recording"

            def __init__(self):
                super().__init__(engine="vectorized")
                self.sweeps = 0

            def sweep(self, grid):
                self.sweeps += 1
                return super().sweep(grid)

        backend = RecordingBackend()
        session = Session(backend)
        sweep = session.sweep(PARITY_GRID)
        assert backend.sweeps == 1
        assert sweep.backend == "recording"
        np.testing.assert_array_equal(
            sweep.result.accelerated_ms,
            local_session.sweep(PARITY_GRID).result.accelerated_ms,
        )

    def test_remote_backend_is_injectable(self, live_service):
        client = SyncServiceClient(port=live_service["port"])
        session = Session(RemoteBackend(client=client))
        try:
            assert session.sweep(PARITY_GRID).size == PARITY_GRID.size
            assert client.connections_opened == 1
        finally:
            session.close()


class TestSchemaDriftedPointRecord:
    """RemoteBackend.point against a server missing result fields."""

    class _DriftedClient:
        """A stub SyncServiceClient whose /point record lost fields."""

        def __init__(self, drop):
            self.drop = drop

        def point(self, grid, **selectors):
            import dataclasses

            from repro.core.dse import EmulationResult

            record = {
                field.name: 1.0
                for field in dataclasses.fields(EmulationResult)
            }
            record.update(app="nerf", scheme="multi_res_hashgrid",
                          scale_factor=8, n_pixels=FHD_PIXELS)
            for name in self.drop:
                record.pop(name)
            return record

        def close(self):
            pass

    def test_missing_fields_raise_structured_service_error(self):
        backend = RemoteBackend(
            client=self._DriftedClient(drop=("amdahl_bound", "dma_ms"))
        )
        with pytest.raises(ServiceError) as excinfo:
            backend.point("nerf", "multi_res_hashgrid", 8, FHD_PIXELS)
        error = excinfo.value
        assert error.status == 502
        assert error.code == "bad-response"
        assert error.details["missing"] == ["dma_ms", "amdahl_bound"]
        assert "amdahl_bound" in str(error) and "dma_ms" in str(error)
        assert isinstance(error, ReproError)

    def test_complete_record_still_builds_the_result(self):
        backend = RemoteBackend(client=self._DriftedClient(drop=()))
        result = backend.point("nerf", "multi_res_hashgrid", 8, FHD_PIXELS)
        assert result.app == "nerf"
        assert result.scale_factor == 8
