"""End-to-end harness for the multi-tenant service ops layer.

The acceptance surface of the operations layer:

- **Auth**: with a tenants file, a missing key is a structured 401
  (plus ``WWW-Authenticate: Bearer``), an unknown key a 403, and a
  valid key resolves the tenant; ``/healthz`` and ``/metrics`` stay
  reachable for probes and scrapers.
- **Hot reload**: editing the tenants file rotates keys and admission
  limits without a restart; a malformed edit keeps the previous config
  live instead of taking auth down.
- **Quotas**: per-tenant token buckets answer 429 ``rate-limited``
  with a computed ``Retry-After``; the global cold-sweep cap queues a
  burst and 429s (``overloaded``) beyond the bounded queue — while a
  second tenant's cached queries stay fast.
- **Fidelity**: sweep results served through auth + admission are
  bit-identical to the anonymous path.
- **Observability**: ``GET /metrics`` renders Prometheus text 0.0.4
  with per-tenant counters and latency histograms; the access log is
  one JSON object per line.
- **Rolling restarts**: ``POST /cluster/drain`` bumps the worker
  generation mid-sweep; old workers stop at their next poll, their
  in-flight completions still count, and the sweep finishes exactly.

No pytest-asyncio in the image: each test drives its own event loop via
``asyncio.run`` (which also exercises the admission controller's
loop-turnover reset).
"""

import asyncio
import io
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.dse import SweepGrid, sweep_grid
from repro.gpu.baseline import FHD_PIXELS
from repro.service import (
    OpsLayer,
    ServiceError,
    SweepService,
    SyncServiceClient,
    request_json,
    start_http_server,
)
from repro.service.ops import ANONYMOUS
from repro.service.ops.admission import AdmissionController, TokenBucket
from repro.service.ops.logging import JsonLogger
from repro.service.ops.tenants import Tenant, TenantRegistry

RTOL = 1e-9

SMALL_GRID = SweepGrid(apps=("nerf",), scale_factors=(8, 16, 32, 64))

TENANTS = {
    "tenants": [
        {"name": "ops", "key": "ak-ops", "admin": True},
        {"name": "acme", "key": "ak-acme", "rate_per_s": 1000.0},
        {"name": "slow", "key": "ak-slow", "rate_per_s": 1.0, "burst": 1},
    ]
}


def write_tenants(path, config=TENANTS):
    path.write_text(json.dumps(config))
    return str(path)


async def raw_request(port, method, path, api_key=None, payload=None):
    """One raw HTTP exchange returning (status, headers, body bytes).

    The typed clients hide response headers; the 401/429 contracts
    (``WWW-Authenticate``, ``Retry-After``) need the raw wire.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n")
        if api_key is not None:
            head += f"Authorization: Bearer {api_key}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        blob = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, rest = blob.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":  # not used by JSON
        raise AssertionError("unexpected chunked response")
    return status, headers, rest


# ---------------------------------------------------------------------------
# unit: token bucket + admission controller
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert 0.0 < wait <= 1.0 / 1000.0 + 1e-6
        time.sleep(wait + 0.002)
        assert bucket.try_acquire() == 0.0


class TestAdmissionController:
    def test_rate_limit_is_structured_with_retry_hint(self):
        controller = AdmissionController()
        tenant = Tenant(name="t", rate_per_s=2.0, burst=2)
        controller.check_rate(tenant)
        controller.check_rate(tenant)
        with pytest.raises(ServiceError) as excinfo:
            controller.check_rate(tenant)
        error = excinfo.value
        assert error.status == 429
        assert error.code == "rate-limited"
        assert error.details["tenant"] == "t"
        assert 0.0 < error.details["retry_after_s"] <= 0.5
        assert controller.rate_limited == 1
        # unlimited tenants never hit the bucket
        for _ in range(100):
            controller.check_rate(ANONYMOUS)

    def test_cold_cap_queues_then_rejects_then_hands_over(self):
        async def run():
            controller = AdmissionController(
                max_cold_sweeps=1, cold_queue_depth=1
            )
            first = await controller.acquire_cold()
            assert first.queued is False  # fast path never yielded
            queued_task = asyncio.ensure_future(controller.acquire_cold())
            await asyncio.sleep(0)  # the waiter is parked in the queue
            assert not queued_task.done()
            with pytest.raises(ServiceError) as excinfo:
                await controller.acquire_cold()  # queue full -> 429
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.details["retry_after_s"] == 1.0
            first()
            first()  # idempotent
            second = await queued_task  # slot handed over, not dropped
            assert second.queued is True
            assert controller.stats()["cold_active"] == 1
            second()
            assert controller.stats() == {
                "max_cold_sweeps": 1, "cold_queue_depth": 1,
                "cold_active": 0, "cold_waiting": 0,
                "cold_admitted": 2, "cold_queued": 1,
                "rate_limited": 0, "overloaded": 1,
            }

        asyncio.run(run())

    def test_uncapped_controller_is_a_noop(self):
        async def run():
            controller = AdmissionController(max_cold_sweeps=None)
            releases = [await controller.acquire_cold() for _ in range(64)]
            assert all(r.queued is False for r in releases)
            for release in releases:
                release()
            assert controller.stats()["cold_active"] == 0

        asyncio.run(run())

    def test_raised_cap_wakes_queued_waiters(self):
        async def run():
            controller = AdmissionController(
                max_cold_sweeps=1, cold_queue_depth=4
            )
            hold = await controller.acquire_cold()
            waiting = asyncio.ensure_future(controller.acquire_cold())
            await asyncio.sleep(0)
            assert not waiting.done()
            controller.configure(max_cold_sweeps=2)  # hot-reloaded limit
            release = await asyncio.wait_for(waiting, timeout=1.0)
            release()
            hold()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# unit: tenant registry (parse, auth split, hot reload)
# ---------------------------------------------------------------------------


class TestTenantRegistry:
    def test_authenticate_splits_401_and_403(self, tmp_path):
        registry = TenantRegistry(write_tenants(tmp_path / "tenants.json"))
        assert len(registry) == 3
        tenant = registry.authenticate("Bearer ak-acme")
        assert tenant.name == "acme" and tenant.admin is False
        assert registry.authenticate("Bearer ak-ops").admin is True
        for bad in (None, "", "Basic dXNlcg==", "Bearer "):
            with pytest.raises(ServiceError) as excinfo:
                registry.authenticate(bad)
            assert excinfo.value.status == 401
            assert excinfo.value.code == "unauthenticated"
        with pytest.raises(ServiceError) as excinfo:
            registry.authenticate("Bearer wrong-key")
        assert excinfo.value.status == 403
        assert excinfo.value.code == "forbidden"
        assert registry.auth_failures == 5

    def test_malformed_files_fail_fast_at_startup(self, tmp_path):
        cases = [
            {"tenants": []},
            {"tenants": [{"name": "a"}]},  # no key
            {"tenants": [{"name": "a", "key": "k"},
                         {"name": "a", "key": "k2"}]},  # dup name
            {"tenants": [{"name": "a", "key": "k"},
                         {"name": "b", "key": "k"}]},  # dup key
            {"tenants": [{"name": "a", "key": "k", "rate_per_s": -1}]},
            {"tenants": [{"name": "a", "key": "k"}],
             "limits": {"bogus": 1}},
        ]
        for index, config in enumerate(cases):
            path = tmp_path / f"bad{index}.json"
            with pytest.raises(ValueError):
                TenantRegistry(write_tenants(path, config))

    def test_mtime_poll_rotates_keys(self, tmp_path):
        path = tmp_path / "tenants.json"
        registry = TenantRegistry(write_tenants(path), poll_interval_s=0.0)
        rotated = {"tenants": [{"name": "acme", "key": "ak-rotated"}]}
        write_tenants(path, rotated)
        # force a distinct mtime even on coarse-grained filesystems
        os.utime(path, (time.time() + 2, time.time() + 2))
        assert registry.authenticate("Bearer ak-rotated").name == "acme"
        with pytest.raises(ServiceError):  # the old key is gone
            registry.authenticate("Bearer ak-acme")
        assert registry.reloads == 1 and registry.generation == 2

    def test_broken_reload_keeps_previous_config(self, tmp_path):
        path = tmp_path / "tenants.json"
        registry = TenantRegistry(write_tenants(path))
        path.write_text("{not json")
        registry.reload()
        assert registry.load_errors == 1
        assert registry.authenticate("Bearer ak-acme").name == "acme"
        # and a later good edit goes live again
        write_tenants(path, {"tenants": [{"name": "x", "key": "ak-x"}]})
        registry.reload()
        assert registry.authenticate("Bearer ak-x").name == "x"


class TestOpsLimits:
    def test_tenants_file_limits_override_and_fall_back(self, tmp_path):
        path = tmp_path / "tenants.json"
        config = dict(TENANTS, limits={"max_cold_sweeps": 2,
                                       "cold_queue_depth": 3})
        ops = OpsLayer(tenants_path=write_tenants(path, config),
                       max_cold_sweeps=8, cold_queue_depth=16)
        assert ops.admission.max_cold_sweeps == 2
        assert ops.admission.cold_queue_depth == 3
        write_tenants(path, TENANTS)  # the limits section is dropped
        ops.reload()
        # back to the CLI-level caps
        assert ops.admission.max_cold_sweeps == 8
        assert ops.admission.cold_queue_depth == 16


# ---------------------------------------------------------------------------
# unit: structured JSON logging
# ---------------------------------------------------------------------------


class TestJsonLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream, service="test")
        logger.info("server.start", "listening on http://127.0.0.1:1", port=1)
        logger.request("acme", "POST", "/pareto", 200, 12.5, streamed=False)
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        assert len(lines) == 2 and logger.lines == 2
        start, request = lines
        assert start["event"] == "server.start"
        assert start["message"] == "listening on http://127.0.0.1:1"
        assert start["port"] == 1 and start["level"] == "info"
        assert request["event"] == "http.request"
        assert request["tenant"] == "acme"
        assert request["status"] == 200
        assert request["wall_ms"] == 12.5

    def test_level_filter(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream, level="warning")
        logger.info("noise", "dropped")
        logger.error("boom", "kept")
        records = stream.getvalue().strip().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["event"] == "boom"

    def test_cluster_rpcs_log_at_debug(self):
        stream = io.StringIO()
        ops = OpsLayer(logger=JsonLogger(stream=stream, level="debug"))
        for path in ("/cluster/register", "/cluster/lease",
                     "/cluster/complete", "/pareto"):
            ops.observe(ANONYMOUS, "POST", path, 200, 0.001)
        levels = {
            record["path"]: record["level"]
            for record in map(json.loads, stream.getvalue().splitlines())
        }
        assert levels == {
            "/cluster/register": "debug", "/cluster/lease": "debug",
            "/cluster/complete": "debug", "/pareto": "info",
        }

    def test_embedded_distributed_session_writes_nothing(self, capfd):
        from repro.api import Session

        with Session.distributed(workers=1) as session:
            sweep = session.sweep(SweepGrid(apps=("gia",), scale_factors=(8, 64)))
            assert sweep.pareto()
        captured = capfd.readouterr()
        assert captured.out == ""
        assert "http.request" not in captured.err


# ---------------------------------------------------------------------------
# HTTP end to end: auth, headers, fidelity, metrics, healthz
# ---------------------------------------------------------------------------


class TestHTTPAuth:
    def test_auth_contract_over_the_wire(self, tmp_path):
        tenants = write_tenants(tmp_path / "tenants.json")
        grid = SMALL_GRID.to_dict()

        async def run():
            service = SweepService(engine="vectorized")
            ops = OpsLayer(tenants_path=tenants)
            server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
            port = server.port
            try:
                missing = await raw_request(port, "POST", "/pareto",
                                            payload={"grid": grid})
                wrong = await raw_request(port, "POST", "/pareto",
                                          api_key="nope",
                                          payload={"grid": grid})
                good = await raw_request(port, "POST", "/pareto",
                                         api_key="ak-acme",
                                         payload={"grid": grid})
                health = await raw_request(port, "GET", "/healthz")
                ready = await raw_request(port, "GET", "/healthz?ready=1")
                metrics = await raw_request(port, "GET", "/metrics")
                drain = await raw_request(port, "POST", "/cluster/drain",
                                          api_key="ak-acme")
                drain_admin = await raw_request(port, "POST", "/cluster/drain",
                                                api_key="ak-ops")
                return (missing, wrong, good, health, ready, metrics,
                        drain, drain_admin)
            finally:
                await server.close()

        (missing, wrong, good, health, ready, metrics,
         drain, drain_admin) = asyncio.run(run())

        status, headers, body = missing
        assert status == 401
        assert headers["www-authenticate"] == "Bearer"
        error = json.loads(body)["error"]
        assert error["code"] == "unauthenticated"

        status, _, body = wrong
        assert status == 403
        assert json.loads(body)["error"]["code"] == "forbidden"

        status, _, body = good
        payload = json.loads(body)
        assert status == 200 and payload["ok"] and payload["result"]

        # liveness and readiness stay open (no credentials on probes)
        status, _, body = health
        health_body = json.loads(body)
        assert status == 200 and health_body["ok"]
        assert health_body["version"]
        assert health_body["uptime_s"] >= 0.0
        assert health_body["ready"] is True
        status, _, _ = ready
        assert status == 200  # a ready server passes the readiness probe

        # the scrape endpoint is public by default (in-perimeter scrapers)
        status, headers, body = metrics
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert 'repro_http_requests_total{status="200",tenant="acme"} 1' \
            in text
        assert 'repro_http_rejects_total{code="unauthenticated",' \
            'tenant="anonymous"} 1' in text
        assert "repro_http_request_seconds_bucket" in text
        assert 'repro_http_request_seconds_count{tenant="acme"} 1' in text
        assert "repro_evaluations 1" in text  # flattened /stats counters

        # the operator verb is admin-gated; this server has no cluster
        status, _, body = drain
        assert status == 403
        error = json.loads(body)["error"]
        assert error["code"] == "forbidden" and error["tenant"] == "acme"
        status, _, body = drain_admin
        assert status == 404
        assert json.loads(body)["error"]["code"] == "no-cluster"

    def test_sweep_through_auth_is_bit_identical_to_anonymous(self, tmp_path):
        tenants = write_tenants(tmp_path / "tenants.json")

        def fetch(port, api_key):
            with SyncServiceClient(port=port, api_key=api_key) as client:
                return client.fetch_result(SMALL_GRID.to_dict())

        async def serve(ops, api_key):
            service = SweepService(engine="vectorized")
            server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
            try:
                return await asyncio.to_thread(fetch, server.port, api_key)
            finally:
                await server.close()

        authed = asyncio.run(serve(
            OpsLayer(tenants_path=tenants, max_cold_sweeps=1), "ak-acme"
        ))
        anonymous = asyncio.run(serve(None, None))
        np.testing.assert_array_equal(
            authed.accelerated_ms, anonymous.accelerated_ms
        )
        np.testing.assert_array_equal(
            authed.baseline_ms, anonymous.baseline_ms
        )
        direct = sweep_grid(authed.grid, engine="vectorized", use_cache=False)
        np.testing.assert_allclose(
            authed.accelerated_ms, direct.accelerated_ms, rtol=RTOL, atol=0.0
        )

    def test_key_rotation_hot_reloads_over_http(self, tmp_path):
        path = tmp_path / "tenants.json"
        tenants = write_tenants(path)

        async def run():
            service = SweepService(engine="vectorized")
            ops = OpsLayer(tenants_path=tenants)
            server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
            port = server.port
            try:
                before, _, _ = await raw_request(port, "GET", "/stats",
                                                 api_key="ak-acme")
                write_tenants(path, {"tenants": [
                    {"name": "acme", "key": "ak-v2"}
                ]})
                server.ops.reload()  # what the SIGHUP handler calls
                revoked, _, _ = await raw_request(port, "GET", "/stats",
                                                  api_key="ak-acme")
                rotated, _, _ = await raw_request(port, "GET", "/stats",
                                                  api_key="ak-v2")
                return before, revoked, rotated
            finally:
                await server.close()

        before, revoked, rotated = asyncio.run(run())
        assert before == 200
        assert revoked == 403
        assert rotated == 200


def keep_alive_exchanges(ops, requests):
    """Serve ``requests`` ((method, path, headers, body) tuples) in order
    on one keep-alive connection; returns the (status, Content-Type)
    replies, whether every one came back on the first socket, and the
    server's ``http`` counters."""
    import http.client

    service = SweepService(engine="vectorized")

    def exchange(port):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        replies, sockets = [], []
        try:
            for method, path, headers, body in requests:
                connection.request(method, path, body, headers)
                response = connection.getresponse()
                response.read()
                replies.append(
                    (response.status, response.getheader("Content-Type"))
                )
                sockets.append(connection.sock)  # None once closed
        finally:
            connection.close()
        return replies, all(sock is sockets[0] for sock in sockets) \
            and sockets[0] is not None

    async def run():
        server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
        try:
            return await asyncio.to_thread(exchange, server.port)
        finally:
            await server.close()

    replies, same_socket = asyncio.run(run())
    return replies, same_socket, dict(service.http)


class TestOneResponseWriter:
    def test_each_response_kind_logs_one_line_and_keeps_the_socket(
        self, tmp_path
    ):
        from repro.transport import FRAME_CONTENT_TYPE

        stream = io.StringIO()
        ops = OpsLayer(
            tenants_path=write_tenants(tmp_path / "tenants.json"),
            logger=JsonLogger(stream=stream, level="debug"),
        )
        body = json.dumps({"grid": SMALL_GRID.to_dict()})
        acme = {"Authorization": "Bearer ak-acme"}
        requests = [
            ("POST", "/pareto", {}, body),
            ("POST", "/pareto", acme, body),
            ("POST", "/result", {**acme, "Accept": FRAME_CONTENT_TYPE}, body),
            ("GET", "/metrics", {}, None),
            ("POST", "/cluster/lease", {}, b""),
        ]
        replies, same_socket, counters = keep_alive_exchanges(ops, requests)
        assert [status for status, _ in replies] == [401, 200, 200, 200, 404]
        assert replies[2][1] == FRAME_CONTENT_TYPE
        assert replies[3][1].startswith("text/plain; version=0.0.4")
        assert same_socket
        assert counters == {"connections": 1, "requests": 5, "reused": 4}
        lines = [
            record for record in map(json.loads, stream.getvalue().splitlines())
            if record["event"] == "http.request"
        ]
        assert [
            (r["path"], r["status"], r.get("code")) for r in lines
        ] == [
            ("/pareto", 401, "unauthenticated"),
            ("/pareto", 200, None),
            ("/result", 200, None),
            ("/metrics", 200, None),
            ("/cluster/lease", 404, "no-cluster"),
        ]

    def test_disabled_metrics_is_one_logged_404(self):
        stream = io.StringIO()
        ops = OpsLayer(
            metrics_enabled=False, logger=JsonLogger(stream=stream),
        )
        body = json.dumps({"grid": SMALL_GRID.to_dict()})
        replies, same_socket, counters = keep_alive_exchanges(ops, [
            ("GET", "/metrics", {}, None),
            ("POST", "/pareto", {}, body),
        ])
        assert [status for status, _ in replies] == [404, 200]
        assert same_socket
        assert counters == {"connections": 1, "requests": 2, "reused": 1}
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [
            (r["path"], r["status"], r.get("code")) for r in lines
        ] == [("/metrics", 404, "unknown-endpoint"), ("/pareto", 200, None)]


class TestRateLimitHTTP:
    def test_429_carries_retry_after_header(self, tmp_path):
        tenants = write_tenants(tmp_path / "tenants.json")

        async def run():
            service = SweepService(engine="vectorized")
            ops = OpsLayer(tenants_path=tenants)
            server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
            port = server.port
            try:
                # "slow" has rate 1/s, burst 1: the second request is dry
                first = await raw_request(port, "POST", "/pareto",
                                          api_key="ak-slow",
                                          payload={"grid":
                                                   SMALL_GRID.to_dict()})
                second = await raw_request(port, "POST", "/pareto",
                                           api_key="ak-slow",
                                           payload={"grid":
                                                    SMALL_GRID.to_dict()})
                # rate-exempt monitoring endpoints still answer
                stats = await raw_request(port, "GET", "/stats",
                                          api_key="ak-slow")
                return first, second, stats
            finally:
                await server.close()

        first, second, stats = asyncio.run(run())
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        error = json.loads(body)["error"]
        assert error["code"] == "rate-limited"
        assert error["tenant"] == "slow"
        assert error["retry_after_s"] > 0.0
        assert stats[0] == 200
        ops_stats = json.loads(stats[2])["result"]["ops"]
        assert ops_stats["admission"]["rate_limited"] == 1
        assert ops_stats["tenants"]["tenants"] == 3


class TestQuotaFairness:
    def test_flooded_cold_slots_leave_cached_queries_fast(self):
        """One tenant saturating the cold-sweep cap + queue gets a 429
        ``overloaded``; a cached pareto query still answers quickly."""
        cold_grids = [
            SweepGrid(apps=("nerf",), scale_factors=(8,),
                      clocks_ghz=(0.8 + i * 0.1,))
            for i in range(3)
        ]

        def slow_cold(grid, engine="vectorized", ngpc=None, on_block=None):
            result = sweep_grid(grid, engine="vectorized", ngpc=ngpc,
                                use_cache=False)
            time.sleep(0.4)
            return result

        def cold(port, grid):
            with SyncServiceClient(port=port) as other:
                return other.sweep_summary(grid.to_dict())

        def flood_and_query(port):
            warm = SMALL_GRID.to_dict()
            with SyncServiceClient(port=port) as client, \
                    ThreadPoolExecutor(len(cold_grids)) as pool:
                # warm the query grid before the flood (pays one slow cold)
                client.sweep_summary(warm)
                flood = []
                for grid in cold_grids:  # staggered: slot, queue, reject
                    flood.append(pool.submit(cold, port, grid))
                    time.sleep(0.05)
                start = time.perf_counter()
                front = client.pareto_front(warm)
                cached_s = time.perf_counter() - start
                outcomes = [future.exception() or future.result()
                            for future in flood]
                return cached_s, front, outcomes

        async def run():
            service = SweepService(engine="vectorized", sweep_fn=slow_cold)
            ops = OpsLayer(max_cold_sweeps=1, cold_queue_depth=1)
            server = await start_http_server(service, "127.0.0.1", 0, ops=ops)
            try:
                cached_s, front, outcomes = await asyncio.to_thread(
                    flood_and_query, server.port
                )
                return cached_s, front, outcomes, service.stats()
            finally:
                await server.close()

        cached_s, front, outcomes, stats = asyncio.run(run())
        assert front, "cached query answered nothing"
        assert cached_s < 0.3, (
            f"cached query took {cached_s * 1000:.0f} ms under flood"
        )
        rejected = [o for o in outcomes if isinstance(o, ServiceError)]
        completed = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(completed) == 2, outcomes  # slot + queued both finish
        assert len(rejected) == 1, outcomes  # beyond the queue: 429
        assert rejected[0].status == 429
        assert rejected[0].code == "overloaded"
        assert stats["ops"]["admission"]["overloaded"] == 1
        assert stats["ops"]["admission"]["cold_queued"] == 1
        assert stats["ops"]["admission"]["cold_active"] == 0


# ---------------------------------------------------------------------------
# rolling cluster restarts
# ---------------------------------------------------------------------------


class TestDrainGenerations:
    def test_drain_stops_old_generation_and_keeps_inflight_blocks(self):
        """The lease/complete contract across a drain: an old-generation
        worker's in-flight completion still counts (no lost block), its
        next poll says stop, and a new registration joins generation 2."""
        from repro.core.dse import assemble_shard_blocks, evaluate_block
        from repro.service.cluster import ShardCoordinator

        grid = SweepGrid(apps=("nerf",), scale_factors=(8, 16))

        async def run():
            coordinator = ShardCoordinator(poll_timeout_s=5.0)
            await coordinator.start()
            old = coordinator._register({})["worker_id"]
            plan = coordinator._plan(grid.resolve())
            job = asyncio.ensure_future(
                coordinator.submit([task for _, task in plan])
            )
            await asyncio.sleep(0)
            lease = await coordinator._lease({"worker_id": old})
            assert "task" in lease

            drain = await coordinator.drain()
            assert drain["generation"] == 2
            assert drain["previous_generation"] == 1
            assert drain["draining_workers"] == 1
            assert drain["leases_outstanding"] == 1

            # the in-flight completion lands (first-result-wins, not lost)
            reply = await coordinator._complete({
                "worker_id": old, "job_id": lease["job_id"],
                "task_id": lease["task_id"],
                "arrays": evaluate_block(lease["task"]),
            })
            assert reply["accepted"] is True
            # ... and the drained worker's next poll is a stop
            stop = await coordinator._lease({"worker_id": old})
            assert stop == {"stop": True, "reason": "drained"}

            # a fresh worker joins the new generation and drains the rest
            registration = coordinator._register({})
            assert registration["generation"] == 2
            fresh = registration["worker_id"]
            while not job.done():
                lease = await coordinator._lease({"worker_id": fresh})
                if "task" not in lease:
                    continue
                await coordinator._complete({
                    "worker_id": fresh, "job_id": lease["job_id"],
                    "task_id": lease["task_id"],
                    "arrays": evaluate_block(lease["task"]),
                })
            blocks = await job
            stats = coordinator.stats()
            await coordinator.close()
            return plan, blocks, stats

        plan, blocks, stats = asyncio.run(run())
        assert stats["generation"] == 2 and stats["drains"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["blocks"]["completed"] >= 2
        arrays = assemble_shard_blocks(
            grid.resolve(),
            [(placement, block) for (placement, _), block in zip(plan, blocks)],
        )
        direct = sweep_grid(grid.resolve(), engine="vectorized",
                            use_cache=False)
        np.testing.assert_array_equal(
            arrays["accelerated_ms"], direct.accelerated_ms
        )

    def test_drain_wakes_parked_long_pollers(self):
        """An idle old-generation worker parked in the lease long-poll
        must get its stop on drain's notify, not after the poll timeout."""
        from repro.service.cluster import ShardCoordinator

        async def run():
            coordinator = ShardCoordinator(poll_timeout_s=30.0)
            await coordinator.start()
            worker = coordinator._register({})["worker_id"]
            poller = asyncio.ensure_future(
                coordinator._lease({"worker_id": worker})
            )
            await asyncio.sleep(0.05)  # parked on the condition
            assert not poller.done()
            await coordinator.drain()
            lease = await asyncio.wait_for(poller, timeout=2.0)
            await coordinator.close()
            return lease

        lease = asyncio.run(run())
        assert lease == {"stop": True, "reason": "drained"}


def _coordinator_stats(backend):
    """Coordinator stats read on its event loop (no cross-thread race)."""
    async def collect():
        return backend.coordinator.stats()

    return backend._run(collect)


def _wait_for(backend, condition, timeout_s=30.0):
    """Poll the coordinator's block counters until ``condition`` holds."""
    deadline = time.monotonic() + timeout_s
    while not condition(_coordinator_stats(backend)["blocks"]):
        assert time.monotonic() < deadline, _coordinator_stats(backend)
        time.sleep(0.01)


class TestRollingRestartEndToEnd:
    def test_drain_mid_sweep_with_real_workers_finishes_exactly(self):
        """POST /cluster/drain against a live 2-worker cluster mid-sweep:
        the old workers exit 0, replacements finish the sweep, and the
        result is bit-identical to a local evaluation (nothing lost,
        nothing double-counted)."""
        from repro.api import DistributedBackend, Session
        from repro.service.cluster import spawn_local_workers, terminate_workers

        grid = SweepGrid(
            apps=("nerf", "gia"),
            scale_factors=(8, 16, 32, 64),
            clocks_ghz=(0.8, 1.2, 1.695),
            grid_sram_kb=(512, 1024),
            n_batches=(8, 16),
        )
        backend = DistributedBackend(
            workers=2, lease_timeout_s=1.0, block_delay_s=0.4
        )
        replacements = []
        try:
            old_workers = list(backend._workers)
            holder = {}
            thread = threading.Thread(
                target=lambda: holder.update(
                    result=backend.sweep(grid.resolve().normalized())
                )
            )
            thread.start()
            # drain only once both workers hold a lease and blocks are
            # still queued for the replacements to take over
            _wait_for(backend, lambda blocks: (
                blocks["leased"] == 2 and blocks["queued"] > 0
            ))
            before = set(_coordinator_stats(backend)["workers"]
                         ["blocks_completed"])

            status, body = request_json(
                "127.0.0.1", backend.port, "POST", "/cluster/drain"
            )
            assert status == 200 and body["ok"], body
            drain = body["result"]
            assert drain["generation"] == 2
            assert drain["previous_generation"] == 1
            assert drain["draining_workers"] == 2

            # generation-2 replacements join the same port and take over
            replacements = spawn_local_workers(
                "127.0.0.1", backend.port, 2
            )
            thread.join(timeout=120)
            assert not thread.is_alive(), "sweep did not survive the drain"

            local = Session.local(engine="vectorized").sweep(grid).result
            np.testing.assert_array_equal(
                holder["result"].accelerated_ms, local.accelerated_ms
            )
            np.testing.assert_array_equal(
                holder["result"].baseline_ms, local.baseline_ms
            )

            # the drained workers exit cleanly on their own
            deadline = time.monotonic() + 20
            while (time.monotonic() < deadline
                   and any(p.poll() is None for p in old_workers)):
                time.sleep(0.1)
            assert [p.poll() for p in old_workers] == [0, 0]

            stats = _coordinator_stats(backend)
            assert stats["generation"] == 2
            assert stats["drains"] == 1
            assert stats["jobs"]["completed"] == 1
            assert stats["jobs"]["inflight"] == 0
            # a worker registered after the drain did real work
            completed = stats["workers"]["blocks_completed"]
            assert any(
                n >= 1 for worker, n in completed.items()
                if worker not in before
            ), completed
        finally:
            terminate_workers(replacements)
            backend.close()
