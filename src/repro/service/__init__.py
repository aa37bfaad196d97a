"""Async query service over the batched DSE engine.

The step from batch tool toward a serving system: a coalescing,
LRU-cached asyncio front end (:class:`SweepService`) exposed in-process
and over a stdlib HTTP JSON API (:mod:`repro.service.http`), with a
blocking keep-alive client (:mod:`repro.service.client`, the one HTTP
client routine the cluster workers run on too) and a multi-host shard
cluster (:mod:`repro.service.cluster`) that leases block tasks to
worker processes on any machine.  CLI entry points: ``python -m repro
serve`` (``--engine cluster`` mounts a coordinator), ``repro worker``
and ``python -m repro query``.
"""

from repro.service.client import SyncServiceClient, request_json
from repro.service.cluster import ShardCoordinator, run_worker
from repro.service.errors import ServiceError, as_service_error
from repro.service.http import SweepHTTPServer, run_server, start_http_server
from repro.service.ops import (
    AdmissionController,
    JsonLogger,
    OpsLayer,
    Tenant,
    TenantRegistry,
)
from repro.service.sweep_service import SweepService

__all__ = [
    "AdmissionController",
    "JsonLogger",
    "OpsLayer",
    "ServiceError",
    "ShardCoordinator",
    "SweepHTTPServer",
    "SweepService",
    "SyncServiceClient",
    "Tenant",
    "TenantRegistry",
    "as_service_error",
    "request_json",
    "run_server",
    "run_worker",
    "start_http_server",
]
