"""Operations layer for the sweep service: auth, quotas, metrics, logs.

:class:`OpsLayer` is the one object the HTTP server consults per
request.  It bundles the pieces that turn the single-anonymous-tenant
server into an operable multi-tenant one:

- a :class:`~repro.service.ops.tenants.TenantRegistry` (optional —
  without a tenants file everything runs as the ``anonymous`` admin
  tenant, preserving the zero-config dev workflow),
- an :class:`~repro.service.ops.admission.AdmissionController`
  (per-tenant token buckets + the global cold-sweep cap, hooked into
  :class:`~repro.service.sweep_service.SweepService` via its
  ``admission`` attribute),
- :class:`~repro.service.ops.metrics.ServiceMetrics` backing
  ``GET /metrics``,
- a :class:`~repro.service.ops.logging.JsonLogger` for the structured
  access/lifecycle log.

The request path is: ``authenticate()`` (bearer key → tenant, with the
liveness/scrape/worker-wire exemptions) → ``admit()`` (token-bucket
debit) → handler → ``observe()`` (metrics + access log).  The tenants
file hot-reloads on mtime change or SIGHUP; its optional ``limits``
section re-parameterizes the admission controller on every reload.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

from repro.service.errors import ServiceError
from repro.service.ops.admission import AdmissionController, TokenBucket
from repro.service.ops.logging import JsonLogger
from repro.service.ops.metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    ServiceMetrics,
    render as render_metrics_text,
)
from repro.service.ops.tenants import (
    ANONYMOUS,
    CURRENT_TENANT,
    Tenant,
    TenantRegistry,
)

__all__ = [
    "ANONYMOUS",
    "CURRENT_TENANT",
    "AdmissionController",
    "JsonLogger",
    "METRICS_CONTENT_TYPE",
    "OpsLayer",
    "ServiceMetrics",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
]

#: read-only monitoring endpoints that never debit a token bucket —
#: health probes and scrapers must not starve under a tenant's own load
_RATE_EXEMPT = {"/healthz", "/metrics", "/stats"}


class OpsLayer:
    """Auth + admission + observability, consulted once per request."""

    def __init__(
        self,
        tenants_path: Optional[str] = None,
        metrics_enabled: bool = True,
        metrics_public: bool = True,
        max_cold_sweeps: Optional[int] = None,
        cold_queue_depth: int = 16,
        logger: Optional[JsonLogger] = None,
    ):
        self.registry = (
            TenantRegistry(tenants_path) if tenants_path is not None else None
        )
        self.admission = AdmissionController(
            max_cold_sweeps=max_cold_sweeps,
            cold_queue_depth=cold_queue_depth,
        )
        self.metrics = ServiceMetrics() if metrics_enabled else None
        self.metrics_public = metrics_public
        self.logger = logger if logger is not None else JsonLogger()
        self._started = time.monotonic()
        self._service = None
        self._cluster = None
        # CLI-level caps; the tenants file's ``limits`` override them and
        # a reload that drops ``limits`` falls back to these
        self._base_max_cold = max_cold_sweeps
        self._base_queue_depth = int(cold_queue_depth)
        self._applied_generation = -1
        self._apply_limits()

    # -- wiring ---------------------------------------------------------------
    def attach(self, service, cluster=None) -> None:
        """Wire into a SweepService (+ optional coordinator)."""
        self._service = service
        self._cluster = cluster
        service.admission = self.admission
        service.stats_extra["ops"] = self.stats

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def ready(self) -> bool:
        """Readiness (vs liveness): is the engine able to serve sweeps?"""
        if self._service is None:
            return False
        if self._cluster is not None and not getattr(
            self._cluster, "is_ready", True
        ):
            return False
        return True

    def _apply_limits(self) -> None:
        """Re-parameterize admission from the tenants file's ``limits``."""
        if self.registry is None:
            return
        if self.registry.generation == self._applied_generation:
            return
        self._applied_generation = self.registry.generation
        limits = self.registry.limits
        self.admission.max_cold_sweeps = limits.get(
            "max_cold_sweeps", self._base_max_cold
        )
        self.admission.cold_queue_depth = limits.get(
            "cold_queue_depth", self._base_queue_depth
        )
        self.admission.configure()  # wake queued waiters if the cap rose

    def reload(self) -> None:
        """Force a tenants-file re-read now (the SIGHUP handler)."""
        if self.registry is None:
            return
        self.registry.reload()
        self._apply_limits()
        self.logger.info(
            "tenants.reload",
            f"tenants file {self.registry.path} reloaded",
            tenants=len(self.registry),
            generation=self.registry.generation,
            load_errors=self.registry.load_errors,
        )

    # -- request path ----------------------------------------------------------
    def authenticate(
        self, method: str, path: str, headers: Mapping[str, str]
    ) -> Tenant:
        """Resolve the request's tenant (raising structured 401/403).

        Exempt from auth even when a tenants file is loaded:

        - ``/healthz`` — liveness probes never carry credentials,
        - ``/metrics`` when ``metrics_public`` (in-perimeter scrapers),
        - the ``/cluster/*`` worker wire protocol *except*
          ``/cluster/drain`` (workers authenticate by network position
          like every cluster transport here; drain is an operator verb).
        """
        if path == "/healthz":
            return ANONYMOUS
        if path == "/metrics" and self.metrics_public:
            return ANONYMOUS
        if path.startswith("/cluster/") and path != "/cluster/drain":
            return ANONYMOUS
        if self.registry is None:
            return ANONYMOUS
        tenant = self.registry.authenticate(headers.get("authorization"))
        self._apply_limits()  # maybe_reload may have bumped the generation
        return tenant

    def admit(self, tenant: Tenant, method: str, path: str) -> None:
        """Debit the tenant's token bucket (429 ``rate-limited`` when dry)."""
        if path in _RATE_EXEMPT:
            return
        self.admission.check_rate(tenant)

    def require_admin(self, tenant: Tenant, verb: str) -> None:
        """Gate operator verbs (403 ``forbidden`` for plain tenants)."""
        if not tenant.admin:
            raise ServiceError(
                403, "forbidden",
                f"{verb} requires an admin tenant",
                tenant=tenant.name,
            )

    def observe(
        self,
        tenant: Tenant,
        method: str,
        path: str,
        status: int,
        wall_s: float,
        code: Optional[str] = None,
        **fields,
    ) -> None:
        """Record one served request: metrics sample + access-log line.

        The line is at info, except for the workers' ``/cluster/*``
        RPCs (register, lease, complete), which are the cluster's own
        traffic and log at debug.
        """
        if self.metrics is not None:
            self.metrics.observe(tenant.name, status, wall_s, code=code)
        if code is not None:
            fields["code"] = code
        level = "debug" if path.startswith("/cluster/") else "info"
        self.logger.request(
            tenant.name, method, path, status, wall_s * 1000.0, level=level,
            **fields,
        )

    # -- rendering ---------------------------------------------------------------
    def render_metrics(self) -> str:
        """The ``GET /metrics`` body (tenant telemetry + flattened /stats)."""
        stats = self._service.stats() if self._service is not None else {}
        return render_metrics_text(self.metrics, stats)

    def healthz(self, version: str) -> Dict:
        """The liveness/readiness body served by ``GET /healthz``."""
        ready = self.ready
        return {
            "ok": True,
            "status": "healthy",
            "version": version,
            "uptime_s": round(self.uptime_s, 3),
            "ready": ready,
        }

    def stats(self) -> Dict:
        """The ``ops`` section mounted into ``/stats``."""
        out: Dict = {
            "uptime_s": round(self.uptime_s, 3),
            "ready": self.ready,
            "admission": self.admission.stats(),
            "log_lines": self.logger.lines,
        }
        if self.registry is not None:
            out["tenants"] = self.registry.stats()
        if self.metrics is not None:
            out["http_metrics"] = self.metrics.stats()
        return out
