"""Prometheus text exposition for the serving stack (``GET /metrics``).

Two sources feed one scrape:

- **Per-tenant request telemetry** owned by :class:`ServiceMetrics`:
  ``repro_http_requests_total{tenant,status}``,
  ``repro_http_rejects_total{tenant,code}`` (the structured 401/403/429
  codes), and a ``repro_http_request_seconds`` latency histogram per
  tenant — cumulative ``le`` buckets plus ``_sum``/``_count`` in the
  standard shape, so fairness between tenants is a one-line PromQL
  quantile away.
- **The live ``/stats`` tree**, flattened mechanically: every numeric
  leaf becomes ``repro_<path_joined_by_underscores>`` (e.g.
  ``stats()["cache"]["ram_hits"]`` → ``repro_cache_ram_hits``), so any
  counter the stack keeps — cache tiers, coalescing, progress,
  cluster — is a first-class metric without anyone remembering to wire
  it.  Two shapes get labels instead of name explosions: per-sweep
  progress counters (``progress.<digest>.<field>`` →
  ``repro_sweep_<field>{sweep="<digest>"}``) and per-worker cluster
  counters (→ ``repro_cluster_workers_<field>{worker="<id>"}``), which
  keeps the metric-name set stable while sweeps and workers come and
  go.

Everything here renders in the exposition format version 0.0.4 (the
``text/plain; version=0.0.4`` content type Prometheus scrapes).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

#: what ``GET /metrics`` serves
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: latency buckets (seconds) — sub-ms cached reads up to ten-second sweeps
LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(parts: Iterable[str]) -> str:
    name = "repro_" + "_".join(str(p) for p in parts)
    name = _NAME_OK.sub("_", name)
    if name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(pairs.items())
    )
    return "{" + body + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Histogram:
    """One Prometheus histogram: cumulative buckets + sum + count."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...] = LATENCY_BUCKETS_S):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    def render(self, name: str, labels: Dict[str, str]) -> List[str]:
        lines = []
        for bound, cumulative in zip(self.buckets, self.counts):
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(float(bound))
            lines.append(f"{name}_bucket{_labels(bucket_labels)} {cumulative}")
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(f"{name}_bucket{_labels(inf_labels)} {self.count}")
        lines.append(f"{name}_sum{_labels(labels)} {_format_value(self.total)}")
        lines.append(f"{name}_count{_labels(labels)} {self.count}")
        return lines


class ServiceMetrics:
    """Per-tenant request counters and latency histograms."""

    def __init__(self):
        # (tenant, status) -> count
        self._requests: Dict[Tuple[str, int], int] = {}
        # (tenant, code) -> count, for structured rejections only
        self._rejects: Dict[Tuple[str, str], int] = {}
        # tenant -> latency histogram
        self._latency: Dict[str, Histogram] = {}

    def observe(
        self,
        tenant: str,
        status: int,
        wall_s: float,
        code: Optional[str] = None,
    ) -> None:
        status = int(status)
        self._requests[(tenant, status)] = (
            self._requests.get((tenant, status), 0) + 1
        )
        if status in (401, 403, 429):
            reject_code = code or str(status)
            self._rejects[(tenant, reject_code)] = (
                self._rejects.get((tenant, reject_code), 0) + 1
            )
        histogram = self._latency.get(tenant)
        if histogram is None:
            histogram = self._latency[tenant] = Histogram()
        histogram.observe(float(wall_s))

    def render(self) -> List[str]:
        lines = [
            "# HELP repro_http_requests_total Requests served, by tenant and status.",
            "# TYPE repro_http_requests_total counter",
        ]
        for (tenant, status), count in sorted(self._requests.items()):
            lines.append(
                "repro_http_requests_total"
                f"{_labels({'tenant': tenant, 'status': str(status)})} {count}"
            )
        lines += [
            "# HELP repro_http_rejects_total Auth/quota rejections, by tenant and error code.",
            "# TYPE repro_http_rejects_total counter",
        ]
        for (tenant, reject_code), count in sorted(self._rejects.items()):
            lines.append(
                "repro_http_rejects_total"
                f"{_labels({'tenant': tenant, 'code': reject_code})} {count}"
            )
        lines += [
            "# HELP repro_http_request_seconds Request wall time, by tenant.",
            "# TYPE repro_http_request_seconds histogram",
        ]
        for tenant in sorted(self._latency):
            lines += self._latency[tenant].render(
                "repro_http_request_seconds", {"tenant": tenant}
            )
        return lines

    def stats(self) -> Dict:
        """Compact numeric summary for the ``/stats`` ops section."""
        return {
            "requests": sum(self._requests.values()),
            "rejects": sum(self._rejects.values()),
            "tenants_seen": len(self._latency),
        }


def _emit(lines: List[str], parts: Tuple[str, ...], value) -> None:
    """One flattened stats leaf -> one sample line (with label rewrites)."""
    if parts and parts[0] == "progress" and len(parts) == 3:
        # progress.<digest>.<field> -> repro_sweep_<field>{sweep=digest}
        name = _metric_name(("sweep", parts[2]))
        labels = {"sweep": parts[1]}
    elif "workers" in parts and len(parts) >= 2 and parts.index("workers") < len(parts) - 2:
        # <...>.workers.<field>.<worker_id> -> repro_<...>_workers_<field>{worker=id}
        name = _metric_name(parts[:-1])
        labels = {"worker": parts[-1]}
    else:
        name = _metric_name(parts)
        labels = {}
    lines.append(f"{name}{_labels(labels)} {_format_value(value)}")


def _flatten(lines: List[str], parts: Tuple[str, ...], node) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(lines, parts + (str(key),), value)
    elif isinstance(node, (int, float, bool)):
        _emit(lines, parts, node)
    # strings / lists / None: identity fields, not samples — skipped


def render_stats_metrics(stats: Dict) -> List[str]:
    """Flatten the ``/stats`` tree's numeric leaves into sample lines."""
    lines: List[str] = [
        "# HELP repro_stats Numeric leaves of /stats, exported mechanically.",
    ]
    _flatten(lines, (), stats)
    return lines


def render(metrics: Optional[ServiceMetrics], stats: Dict) -> str:
    """The full ``GET /metrics`` body (trailing newline included)."""
    lines: List[str] = []
    if metrics is not None:
        lines += metrics.render()
    lines += render_stats_metrics(stats)
    return "\n".join(lines) + "\n"
