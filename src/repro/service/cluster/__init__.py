"""Distributed multi-host sweep backend: shard coordinator + workers.

The block task tuples of :func:`repro.core.dse.shard_plan` are
self-contained, value-keyed work units; this package ships them across
hosts.  A :class:`ShardCoordinator` queues a sweep's blocks (through a
:class:`ClusterBlockRunner`) and leases them over HTTP (``/cluster/*``
endpoints, mounted next to the JSON service by
:mod:`repro.service.http`) to any number of
``python -m repro worker`` processes — local or remote — which
evaluate each block vectorized under the calibration its lease names and
stream the block columns back; :func:`repro.core.dse.run_plan` assembles
them into one :class:`~repro.core.dse.SweepResult` exactly as it does a
local evaluation.  Leases expire and re-queue on
worker death, so a sweep survives losing workers mid-flight.  Every
body on the wire is a versioned binary frame (:mod:`repro.transport`);
nothing in the protocol pickles received bytes.

:class:`repro.api.DistributedBackend` embeds a coordinator (plus
optionally spawned local workers) behind the standard four-method
backend contract; ``repro serve --engine cluster`` mounts one behind
the coalescing HTTP sweep service, so identical sweeps from many
client hosts share one distributed evaluation.
"""

from repro.service.cluster.coordinator import (
    BLOCKS_PER_WORKER,
    ClusterBlockRunner,
    ShardCoordinator,
)
from repro.service.cluster.worker import (
    ClusterClient,
    run_worker,
    spawn_local_workers,
    terminate_workers,
)
from repro.transport import FRAME_CONTENT_TYPE, decode_message, encode_message

__all__ = [
    "BLOCKS_PER_WORKER",
    "ClusterBlockRunner",
    "FRAME_CONTENT_TYPE",
    "ClusterClient",
    "ShardCoordinator",
    "decode_message",
    "encode_message",
    "run_worker",
    "spawn_local_workers",
    "terminate_workers",
]
