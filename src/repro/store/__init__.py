"""Persistent, shared, content-addressed result store (the disk tier).

The service's in-RAM LRU dies with its process; this package is the
tier under it — persisted :class:`~repro.core.dse.SweepResult`s and
vectorized blocks keyed on content fingerprints, shareable by every
replica mounting one directory:

- :class:`ResultStore` — one :mod:`repro.transport` frame file per
  entry, memory-mapped on load, atomic ``os.replace`` writes; the file
  tree is the index, and corrupt entries are quarantined with a
  :class:`StoreCorruptionWarning` and re-evaluated.
- :func:`tiered_sweep` — the one evaluation ladder under every RAM
  tier (whole-sweep disk -> block-level disk -> evaluate the delta),
  run by :class:`~repro.service.SweepService` (``SweepService(store=...)``,
  ``repro serve --store DIR``) and the local backend
  (``Session(store=...)``) alike.
- :class:`StoreBlockRunner` — the persistent tier as a block runner
  (cached blocks are free), decorating the in-process runner for the
  store ladder.

Wire format and keys are shared with the rest of the stack:
:func:`~repro.core.dse.sweep_fingerprint` and
:func:`~repro.core.dse.block_fingerprint` carry grid axes, base config
and calibration constants, so invalidation is content addressing —
perturbed calibration simply addresses different entries.
"""

from repro.store.result_store import (
    BLOCK_ARRAY_FIELDS,
    ResultStore,
    StoreCorruptionWarning,
    fingerprint_digest,
)
from repro.store.tiered import (
    STORE_ENGINE,
    TIER_COUNTERS,
    StoreBlockRunner,
    new_tier_counters,
    tiered_sweep,
)

__all__ = [
    "BLOCK_ARRAY_FIELDS",
    "ResultStore",
    "STORE_ENGINE",
    "StoreBlockRunner",
    "StoreCorruptionWarning",
    "TIER_COUNTERS",
    "fingerprint_digest",
    "new_tier_counters",
    "tiered_sweep",
]
