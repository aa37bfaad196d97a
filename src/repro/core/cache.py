"""Memoization layer for the analytic models.

The analytic models are pure functions of (application, encoding scheme,
:class:`~repro.core.config.NGPCConfig`, pixel count) and of the
calibration in use (:func:`repro.calibration.current`, an immutable
:class:`~repro.calibration.Calibration`).  Every cache key therefore
embeds ``current().fingerprint``, taken in the thread or task that
evaluates, so a perturbed calibration never reads a nominal result and
never poisons the nominal cache.

All caches register themselves in a module-level registry;
:func:`clear_model_caches` wipes them in one call (the test suite does
this between tests so cached results cannot mask bugs).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Hashable, List, Optional


#: sentinel distinguishing "key absent" from "key holds None" — ``None``
#: is a legitimate cacheable value (e.g. "no configuration meets this
#: constraint"), so membership must never be inferred from the value
_MISSING = object()


class ModelCache:
    """A named, clearable, thread-safe dict cache with hit/miss counters.

    Eviction is FIFO by default; pass ``lru=True`` to refresh a key's
    recency on every hit so hot entries survive (the sweep service keeps
    its :class:`~repro.core.dse.SweepResult`s in an LRU instance).

    ``None`` is a cacheable value: presence is tracked with an internal
    sentinel, so a stored ``None`` counts as a hit, refreshes LRU
    recency, and keeps the hit/miss counters truthful.

    Module-level caches register in the global registry so
    :func:`clear_model_caches` reaches them; instance-owned caches (one
    per service object, arbitrary lifetime) pass ``register=False`` —
    the registry holds strong references, so registering a per-instance
    cache would pin its entries for the process lifetime.
    """

    def __init__(
        self,
        name: str,
        maxsize: Optional[int] = None,
        lru: bool = False,
        register: bool = True,
    ):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive or None")
        self.name = name
        self.maxsize = maxsize
        self.lru = lru
        self._data: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if register:
            _CACHES.append(self)

    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            if self.lru:
                # move to the end: dicts preserve insertion order, so
                # eviction always takes the least recently used key
                del self._data[key]
                self._data[key] = value
            return value

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching the hit/miss counters or recency."""
        with self._lock:
            return key in self._data

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if (
                self.maxsize is not None
                and key not in self._data
                and len(self._data) >= self.maxsize
            ):
                # evict the oldest entry (FIFO) / least recently used
                # (LRU) — but only for a genuinely new key: overwriting
                # an existing entry does not change the cache's size, so
                # evicting alongside it would shrink the cache and drop
                # a hot entry on every overwrite at capacity
                self._data.pop(next(iter(self._data)))
            if self.lru:
                # an overwrite is a touch: move the key to the MRU end
                self._data.pop(key, None)
            self._data[key] = value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> Dict[str, int]:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}


_CACHES: List[ModelCache] = []


def clear_model_caches() -> None:
    """Empty every registered model cache (and reset its counters)."""
    for cache in _CACHES:
        cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Size and hit/miss counters of every registered cache, by name."""
    return {cache.name: cache.info() for cache in _CACHES}


def config_fingerprint(config: Any) -> Hashable:
    """Canonical hashable snapshot of a (frozen) config dataclass.

    Recursively flattens dataclasses into ``(type name, (field, value),
    ...)`` tuples so two structurally equal configs — including nested
    ones like :class:`~repro.core.config.NGPCConfig` and its NFP — yield
    the same key regardless of object identity.  Non-dataclass values
    pass through unchanged; ``None`` stays ``None`` ("the default
    config").  Together with the calibration's fingerprint this is the
    stable half of every sweep cache key (see
    :func:`repro.core.dse.sweep_fingerprint`).
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return (type(config).__name__,) + tuple(
            (f.name, config_fingerprint(getattr(config, f.name)))
            for f in dataclasses.fields(config)
        )
    return config
