"""Adaptive exploration of the DSE hypercube (see :mod:`.engine`)."""

from repro.explore.engine import (
    DEFAULT_COALESCE_CELLS,
    DEFAULT_LEAF_CELLS,
    DEFAULT_SEGMENTS,
    AdaptiveExplorer,
    ExplorationStats,
)

__all__ = [
    "AdaptiveExplorer",
    "ExplorationStats",
    "DEFAULT_COALESCE_CELLS",
    "DEFAULT_LEAF_CELLS",
    "DEFAULT_SEGMENTS",
]
