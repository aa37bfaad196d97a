"""Frame workloads, FPS budgets and parameter sweeps."""

from repro.workloads.framegen import (
    FrameWorkload,
    RESOLUTION_PIXELS,
    frame_budget_ms,
    standard_workloads,
)
from repro.workloads.sweep import (
    SweepPoint,
    full_sweep,
    full_sweep_batched,
    scale_sweep,
)

__all__ = [
    "FrameWorkload",
    "RESOLUTION_PIXELS",
    "frame_budget_ms",
    "standard_workloads",
    "SweepPoint",
    "full_sweep",
    "full_sweep_batched",
    "scale_sweep",
]
