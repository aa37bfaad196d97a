"""Amdahl's-law bounds for the Fig. 12 sanity check.

The paper bounds the reported speedups with Amdahl's law: with the
encoding and MLP kernels infinitely accelerated and fully overlapped with
the GPU, frame time cannot drop below the (fused) rest-kernel time.
"""

from __future__ import annotations

from repro.calibration import current, paper


def amdahl_bound(app: str, scheme: str) -> float:
    """Peak speedup with fused rest kernels (the Fig. 12 horizontal lines)."""
    fractions = current().kernel_fractions.get((app, scheme))
    if fractions is None:
        raise KeyError(f"no kernel fractions for ({app}, {scheme})")
    rest_fraction = fractions[2]
    return 1.0 / (rest_fraction / paper.REST_FUSION_SPEEDUP)


def amdahl_bound_unfused(app: str, scheme: str) -> float:
    """Peak speedup if the rest kernels were left unfused on the GPU."""
    fractions = current().kernel_fractions.get((app, scheme))
    if fractions is None:
        raise KeyError(f"no kernel fractions for ({app}, {scheme})")
    return 1.0 / fractions[2]
