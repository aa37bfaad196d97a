"""Parameter sweeps over the (app, scheme, scale, pixels) evaluation space.

Two ways to sweep:

- the legacy generators :func:`scale_sweep` / :func:`full_sweep`, which
  yield one :class:`SweepPoint` per memoized scalar
  :func:`~repro.core.emulator.emulate` call — convenient for streaming
  consumption;
- :func:`full_sweep_batched`, a drop-in replacement for
  :func:`full_sweep` served by the batched engine through the
  :mod:`repro.api` Session facade (same points, one NumPy evaluation
  instead of a Python loop per point).  A whole
  :class:`~repro.core.dse.SweepGrid` is swept with ``Session().sweep``
  or, keeping the caller's axis order, ``LocalBackend().sweep``.

Both paths are numerically identical; ``tests/test_sweep_engine.py``
enforces the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.api import Session, SweepGrid
from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.config import SCALE_FACTORS
from repro.core.emulator import EmulationResult, emulate
from repro.gpu.baseline import FHD_PIXELS


@dataclass(frozen=True)
class SweepPoint:
    """One point of the evaluation sweep with its emulation result."""

    app: str
    scheme: str
    scale_factor: int
    result: EmulationResult


def scale_sweep(
    app: str,
    scheme: str,
    scales: Sequence[int] = SCALE_FACTORS,
    n_pixels: int = FHD_PIXELS,
) -> Iterator[SweepPoint]:
    """Sweep the scaling factor for one app/scheme (one Fig. 12 group)."""
    for scale in scales:
        yield SweepPoint(
            app=app,
            scheme=scheme,
            scale_factor=scale,
            result=emulate(app, scheme, scale, n_pixels),
        )


def full_sweep(
    schemes: Optional[Sequence[str]] = None,
    scales: Sequence[int] = SCALE_FACTORS,
    n_pixels: int = FHD_PIXELS,
) -> Iterator[SweepPoint]:
    """The complete evaluation: 4 apps x schemes x scales."""
    for scheme in schemes or ENCODING_SCHEMES:
        for app in APP_NAMES:
            yield from scale_sweep(app, scheme, scales, n_pixels)


def full_sweep_batched(
    schemes: Optional[Sequence[str]] = None,
    scales: Sequence[int] = SCALE_FACTORS,
    n_pixels: int = FHD_PIXELS,
) -> Iterator[SweepPoint]:
    """Drop-in :func:`full_sweep` served by one vectorized evaluation.

    Points stream in the *caller's* scheme/app/scale order (the
    :func:`full_sweep` contract) even though the facade evaluates the
    normalized grid; lookups are by name, so ordering cannot drift.
    """
    grid = SweepGrid(
        apps=APP_NAMES,
        schemes=tuple(schemes or ENCODING_SCHEMES),
        scale_factors=tuple(scales),
        pixel_counts=(n_pixels,),
    )
    result = Session().sweep(grid).result
    for scheme in grid.schemes:
        for app in grid.apps:
            for scale in grid.scale_factors:
                yield SweepPoint(
                    app=app,
                    scheme=scheme,
                    scale_factor=scale,
                    result=result.point(app, scheme, scale, n_pixels),
                )
