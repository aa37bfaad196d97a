"""Fitted constants anchoring the performance models to the paper.

The paper's emulator (Fig. 11) consumes the *measured* GPU kernel-level
breakdown as an input.  Without the RTX 3090 we reconstruct that input:

- Per-(app, scheme) kernel-time fractions.  The paper publishes only the
  four-app averages (Fig. 5 text); the per-app splits below were chosen to
  (a) reproduce those averages exactly, (b) respect the qualitative
  ordering visible in Fig. 5's bars (NeRF most encoding-bound, GIA/NVR
  most rest-bound), and (c) make the per-app saturated speedups of
  Fig. 12 come out at the paper's plateau scaling factors.
- Per-app NGPC batch overheads (DMA/configuration), in absolute
  milliseconds at FHD, consistent with Table III's access times.

The constants form one immutable :class:`Calibration`, :data:`DEFAULT`.
The models read :func:`current` — :data:`DEFAULT` unless the calling
thread or task entered ``with use(other):`` — so a perturbed value
(:mod:`repro.analysis.sensitivity`) changes numbers only where it is in
use, and a cache key holding ``current().fingerprint`` names what was
computed.  The upper-case names below are read-only views of
:data:`DEFAULT`; assigning to them raises :class:`TypeError`.

`check_fraction_averages()` verifies (a) programmatically and is exercised
by the test suite.
"""

from __future__ import annotations

import contextlib
import contextvars
import sys
import types
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Tuple

from repro.calibration import paper


@dataclass(frozen=True, eq=False)
class Calibration:
    """The fitted model inputs as one frozen, hashable value.

    Equal iff the :attr:`fingerprint`s are: the nested tuple, computed
    once, that every model cache key and store address embeds.
    """

    #: (app, scheme) -> (encoding, mlp, rest) fractions of app time
    kernel_fractions: Mapping[Tuple[str, str], Tuple[float, float, float]]
    #: app -> NGPC DMA overhead, ms at FHD and scaling factor 64
    dma_overheads: Mapping[str, float]
    #: DMA overhead grows as (64 / scale) ** this exponent
    overhead_scale_exponent: float
    #: app -> network evaluations per pixel
    samples_per_pixel: Mapping[str, float]

    def __post_init__(self):
        for name in ("kernel_fractions", "dma_overheads", "samples_per_pixel"):
            object.__setattr__(
                self, name, types.MappingProxyType(dict(getattr(self, name)))
            )
        fingerprint = (
            tuple(sorted(self.dma_overheads.items())),
            tuple(sorted(self.kernel_fractions.items())),
            tuple(sorted(self.samples_per_pixel.items())),
            self.overhead_scale_exponent,
        )
        object.__setattr__(self, "fingerprint", fingerprint)

    @classmethod
    def from_fingerprint(cls, fingerprint: Hashable) -> "Calibration":
        """The value a :attr:`fingerprint` tuple names (a lease's, say)."""
        overheads, fractions, samples, exponent = fingerprint
        return cls(dict(fractions), dict(overheads), exponent, dict(samples))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Calibration)
            and self.fingerprint == other.fingerprint
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint)


DEFAULT = Calibration(
    # Per-(app, scheme) kernel-time fractions of total application time.
    # Each row: (encoding, mlp, rest); rows sum to 1.0.
    kernel_fractions={
        # hashgrid: averages must be enc 40.24 %, mlp 32.12 %; rest
        # fractions also satisfy the Fig. 14 headline (NeRF 4K@30, others
        # 8K@120) and the "up to 58.36x" bound: 9.94 / 0.17 = 58.5 for NeRF
        ("nerf", "multi_res_hashgrid"): (0.43, 0.40, 0.17),
        ("nsdf", "multi_res_hashgrid"): (0.47, 0.345, 0.185),
        ("gia", "multi_res_hashgrid"): (0.36, 0.27, 0.37),
        ("nvr", "multi_res_hashgrid"): (0.3496, 0.2698, 0.3806),
        # densegrid: averages must be enc 24.63 %, mlp 35.37 %
        ("nerf", "multi_res_densegrid"): (0.28, 0.40, 0.32),
        ("nsdf", "multi_res_densegrid"): (0.27, 0.34, 0.39),
        ("gia", "multi_res_densegrid"): (0.22, 0.33, 0.45),
        ("nvr", "multi_res_densegrid"): (0.2152, 0.3448, 0.44),
        # low-res densegrid: averages must be enc 24.15 %, mlp 35.37 %
        ("nerf", "low_res_densegrid"): (0.27, 0.40, 0.33),
        ("nsdf", "low_res_densegrid"): (0.26, 0.34, 0.40),
        ("gia", "low_res_densegrid"): (0.22, 0.33, 0.45),
        ("nvr", "low_res_densegrid"): (0.216, 0.3448, 0.4392),
    },
    # Per-app NGPC data-movement overhead (ms at FHD, at scaling factor 64).
    # Scales inversely with the scaling factor (more NFPs -> more parallel
    # batches in flight) and linearly with pixel count.  The values are
    # chosen so the Fig. 12 per-scale averages land near the paper's and
    # are of the magnitude implied by Table III's access times (NeRF
    # 4.126 ms, rest 1.238 ms for a 4K frame at 60 FPS -> about a quarter
    # of that at FHD).
    dma_overheads={"nerf": 2.0931, "nsdf": 0.2877, "gia": 0.0514, "nvr": 0.1680},
    # DMA overhead grows as (64/scale)^alpha when the cluster shrinks; the
    # mild sub-linearity reflects that a smaller cluster also issues fewer
    # concurrent batches, partially hiding transfer latency.
    overhead_scale_exponent=0.6947,
    # Average volumetric samples evaluated per pixel (after occupancy-grid
    # pruning for NeRF/NVR, sphere-tracing steps for NSDF).  These feed the
    # first-principles workload model in :mod:`repro.gpu.kernels`.
    samples_per_pixel={"nerf": 16.0, "nsdf": 6.0, "gia": 1.0, "nvr": 4.0},
)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_calibration", default=DEFAULT
)


def current() -> Calibration:
    """The calibration the models read in this thread or task."""
    return _CURRENT.get()


@contextlib.contextmanager
def use(calibration: Calibration) -> Iterator[Calibration]:
    """Make ``calibration`` :func:`current` inside the block.

    It holds for this thread or task and what copies its context
    (``asyncio.to_thread``, tasks it creates), never for another thread.
    """
    if not isinstance(calibration, Calibration):
        raise TypeError(f"use() takes a Calibration, not {calibration!r}")
    token = _CURRENT.set(calibration)
    try:
        yield calibration
    finally:
        _CURRENT.reset(token)


# read-only views of DEFAULT under their historical names
KERNEL_FRACTIONS = DEFAULT.kernel_fractions
BATCH_OVERHEAD_MS_FHD_AT64 = DEFAULT.dma_overheads
BATCH_OVERHEAD_SCALE_EXPONENT = DEFAULT.overhead_scale_exponent
SAMPLES_PER_PIXEL = DEFAULT.samples_per_pixel


class _FittedModule(types.ModuleType):
    """Rejects rebinding a view: the calibration is a value."""

    def __setattr__(self, name, value):
        if name.isupper():
            raise TypeError(f"fitted.{name} is read-only; use(calibration)")
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _FittedModule


def check_fraction_averages(tolerance: float = 0.01) -> None:
    """Raise AssertionError unless the current fractions reproduce Fig. 5.

    ``tolerance`` is in absolute percent of total application time.
    """
    fractions = current().kernel_fractions
    apps = ("nerf", "nsdf", "gia", "nvr")
    for scheme, targets in paper.FIG5_AVERAGE_FRACTIONS.items():
        enc_avg = sum(fractions[(a, scheme)][0] for a in apps) / 4 * 100
        mlp_avg = sum(fractions[(a, scheme)][1] for a in apps) / 4 * 100
        if abs(enc_avg - targets["encoding"]) > tolerance:
            raise AssertionError(
                f"{scheme}: encoding average {enc_avg:.2f} != {targets['encoding']}"
            )
        if abs(mlp_avg - targets["mlp"]) > tolerance:
            raise AssertionError(
                f"{scheme}: mlp average {mlp_avg:.2f} != {targets['mlp']}"
            )
    for row in fractions.values():
        if abs(sum(row) - 1.0) > 1e-9:
            raise AssertionError(f"fractions {row} do not sum to 1")
