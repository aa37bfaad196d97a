"""Sensitivity of the headline results to the fitted constants.

The per-app kernel fractions and DMA overheads are reconstructions of
unpublished measurements (see :mod:`repro.calibration.fitted`).  This
module perturbs them and measures how much the Fig. 12 averages move —
quantifying how robust the reproduction is to those choices.  A
perturbation is a new :class:`~repro.calibration.Calibration` value put
in use for the ``with`` block (:func:`repro.calibration.use`); nothing
is mutated, so other threads keep computing with their own calibration.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List

from repro.calibration import Calibration, current, use
from repro.core.emulator import speedup_table


@contextlib.contextmanager
def perturbed_overheads(factor: float) -> Iterator[Calibration]:
    """Use the current calibration with every DMA overhead x ``factor``."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    base = current()
    overheads = {app: ms * factor for app, ms in base.dma_overheads.items()}
    with use(replace(base, dma_overheads=overheads)) as perturbed:
        yield perturbed


@contextlib.contextmanager
def perturbed_rest_fractions(factor: float) -> Iterator[Calibration]:
    """Use the current calibration with each rest fraction x ``factor``
    (capped at 0.95; encoding and MLP renormalized to keep the sum 1)."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    base = current()
    fractions = {}
    for key, (enc, mlp, rest) in base.kernel_fractions.items():
        new_rest = min(rest * factor, 0.95)
        scale = (1.0 - new_rest) / (enc + mlp)
        fractions[key] = (enc * scale, mlp * scale, new_rest)
    with use(replace(base, kernel_fractions=fractions)) as perturbed:
        yield perturbed


@dataclass(frozen=True)
class SensitivityResult:
    """Fig. 12 averages under a perturbation, next to the nominal run."""

    parameter: str
    factor: float
    nominal: Dict[int, float]
    perturbed: Dict[int, float]

    @property
    def max_relative_shift(self) -> float:
        return max(
            abs(self.perturbed[s] - self.nominal[s]) / self.nominal[s]
            for s in self.nominal
        )


def _averages(scheme: str) -> Dict[int, float]:
    table = speedup_table(scheme)
    return {scale: row["average"] for scale, row in table.items()}


def overhead_sensitivity(
    factor: float, scheme: str = "multi_res_hashgrid"
) -> SensitivityResult:
    """Fig. 12 averages with all DMA overheads scaled by ``factor``."""
    nominal = _averages(scheme)
    with perturbed_overheads(factor):
        perturbed = _averages(scheme)
    return SensitivityResult(
        parameter="dma_overhead", factor=factor, nominal=nominal, perturbed=perturbed
    )


def rest_fraction_sensitivity(
    factor: float, scheme: str = "multi_res_hashgrid"
) -> SensitivityResult:
    """Fig. 12 averages with every rest fraction scaled by ``factor``."""
    nominal = _averages(scheme)
    with perturbed_rest_fractions(factor):
        perturbed = _averages(scheme)
    return SensitivityResult(
        parameter="rest_fraction", factor=factor, nominal=nominal, perturbed=perturbed
    )


def sensitivity_sweep(
    factors=(0.8, 0.9, 1.1, 1.2), scheme: str = "multi_res_hashgrid"
) -> List[SensitivityResult]:
    """Both perturbation families over a +/-20 % range."""
    results: List[SensitivityResult] = []
    for factor in factors:
        results.append(overhead_sensitivity(factor, scheme))
        results.append(rest_fraction_sensitivity(factor, scheme))
    return results
