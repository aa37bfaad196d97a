"""The MLP hardware engine: a 64x64 grid of MAC units (Fig. 9).

The engine computes one 64-wide layer per array pass; intermediate
activations stay in a small dedicated SRAM ("Keeping the intermediate
features on-chip ... improves the performance by 1 OOM", Section V).
Cycle model: a sample costs one pass per weight matrix, and the array
sustains ``MLP_BATCH_PARALLELISM`` samples per cycle via input batching
across the array rows — the parallelism constant is calibrated once so
the four-app mean kernel speedup at scaling factor 64 matches the paper's
Figure 13 anchor per scheme, after which every other scale follows
mechanistically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.apps.params import APP_NAMES, AppConfig, get_config
from repro.calibration import DEFAULT, paper, use
from repro.core.config import NGPCConfig
from repro.gpu.baseline import FHD_PIXELS, baseline_kernel_times_ms
from repro.gpu.kernels import samples_per_frame


def weight_matrices(config: AppConfig) -> int:
    """Array passes per sample: one per weight matrix, over all MLPs."""
    return sum(spec.layers + 1 for spec in config.mlps)


def weight_bytes(config: AppConfig, bytes_per_weight: int = 2) -> int:
    """Total on-chip weight storage needed by the engine."""
    return sum(spec.num_weights for spec in config.mlps) * bytes_per_weight


def mlp_engine_cycles(
    config: AppConfig,
    n_samples: float,
    ngpc: Optional[NGPCConfig] = None,
    batch_parallelism: Optional[float] = None,
) -> float:
    """Total MAC-array cycles to run ``n_samples`` through the network."""
    ngpc = ngpc or NGPCConfig()
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if batch_parallelism is None:
        batch_parallelism = _calibrated_parallelism(config.grid.scheme)
    passes = weight_matrices(config)
    cycles = n_samples * passes / (batch_parallelism * ngpc.n_nfps)
    return cycles + ngpc.nfp.pipeline_fill_cycles


@lru_cache(maxsize=None)
def _calibrated_parallelism(scheme: str) -> float:
    """Samples/cycle/NFP so the four-app mean speedup at 64 matches Fig. 13.

    Fitted once against the nominal calibration, like the encoding
    engine's lanes (:func:`repro.core.encoding_engine._calibrated_lanes`)."""
    target = paper.FIG13_KERNEL_SPEEDUPS_AT_64[scheme]["mlp"]
    ngpc = NGPCConfig(scale_factor=64)
    unit = []
    with use(DEFAULT):
        for app in APP_NAMES:
            config = get_config(app, scheme)
            samples = samples_per_frame(config, FHD_PIXELS)
            cycles = samples * weight_matrices(config) / ngpc.n_nfps
            time_unit = cycles / ngpc.nfp.cycles_per_ms
            base = baseline_kernel_times_ms(app, scheme, FHD_PIXELS)["mlp"]
            unit.append(base / time_unit)
    return target / (sum(unit) / len(unit))


def mlp_engine_time_ms(
    config: AppConfig,
    n_pixels: int = FHD_PIXELS,
    ngpc: Optional[NGPCConfig] = None,
) -> float:
    """Time for the NGPC MLP engines to process one frame (ms)."""
    ngpc = ngpc or NGPCConfig()
    if n_pixels <= 0:
        raise ValueError("n_pixels must be positive")
    samples = samples_per_frame(config, n_pixels)
    cycles = mlp_engine_cycles(config, samples, ngpc)
    return cycles / ngpc.nfp.cycles_per_ms


def mlp_engine_time_ms_batch(
    config: AppConfig,
    n_pixels,
    scale_factors,
    ngpc: Optional[NGPCConfig] = None,
    clocks_ghz=None,
):
    """Vectorized :func:`mlp_engine_time_ms` over the design axes.

    With only ``scale_factors`` (length S) and ``n_pixels`` (length P)
    given, broadcasts to an (S, P) float64 array — ``ngpc`` supplies the
    non-scale parameters and its own ``scale_factor`` is ignored.
    Passing ``clocks_ghz`` (length C) switches to the N-dimensional fast
    path and yields an (S, P, C, 1, 1) array, broadcastable against the
    encoding engine's (S, P, C, G, E) hypercube (the MLP engine does not
    see the grid-SRAM or encoding-engine-count axes).  Both paths mirror
    the scalar arithmetic operation for operation so batched == scalar
    bit for bit.  Axis values are validated where they enter
    (:class:`~repro.core.dse.SweepGrid`,
    :func:`~repro.core.emulator.emulate_batch`), not re-checked here.
    """
    ngpc = ngpc or NGPCConfig()
    legacy = clocks_ghz is None
    scales = np.asarray(scale_factors, dtype=np.float64).reshape(-1, 1, 1, 1, 1)
    pixels = np.asarray(n_pixels, dtype=np.float64).reshape(1, -1, 1, 1, 1)
    clocks = np.asarray(
        clocks_ghz if clocks_ghz is not None else (ngpc.nfp.clock_ghz,),
        dtype=np.float64,
    ).reshape(1, 1, -1, 1, 1)
    batch_parallelism = _calibrated_parallelism(config.grid.scheme)
    samples = samples_per_frame(config, pixels)
    passes = weight_matrices(config)
    cycles = (samples * passes) / (batch_parallelism * scales)
    cycles = cycles + ngpc.nfp.pipeline_fill_cycles
    time_ms = cycles / (clocks * 1e6)
    if legacy:  # classic (S, P) plane: drop the singleton arch axes
        return time_ms.reshape(time_ms.shape[:2])
    return time_ms


def mlp_kernel_speedup(
    app: str,
    scheme: str,
    scale_factor: int,
    n_pixels: int = FHD_PIXELS,
) -> float:
    """GPU MLP-kernel time over NGPC engine time (Fig. 13 bars)."""
    config = get_config(app, scheme)
    ngpc = NGPCConfig(scale_factor=scale_factor)
    base = baseline_kernel_times_ms(app, scheme, n_pixels)["mlp"]
    return base / mlp_engine_time_ms(config, n_pixels, ngpc)
