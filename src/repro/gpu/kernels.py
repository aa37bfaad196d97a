"""Kernel workload descriptors derived from Table I configurations.

A frame of a neural graphics application lowers to a trace of kernel
launches (Fig. 7): input-encoding kernels, MLP kernels and the "rest"
(ray generation / marching / compositing) kernels.  This module derives
FLOP and DRAM-byte counts per kernel from first principles:

- one *sample* costs ``2^d x L`` grid lookups of F features each, plus the
  hash/index arithmetic, for the encoding kernel;
- one sample costs ``MLPSpec.flops_per_input`` FLOPs for the MLP kernel(s);
- rest kernels touch each sample a constant number of times.

Samples-per-pixel constants live in :mod:`repro.calibration.fitted`
(NeRF rays are pruned by the occupancy grid; NSDF counts sphere-tracing
steps).  Kernel-call counts come from Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.apps.params import AppConfig
from repro.calibration import current, paper

BYTES_PER_FEATURE = 2  # fp16 feature storage, as in instant-ngp
BYTES_PER_ACTIVATION = 2

#: estimated integer ops per corner lookup for index computation, by scheme
_INDEX_OPS = {
    "multi_res_hashgrid": 12.0,  # scale, floor, 3x prime mul + xor, modulo
    "multi_res_densegrid": 8.0,  # scale, floor, strided linearization
    "low_res_densegrid": 9.0,  # + wrap (modulo resolution)
}


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel launch: workload totals plus Table II launch geometry."""

    name: str
    kind: str  # "encoding" | "mlp" | "rest"
    flops: float
    dram_bytes: float
    calls: int = 1

    def __post_init__(self):
        if self.kind not in ("encoding", "mlp", "rest"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.flops < 0 or self.dram_bytes < 0 or self.calls < 1:
            raise ValueError("workload quantities must be non-negative")


@dataclass(frozen=True)
class KernelTrace:
    """All kernel launches of one frame."""

    config: AppConfig
    n_pixels: int
    n_samples: float
    launches: Tuple[KernelLaunch, ...]

    def total(self, kind: str) -> Tuple[float, float]:
        """(flops, dram_bytes) summed over launches of ``kind``."""
        flops = sum(l.flops for l in self.launches if l.kind == kind)
        dram = sum(l.dram_bytes for l in self.launches if l.kind == kind)
        return flops, dram

    def calls(self, kind: str) -> int:
        return sum(l.calls for l in self.launches if l.kind == kind)


def samples_per_frame(config: AppConfig, n_pixels) -> float:
    """Network evaluations per frame: pixels x samples-per-pixel.

    ``n_pixels`` may be a scalar or a NumPy array (the batched sweep
    engine broadcasts over pixel counts); the return value has the same
    shape.
    """
    if (np.asarray(n_pixels) <= 0).any():
        raise ValueError("n_pixels must be positive")
    return n_pixels * current().samples_per_pixel[config.app]


def encoding_workload_per_sample(config: AppConfig) -> Tuple[float, float]:
    """(flops, dram_bytes) of the input-encoding kernel per sample.

    Each sample interpolates 2^d corners at each of L levels.  DRAM traffic
    counts the feature fetches (fine hashgrid levels miss the L2 since the
    tables exceed it — Section IV) plus writing the encoded output.
    """
    grid = config.grid
    corners = 2**config.spatial_dim
    lookups = corners * grid.n_levels
    interp_flops = lookups * grid.n_features * 2  # multiply-add per feature
    index_flops = lookups * _INDEX_OPS[grid.scheme]
    weight_flops = corners * config.spatial_dim * 2 * grid.n_levels
    flops = interp_flops + index_flops + weight_flops
    feature_bytes = lookups * grid.n_features * BYTES_PER_FEATURE
    output_bytes = grid.encoded_dim * BYTES_PER_ACTIVATION
    return flops, feature_bytes + output_bytes


def mlp_workload_per_sample(config: AppConfig) -> Tuple[float, float]:
    """(flops, dram_bytes) of the MLP kernel(s) per sample.

    Fully fused MLPs keep activations on chip; DRAM traffic is the encoded
    input (read back from device memory — the traffic NGPC fusion removes)
    plus the network output.
    """
    flops = float(config.total_mlp_flops_per_sample)
    input_bytes = config.grid.encoded_dim * BYTES_PER_ACTIVATION
    output_bytes = sum(m.output_dim for m in config.mlps) * BYTES_PER_ACTIVATION
    return flops, float(input_bytes + output_bytes)


def rest_workload_per_sample(config: AppConfig) -> Tuple[float, float]:
    """(flops, dram_bytes) of ray-march/compositing kernels per sample."""
    # ray set-up, occupancy-grid stepping, alpha compositing: a few tens of
    # ops per sample plus reading the network outputs and writing pixels
    flops = 60.0
    dram = 16.0
    return flops, dram


def build_kernel_trace(config: AppConfig, n_pixels: int) -> KernelTrace:
    """Lower one frame of ``config`` to its kernel-launch trace."""
    n_samples = samples_per_frame(config, n_pixels)
    enc_calls = paper.TABLE2[(config.app, config.grid.scheme, "encoding")][4]
    mlp_calls = paper.TABLE2[(config.app, config.grid.scheme, "mlp")][4]

    enc_flops, enc_bytes = encoding_workload_per_sample(config)
    mlp_flops, mlp_bytes = mlp_workload_per_sample(config)
    rest_flops, rest_bytes = rest_workload_per_sample(config)

    launches = (
        KernelLaunch(
            name=f"{config.grid.scheme}_encoding",
            kind="encoding",
            flops=enc_flops * n_samples,
            dram_bytes=enc_bytes * n_samples,
            calls=enc_calls,
        ),
        KernelLaunch(
            name="fully_fused_mlp",
            kind="mlp",
            flops=mlp_flops * n_samples,
            dram_bytes=mlp_bytes * n_samples,
            calls=mlp_calls,
        ),
        KernelLaunch(
            name="raymarch_composite",
            kind="rest",
            flops=rest_flops * n_samples + 20.0 * n_pixels,
            dram_bytes=rest_bytes * n_samples + 12.0 * n_pixels,
            calls=max(enc_calls, 1),
        ),
    )
    return KernelTrace(
        config=config, n_pixels=n_pixels, n_samples=n_samples, launches=launches
    )
