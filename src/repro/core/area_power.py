"""Area and power model of the NGPC (Fig. 15).

Methodology mirrors the paper: per-component 45 nm estimates (MAC array
from synthesis-style per-MAC figures, SRAMs from a CACTI-like analytical
model), scaled to 7 nm with Stillmaker-Baas-style factors and normalized
to the RTX 3090 die (628.4 mm2, 350 W).

The 45 nm component constants are set so that one NFP lands at the
paper's reported overheads (NGPC-8 = +4.52 % area, +2.75 % power at 7 nm,
scaling linearly to NGPC-64 = +36.18 % / +22.06 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import NFPConfig, NGPCConfig
from repro.gpu.device import RTX3090
from repro.utils.math import is_power_of_two

# ---------------------------------------------------------------------------
# Stillmaker-Baas scaling factors, 45 nm -> 7 nm.
# Area scales with feature size squared degraded by non-ideal scaling;
# dynamic power scales with capacitance and V^2 at roughly iso-frequency.
# ---------------------------------------------------------------------------
AREA_SCALE_45_TO_7 = 0.0590
POWER_SCALE_45_TO_7 = 0.1124

# 45 nm component constants
MAC_AREA_UM2_45NM = 2200.0  # one fp16 MAC + pipeline registers
SRAM_AREA_MM2_PER_MB_45NM = 2.80  # CACTI-like 45 nm SRAM density
CONTROL_AREA_FRACTION = 0.12  # FIFOs, sequencer, interconnect

MAC_ENERGY_PJ_45NM = 1.05  # energy per MAC operation at 45 nm
SRAM_DYNAMIC_W_PER_MB_45NM = 0.28  # access-dominated dynamic power
LEAKAGE_FRACTION = 0.18
MAC_ACTIVITY = 0.65  # average MAC-array utilization while streaming


def scale_45_to_7nm(area_mm2: float, power_w: float) -> tuple:
    """Apply the 45 nm -> 7 nm scaling factors to (area, power)."""
    if area_mm2 < 0 or power_w < 0:
        raise ValueError("area and power must be non-negative")
    return area_mm2 * AREA_SCALE_45_TO_7, power_w * POWER_SCALE_45_TO_7


def _nfp_area_components_45nm(macs, grid_sram_mb, act_sram_mb) -> Dict:
    """Per-component NFP area at 45 nm; inputs may be broadcast arrays."""
    mac_area = macs * MAC_AREA_UM2_45NM * 1e-6
    sram_area = (grid_sram_mb + act_sram_mb) * SRAM_AREA_MM2_PER_MB_45NM
    logic = mac_area + sram_area
    control = logic * CONTROL_AREA_FRACTION
    return {
        "mac_array": mac_area,
        "grid_sram": grid_sram_mb * SRAM_AREA_MM2_PER_MB_45NM,
        "activation_sram": act_sram_mb * SRAM_AREA_MM2_PER_MB_45NM,
        "control": control,
        "total": logic + control,
    }


def _nfp_power_components_45nm(macs, grid_sram_mb, act_sram_mb, clock_ghz) -> Dict:
    """Per-component NFP power at 45 nm; inputs may be broadcast arrays."""
    mac_dynamic = macs * MAC_ACTIVITY * clock_ghz * 1e9 * MAC_ENERGY_PJ_45NM * 1e-12
    sram_dynamic = (grid_sram_mb + act_sram_mb) * SRAM_DYNAMIC_W_PER_MB_45NM
    dynamic = mac_dynamic + sram_dynamic
    leakage = dynamic * LEAKAGE_FRACTION
    return {
        "mac_array": mac_dynamic,
        "sram": sram_dynamic,
        "leakage": leakage,
        "total": dynamic + leakage,
    }


def nfp_area_mm2_45nm(nfp: NFPConfig = NFPConfig()) -> Dict[str, float]:
    """Per-component area of one NFP at 45 nm (mm2)."""
    return _nfp_area_components_45nm(
        nfp.macs,
        nfp.n_encoding_engines * nfp.grid_sram_kb_per_engine / 1024.0,
        nfp.activation_sram_kb / 1024.0,
    )


def nfp_power_w_45nm(nfp: NFPConfig = NFPConfig()) -> Dict[str, float]:
    """Per-component power of one NFP at 45 nm (W), at full streaming load."""
    return _nfp_power_components_45nm(
        nfp.macs,
        nfp.n_encoding_engines * nfp.grid_sram_kb_per_engine / 1024.0,
        nfp.activation_sram_kb / 1024.0,
        nfp.clock_ghz,
    )


@dataclass(frozen=True)
class AreaPowerReport:
    """NGPC area/power at 7 nm, absolute and relative to the RTX 3090."""

    scale_factor: int
    area_mm2_7nm: float
    power_w_7nm: float

    @property
    def area_overhead_pct(self) -> float:
        return 100.0 * self.area_mm2_7nm / RTX3090.die_area_mm2

    @property
    def power_overhead_pct(self) -> float:
        return 100.0 * self.power_w_7nm / RTX3090.tdp_w


def ngpc_area_power(config: NGPCConfig) -> AreaPowerReport:
    """Area/power of a whole NGPC at 7 nm (Fig. 15 bars)."""
    area45 = nfp_area_mm2_45nm(config.nfp)["total"] * config.n_nfps
    power45 = nfp_power_w_45nm(config.nfp)["total"] * config.n_nfps
    area7, power7 = scale_45_to_7nm(area45, power45)
    return AreaPowerReport(
        scale_factor=config.scale_factor, area_mm2_7nm=area7, power_w_7nm=power7
    )


def ngpc_area_power_batch(
    scale_factors,
    nfp: Optional[NFPConfig] = None,
    clocks_ghz=None,
    grid_sram_kb=None,
    n_engines=None,
) -> Dict[str, np.ndarray]:
    """Vectorized :func:`ngpc_area_power` over the configuration axes.

    With only ``scale_factors`` given, returns arrays ``area_mm2_7nm``,
    ``power_w_7nm`` and the overhead percentages relative to the
    RTX 3090, all shaped like ``scale_factors``.  Passing any of the
    architecture axes ``clocks_ghz`` (length C), ``grid_sram_kb``
    (length G) or ``n_engines`` (length E) switches to the N-dimensional
    fast path: ``scale_factors`` is flattened to its K values and the
    result is the full (K, C, G, E) cost hypercube, with axes not
    supplied taken (length 1) from ``nfp``.  Same arithmetic as the
    scalar path in either mode.
    """
    nfp = nfp or NFPConfig()
    scales = np.asarray(scale_factors)
    if np.any(scales < 1):
        raise ValueError("scale factors must be >= 1")
    for scale in scales.reshape(-1):
        if not is_power_of_two(int(scale)):
            raise ValueError(
                f"scale_factor must be a power of two (got {int(scale)})"
            )
    legacy = clocks_ghz is None and grid_sram_kb is None and n_engines is None
    legacy_shape = scales.shape
    scales = scales.reshape(-1, 1, 1, 1)
    if clocks_ghz is None:
        clocks_ghz = (nfp.clock_ghz,)
    if grid_sram_kb is None:
        grid_sram_kb = (nfp.grid_sram_kb_per_engine,)
    if n_engines is None:
        n_engines = (nfp.n_encoding_engines,)
    clocks = np.asarray(clocks_ghz, dtype=np.float64).reshape(1, -1, 1, 1)
    srams = np.asarray(grid_sram_kb, dtype=np.int64).reshape(1, 1, -1, 1)
    engines = np.asarray(n_engines, dtype=np.int64).reshape(1, 1, 1, -1)
    if np.any(clocks <= 0):
        raise ValueError("clock must be positive")
    if np.any(engines < 1):
        raise ValueError("need at least one encoding engine")
    for kb in srams.reshape(-1):
        if not is_power_of_two(int(kb)):
            raise ValueError(
                f"grid_sram_kb_per_engine must be a power of two (got {int(kb)} KB)"
            )

    # per-NFP area/power at 45 nm: the scalar component model applied
    # elementwise over the (clock, SRAM, engine-count) hypercube
    grid_sram_mb = engines * srams / 1024.0
    act_sram_mb = nfp.activation_sram_kb / 1024.0
    area_total = _nfp_area_components_45nm(
        nfp.macs, grid_sram_mb, act_sram_mb
    )["total"]
    power_total = _nfp_power_components_45nm(
        nfp.macs, grid_sram_mb, act_sram_mb, clocks
    )["total"]

    # in place: (x * scale) * k, then (100 * x) / d, element by element,
    # with one array per quantity rather than one per step
    area7 = area_total * scales
    area7 *= AREA_SCALE_45_TO_7
    power7 = power_total * scales
    power7 *= POWER_SCALE_45_TO_7
    area_pct = 100.0 * area7
    area_pct /= RTX3090.die_area_mm2
    power_pct = 100.0 * power7
    power_pct /= RTX3090.tdp_w
    # area does not depend on the clock axis; broadcast both quantities to
    # the same full (K, C, G, E) hypercube so consumers can index uniformly
    full = np.broadcast_shapes(area7.shape, power7.shape)
    out = {
        "area_mm2_7nm": np.ascontiguousarray(np.broadcast_to(area7, full)),
        "power_w_7nm": np.ascontiguousarray(np.broadcast_to(power7, full)),
        "area_overhead_pct": np.ascontiguousarray(
            np.broadcast_to(area_pct, full)
        ),
        "power_overhead_pct": np.ascontiguousarray(
            np.broadcast_to(power_pct, full)
        ),
    }
    if legacy:  # classic call: arrays shaped like the ``scale_factors`` input
        out = {name: arr.reshape(legacy_shape) for name, arr in out.items()}
    return out


def hashmap_sram_kb(log2_hashmap_sizes, n_features: int = 2) -> np.ndarray:
    """Per-engine grid-SRAM (KB) sized to hold one 2^T-entry hash level.

    The silicon hook of the registry's ``log2_hashmap_sizes`` axis: each
    hash-table entry stores ``n_features`` quantized features at
    :data:`~repro.core.encoding_engine.HW_BYTES_PER_FEATURE` bytes, and
    SRAM macros come in power-of-two KB sizes, so the capacity is the
    byte demand rounded up to the next power-of-two KB (>= 1 KB).  Feed
    the result to :func:`ngpc_area_power_batch`'s ``grid_sram_kb`` axis
    to price a hash-table size in die area/power.
    """
    from repro.core.encoding_engine import HW_BYTES_PER_FEATURE

    if n_features < 1:
        raise ValueError("need at least one feature per entry")
    log2_ts = np.asarray(log2_hashmap_sizes, dtype=np.int64)
    if np.any(log2_ts < 1):
        raise ValueError("log2_hashmap_size must be >= 1")
    out = np.empty(log2_ts.shape, dtype=np.int64)
    flat_out = out.reshape(-1)
    for pos, log2_t in enumerate(log2_ts.reshape(-1)):
        entry_bytes = (1 << int(log2_t)) * n_features * HW_BYTES_PER_FEATURE
        kb = max(1, -(-entry_bytes // 1024))  # ceil to whole KB
        flat_out[pos] = 1 << (int(kb) - 1).bit_length()  # next power of two
    return out


def hashgrid_area_power_batch(
    scale_factors,
    log2_hashmap_sizes,
    nfp: Optional[NFPConfig] = None,
    clocks_ghz=None,
    n_engines=None,
    n_features: int = 2,
) -> Dict[str, np.ndarray]:
    """Cost hypercube with the SRAM axis derived from hash-table sizes.

    Convenience over :func:`ngpc_area_power_batch` for hash-grid DSE:
    the ``grid_sram_kb`` axis is computed by :func:`hashmap_sram_kb`, so
    the returned (K, C, H, E) arrays price each ``log2_hashmap_sizes``
    value at the SRAM capacity its table needs — the cost side of a
    quality-vs-area Pareto sweep over the hash-grid axes.
    """
    srams = hashmap_sram_kb(log2_hashmap_sizes, n_features=n_features)
    return ngpc_area_power_batch(
        scale_factors,
        nfp,
        clocks_ghz=clocks_ghz,
        grid_sram_kb=tuple(int(kb) for kb in srams.reshape(-1)),
        n_engines=n_engines,
    )
