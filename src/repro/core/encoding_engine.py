"""The input-encoding hardware engine (Fig. 9-a).

Two models live here:

1. :class:`EncodingEngineFunctional` — a bit-level functional model of the
   datapath: fixed-point coordinates flow through grid_scale -> pos_fract
   -> grid_index (with the power-of-two *shift-approximated modulo*) ->
   grid-SRAM lookup -> interpolation.  Tests verify it agrees with the
   software reference encoding.

2. A cycle/throughput model.  Each NFP has 16 per-level engines; an
   encoding with L levels processes ``16 // L`` inputs in parallel
   (Section V: hashgrid 1, densegrid 2, low-res densegrid 8).  Each engine
   retires ``ENCODING_LANES[scheme]`` lookup sets per cycle — the lane
   count is calibrated once so the four-app average kernel speedup at
   scaling factor 64 equals the paper's Figure 13 value, after which all
   other scales, apps and resolutions follow mechanistically.

Hardware feature storage is 1 byte per feature (quantized), which is what
makes one 2^19 x 2-feature level exactly fill the 1 MB grid SRAM; levels
that exceed the SRAM (e.g. GIA's 2^24-entry tables) spill to L2/DRAM and
pay the configured penalty on their share of lookups.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.apps.params import APP_NAMES, AppConfig, get_config
from repro.calibration import DEFAULT, paper, use
from repro.core.axes import (
    DEFAULT_ENCODING,
    GRIDTYPE_AUTO,
    LOG2_HASHMAP_INHERIT,
    PER_LEVEL_SCALE_INHERIT,
    EncodingVariant,
)
from repro.core.config import NGPCConfig
from repro.encodings.grids import GridEncoding, HASH_PRIMES
from repro.gpu.baseline import FHD_PIXELS, baseline_kernel_times_ms
from repro.gpu.kernels import samples_per_frame
from repro.utils.math import is_power_of_two

HW_BYTES_PER_FEATURE = 1

# fixed-point format of the datapath: positions are Q0.16
_FRAC_BITS = 16
_FRAC_ONE = 1 << _FRAC_BITS


def shift_modulo(value: np.ndarray, table_size: int) -> np.ndarray:
    """The hardware modulo: a mask, valid because T is a power of two.

    Section V: "We observe that the hash-map size is always power of two
    ... and approximate the modulo operation with shift operation".
    """
    if not is_power_of_two(table_size):
        raise ValueError(f"table size {table_size} is not a power of two")
    return np.asarray(value).astype(np.uint64) & np.uint64(table_size - 1)


class EncodingEngineFunctional:
    """Fixed-point functional emulation of one NFP's encoding engines.

    Wraps a software :class:`GridEncoding` and re-implements its forward
    pass the way the hardware computes it: integer position arithmetic,
    shift-based modulo, and per-level parallel lookups.  Feature tables are
    shared with the software encoding (optionally quantized).
    """

    def __init__(self, encoding: GridEncoding, quantize_features: bool = False):
        if not is_power_of_two(encoding.table_size):
            raise ValueError("hardware requires a power-of-two table size")
        self.encoding = encoding
        self.quantize_features = quantize_features
        if quantize_features:
            # symmetric 8-bit quantization per level, matching the 1 B/feature
            # SRAM budget
            self._tables = []
            self._scales = []
            for table in encoding.tables:
                scale = max(float(np.max(np.abs(table))), 1e-8) / 127.0
                q = np.clip(np.round(table / scale), -127, 127).astype(np.int8)
                self._tables.append(q)
                self._scales.append(scale)
        else:
            self._tables = encoding.tables
            self._scales = [1.0] * len(encoding.tables)

    # ------------------------------------------------------------------
    def _fixed_point_positions(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return np.round(x * _FRAC_ONE).astype(np.int64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Hardware-equivalent forward pass; returns (batch, L*F) features."""
        enc = self.encoding
        if x.ndim != 2 or x.shape[1] != enc.input_dim:
            raise ValueError(f"expected (batch, {enc.input_dim}) inputs")
        fx = self._fixed_point_positions(x)
        batch = fx.shape[0]
        out = np.zeros((batch, enc.output_dim), dtype=np.float64)
        offsets = enc._offsets
        for level in range(enc.n_levels):
            scale = enc.level_resolution(level)
            # grid_scale + pos_fract modules: integer multiply, split
            pos_fp = fx * scale  # Q16 fixed point
            pos0 = pos_fp >> _FRAC_BITS
            pos0 = np.minimum(pos0, scale - 1)
            frac_fp = pos_fp - (pos0 << _FRAC_BITS)
            corners = pos0[:, None, :] + offsets[None, :, :]
            indices = self._grid_index(corners, level)
            # interpol_weights module in fixed point
            weights_fp = np.ones((batch, offsets.shape[0]), dtype=np.int64) * _FRAC_ONE
            for dim in range(enc.input_dim):
                w = np.where(
                    offsets[None, :, dim] == 1,
                    frac_fp[:, dim : dim + 1],
                    _FRAC_ONE - frac_fp[:, dim : dim + 1],
                )
                weights_fp = (weights_fp * w) >> _FRAC_BITS
            gathered = self._tables[level][indices].astype(np.float64)
            gathered *= self._scales[level]
            weights = weights_fp.astype(np.float64) / _FRAC_ONE
            interp = (gathered * weights[:, :, None]).sum(axis=1)
            out[:, level * enc.n_features : (level + 1) * enc.n_features] = interp
        return out.astype(np.float32)

    def _grid_index(self, corners: np.ndarray, level: int) -> np.ndarray:
        """The grid_index module: hashed or 1:1, with shift-based modulo."""
        enc = self.encoding
        if enc.level_uses_hash(level):
            acc = np.zeros(corners.shape[:-1], dtype=np.uint64)
            for i in range(corners.shape[-1]):
                acc ^= corners[..., i].astype(np.uint64) * np.uint64(HASH_PRIMES[i])
            return shift_modulo(acc, enc.table_size).astype(np.int64)
        return enc._index_coords(corners, level)


# ---------------------------------------------------------------------------
# cycle / throughput model
# ---------------------------------------------------------------------------


def parallel_inputs(n_levels: int, n_engines=16):
    """Inputs processed simultaneously: 16 engines // L levels, min 1.

    ``n_engines`` may be an integer or an integer array (the batched
    sweep engine's engine-count axis); the scalar form returns a plain
    ``int``, the array form an elementwise ``int64`` array.  Engine
    counts are checked where they enter (``NFPConfig``, the axis
    registry), not here.
    """
    if n_levels < 1:
        raise ValueError("levels and engines must be positive")
    par = np.maximum(1, np.asarray(n_engines) // n_levels)
    return int(par) if np.isscalar(n_engines) else par


def _level_entries_variant(
    config: AppConfig, level: int, variant: EncodingVariant
) -> int:
    """Table entries for one level under an encoding-axis variant.

    The all-sentinel :data:`~repro.core.axes.DEFAULT_ENCODING` variant
    reproduces the scheme's own Table I storage policy exactly;
    ``gridtype="hash"`` caps the dense level at the (possibly
    overridden) 2^T-entry hash table, ``gridtype="tiled"`` stores the
    level's cells densely without hashing.
    """
    grid = config.grid
    if variant.log2_hashmap_size == LOG2_HASHMAP_INHERIT:
        table_size = grid.table_size
    else:
        table_size = 1 << variant.log2_hashmap_size
    if variant.gridtype == GRIDTYPE_AUTO:
        if grid.scheme == "multi_res_hashgrid":
            return min(_dense_entries(config, level, variant), table_size)
        if grid.scheme == "multi_res_densegrid":
            return _dense_entries(config, level, variant)
        return _tiled_entries(config, level, variant)
    if variant.gridtype == "hash":
        return min(_dense_entries(config, level, variant), table_size)
    return _tiled_entries(config, level, variant)


@lru_cache(maxsize=1024)
def level_bytes(
    config: AppConfig, variant: EncodingVariant = DEFAULT_ENCODING
) -> np.ndarray:
    """Hardware feature-table bytes of each level, an (L,) int64 array.

    A pure function of the Table I parameters and the encoding-axis
    variant (no calibration constant enters), so it is built once per
    (config, variant) and shared read-only by every block.
    """
    grid = config.grid
    table = np.asarray(
        [
            _level_entries_variant(config, level, variant)
            * grid.n_features
            * HW_BYTES_PER_FEATURE
            for level in range(grid.n_levels)
        ],
        dtype=np.int64,
    )
    table.setflags(write=False)
    return table


def level_spill_fraction(
    config: AppConfig,
    ngpc: NGPCConfig,
    variant: EncodingVariant = DEFAULT_ENCODING,
) -> float:
    """Fraction of levels whose table exceeds the per-engine grid SRAM."""
    sram = ngpc.nfp.grid_sram_bytes_per_engine
    spilled = int(np.count_nonzero(level_bytes(config, variant) > sram))
    return spilled / config.grid.n_levels


def level_spill_fraction_batch(
    config: AppConfig,
    grid_sram_kb,
    gridtypes=None,
    log2_hashmap_sizes=None,
    per_level_scales=None,
) -> np.ndarray:
    """Vectorized :func:`level_spill_fraction` over per-engine SRAM sizes.

    ``grid_sram_kb`` is an array of SRAM sizes in KB (validated where
    they enter: ``NFPConfig``, the axis registry); without encoding
    axes the result has the same shape.  Passing any of the encoding
    axes ``gridtypes`` (length T), ``log2_hashmap_sizes`` (length H) or
    ``per_level_scales`` (length R) switches to the extended path:
    ``grid_sram_kb`` is flattened to length G and the result is the
    (G, T, H, R) hypercube, axes not supplied taken (length 1) from the
    inherit sentinels.  The per-level byte counts (:func:`level_bytes`)
    are integers in both paths, so the comparison (and the
    spilled/levels division) matches the scalar path bit for bit.
    """
    n_levels = config.grid.n_levels
    sram_bytes = np.asarray(grid_sram_kb, dtype=np.int64) * 1024
    if gridtypes is None and log2_hashmap_sizes is None and per_level_scales is None:
        table = level_bytes(config).reshape((-1,) + (1,) * sram_bytes.ndim)
        return (table > sram_bytes).sum(axis=0) / n_levels
    gts = tuple(gridtypes) if gridtypes is not None else (GRIDTYPE_AUTO,)
    hs = (
        tuple(int(h) for h in log2_hashmap_sizes)
        if log2_hashmap_sizes is not None
        else (LOG2_HASHMAP_INHERIT,)
    )
    rs = (
        tuple(float(r) for r in per_level_scales)
        if per_level_scales is not None
        else (PER_LEVEL_SCALE_INHERIT,)
    )
    srams = sram_bytes.reshape(-1)
    out = np.empty((srams.size, len(gts), len(hs), len(rs)), dtype=np.float64)
    for t, gridtype in enumerate(gts):
        for h, log2_t in enumerate(hs):
            for r, pls in enumerate(rs):
                table = level_bytes(config, EncodingVariant(gridtype, log2_t, pls))
                spilled = (table[:, None] > srams[None, :]).sum(axis=0)
                out[:, t, h, r] = spilled / n_levels
    return out


def _resolution(
    config: AppConfig, level: int, variant: EncodingVariant = DEFAULT_ENCODING
) -> int:
    if variant.per_level_scale == PER_LEVEL_SCALE_INHERIT:
        growth = config.grid.growth_factor
    else:
        growth = variant.per_level_scale
    return int(np.floor(config.grid.n_min * growth**level))


def _dense_entries(
    config: AppConfig, level: int, variant: EncodingVariant = DEFAULT_ENCODING
) -> int:
    return (_resolution(config, level, variant) + 1) ** config.spatial_dim


def _tiled_entries(
    config: AppConfig, level: int, variant: EncodingVariant = DEFAULT_ENCODING
) -> int:
    return _resolution(config, level, variant) ** config.spatial_dim


@lru_cache(maxsize=None)
def _calibrated_lanes(scheme: str) -> float:
    """Lanes per engine such that the four-app mean kernel speedup at
    scaling factor 64 equals the paper's Figure 13 anchor for ``scheme``.

    A hardware parameter, fitted once against the nominal calibration
    (:data:`~repro.calibration.DEFAULT`): a perturbed calibration moves
    the GPU baseline, not the engine design."""
    target = paper.FIG13_KERNEL_SPEEDUPS_AT_64[scheme]["encoding"]
    ngpc = NGPCConfig(scale_factor=64)
    speedups_at_unit_lanes = []
    with use(DEFAULT):
        for app in APP_NAMES:
            config = get_config(app, scheme)
            time_unit = _engine_time_ms(config, FHD_PIXELS, ngpc, lanes=1.0)
            base = baseline_kernel_times_ms(app, scheme, FHD_PIXELS)["encoding"]
            speedups_at_unit_lanes.append(base / time_unit)
    return target / (sum(speedups_at_unit_lanes) / len(speedups_at_unit_lanes))


def _engine_time_ms(
    config: AppConfig,
    n_pixels: int,
    ngpc: NGPCConfig,
    lanes: float,
    variant: EncodingVariant = DEFAULT_ENCODING,
) -> float:
    """Engine time with an explicit lane count (no pipeline-fill term)."""
    samples = samples_per_frame(config, n_pixels)
    par = parallel_inputs(config.grid.n_levels, ngpc.nfp.n_encoding_engines)
    spill = level_spill_fraction(config, ngpc, variant)
    throughput = par * lanes * ngpc.n_nfps  # input sets per cycle
    cycles = samples / throughput
    cycles *= (1.0 - spill) + spill * ngpc.l2_spill_penalty
    return cycles / ngpc.nfp.cycles_per_ms


def encoding_engine_time_ms(
    config: AppConfig,
    n_pixels: int = FHD_PIXELS,
    ngpc: Optional[NGPCConfig] = None,
    encoding: EncodingVariant = DEFAULT_ENCODING,
) -> float:
    """Time for the NGPC encoding engines to encode one frame (ms)."""
    ngpc = ngpc or NGPCConfig()
    if n_pixels <= 0:
        raise ValueError("n_pixels must be positive")
    lanes = _calibrated_lanes(config.grid.scheme)
    fill = ngpc.nfp.pipeline_fill_cycles / ngpc.nfp.cycles_per_ms
    return _engine_time_ms(config, n_pixels, ngpc, lanes, encoding) + fill


def encoding_engine_time_ms_batch(
    config: AppConfig,
    n_pixels,
    scale_factors,
    ngpc: Optional[NGPCConfig] = None,
    clocks_ghz=None,
    grid_sram_kb=None,
    n_engines=None,
    gridtypes=None,
    log2_hashmap_sizes=None,
    per_level_scales=None,
) -> np.ndarray:
    """Vectorized :func:`encoding_engine_time_ms` over the design axes.

    With only ``scale_factors`` (length S) and ``n_pixels`` (length P)
    given, broadcasts to an (S, P) float64 array of engine times —
    ``ngpc`` supplies the non-scale parameters (NFP geometry, spill
    penalty) and its own ``scale_factor`` is ignored.  Passing any of
    the architecture axes ``clocks_ghz`` (length C), ``grid_sram_kb``
    (length G, per-engine KB) or ``n_engines`` (length E, encoding
    engines per NFP) switches to the N-dimensional fast path: the result
    is the full (S, P, C, G, E) hypercube, with axes not supplied taken
    (length 1) from ``ngpc``.  Passing any of the registry's encoding
    axes — ``gridtypes`` (T), ``log2_hashmap_sizes`` (H),
    ``per_level_scales`` (R) — appends their dimensions for the full
    (S, P, C, G, E, T, H, R) hypercube (the extension enters through
    the grid-SRAM spill model only).  All paths mirror the scalar
    arithmetic operation for operation, so batched == scalar bit for
    bit.  Axis values are not re-checked here: they are validated where
    they enter (:class:`~repro.core.dse.SweepGrid`,
    :func:`~repro.core.emulator.emulate_batch`, ``NGPCConfig``).
    """
    ngpc = ngpc or NGPCConfig()
    extension = not (
        gridtypes is None
        and log2_hashmap_sizes is None
        and per_level_scales is None
    )
    legacy = (
        clocks_ghz is None and grid_sram_kb is None and n_engines is None
        and not extension
    )
    trail = (1, 1, 1) if extension else ()
    scales = np.asarray(scale_factors, dtype=np.float64).reshape(
        (-1, 1, 1, 1, 1) + trail
    )
    pixels = np.asarray(n_pixels, dtype=np.float64).reshape(
        (1, -1, 1, 1, 1) + trail
    )
    if clocks_ghz is None:
        clocks_ghz = (ngpc.nfp.clock_ghz,)
    if grid_sram_kb is None:
        grid_sram_kb = (ngpc.nfp.grid_sram_kb_per_engine,)
    if n_engines is None:
        n_engines = (ngpc.nfp.n_encoding_engines,)
    clocks = np.asarray(clocks_ghz, dtype=np.float64).reshape(
        (1, 1, -1, 1, 1) + trail
    )
    srams = np.asarray(grid_sram_kb, dtype=np.int64).reshape(
        (1, 1, 1, -1, 1) + trail
    )
    engines = np.asarray(n_engines, dtype=np.int64).reshape(
        (1, 1, 1, 1, -1) + trail
    )
    lanes = _calibrated_lanes(config.grid.scheme)
    par = parallel_inputs(config.grid.n_levels, engines)
    if extension:
        spill = level_spill_fraction_batch(
            config,
            srams.reshape(-1),
            gridtypes=gridtypes,
            log2_hashmap_sizes=log2_hashmap_sizes,
            per_level_scales=per_level_scales,
        )  # (G, T, H, R)
        spill = spill.reshape((1, 1, 1, spill.shape[0], 1) + spill.shape[1:])
    else:
        spill = level_spill_fraction_batch(config, srams)
    samples = samples_per_frame(config, pixels)
    throughput = (par * lanes) * scales
    cycles = samples / throughput
    cycles = cycles * ((1.0 - spill) + spill * ngpc.l2_spill_penalty)
    cycles_per_ms = clocks * 1e6
    fill = ngpc.nfp.pipeline_fill_cycles / cycles_per_ms
    time_ms = cycles / cycles_per_ms + fill
    if legacy:  # classic (S, P) plane: drop the singleton arch axes
        return time_ms.reshape(time_ms.shape[:2])
    return time_ms


def encoding_kernel_speedup(
    app: str,
    scheme: str,
    scale_factor: int,
    n_pixels: int = FHD_PIXELS,
) -> float:
    """GPU encoding-kernel time over NGPC engine time (Fig. 13 bars)."""
    config = get_config(app, scheme)
    ngpc = NGPCConfig(scale_factor=scale_factor)
    base = baseline_kernel_times_ms(app, scheme, n_pixels)["encoding"]
    return base / encoding_engine_time_ms(config, n_pixels, ngpc)
