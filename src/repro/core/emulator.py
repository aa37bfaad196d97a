"""The evaluation emulator (Fig. 11).

Inputs: the application parameters (Table I), the architecture parameters
(:class:`NGPCConfig`), the GPU kernel-level baseline, and the frame
resolution.  Outputs: the end-to-end accelerated frame time, the speedup
over the GPU baseline, and the per-stage decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES, get_config
from repro.calibration import current
from repro.core.amdahl import amdahl_bound
from repro.core.axes import DEFAULT_ENCODING, EncodingVariant, axis as axis_spec
from repro.core.cache import ModelCache
from repro.core.config import NGPCConfig
from repro.core.encoding_engine import (
    encoding_engine_time_ms,
    encoding_engine_time_ms_batch,
)
from repro.core.fusion import DEFAULT_FUSION
from repro.core.mlp_engine import mlp_engine_time_ms, mlp_engine_time_ms_batch
from repro.core.ngpc import (
    NGPC,
    PipelineSchedule,
    dma_overhead_ms_batch,
    pipeline_total_ms_batch,
)
from repro.gpu.baseline import FHD_PIXELS, baseline_kernel_times_ms


@dataclass(frozen=True)
class EmulationResult:
    """One emulator run: baseline vs NGPC-accelerated frame."""

    app: str
    scheme: str
    scale_factor: int
    n_pixels: int
    baseline_ms: float
    accelerated_ms: float
    encoding_engine_ms: float
    mlp_engine_ms: float
    dma_ms: float
    fused_rest_ms: float
    amdahl_bound: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.accelerated_ms

    @property
    def fps(self) -> float:
        return 1000.0 / self.accelerated_ms

    def respects_amdahl(self) -> bool:
        """The Section VI sanity check: speedup under the Amdahl line."""
        return self.speedup <= self.amdahl_bound * (1.0 + 1e-9)


class Emulator:
    """End-to-end emulator over all apps, schemes and scaling factors."""

    def __init__(self, ngpc_config: Optional[NGPCConfig] = None):
        self.ngpc = NGPC(ngpc_config)

    def run(
        self,
        app: str,
        scheme: str,
        n_pixels: int = FHD_PIXELS,
        fuse_engines: bool = True,
        fuse_rest: bool = True,
        overlap: bool = True,
        encoding: EncodingVariant = DEFAULT_ENCODING,
    ) -> EmulationResult:
        if app not in APP_NAMES:
            raise ValueError(f"unknown app {app!r}")
        if scheme not in ENCODING_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        config = get_config(app, scheme)
        baseline = baseline_kernel_times_ms(app, scheme, n_pixels)
        schedule: PipelineSchedule = self.ngpc.schedule(
            config,
            n_pixels,
            fuse_engines=fuse_engines,
            fuse_rest=fuse_rest,
            overlap=overlap,
            encoding=encoding,
        )
        enc = encoding_engine_time_ms(config, n_pixels, self.ngpc.config, encoding)
        mlp = mlp_engine_time_ms(config, n_pixels, self.ngpc.config)
        dma = self.ngpc.dma_overhead_ms(app, n_pixels)
        return EmulationResult(
            app=app,
            scheme=scheme,
            scale_factor=self.ngpc.scale_factor,
            n_pixels=n_pixels,
            baseline_ms=baseline["total"],
            accelerated_ms=schedule.total_ms,
            encoding_engine_ms=enc,
            mlp_engine_ms=mlp,
            dma_ms=dma,
            fused_rest_ms=schedule.rest_time_ms,
            amdahl_bound=amdahl_bound(app, scheme),
        )


#: memoization layer of the DSE engine: dense sweeps revisit the same
#: (app, scheme, config, pixels) points thousands of times.  Bounded so
#: long-lived sessions sweeping perturbed calibrations (each a distinct
#: fingerprint) cannot grow the cache without limit.
_EMULATE_CACHE = ModelCache("emulate", maxsize=65536)


def emulate_with_config(
    app: str,
    scheme: str,
    config: NGPCConfig,
    n_pixels: int = FHD_PIXELS,
    encoding: EncodingVariant = DEFAULT_ENCODING,
) -> EmulationResult:
    """One emulator run for an arbitrary :class:`NGPCConfig`, memoized.

    The cache key is the full architecture configuration — scale factor,
    NFP geometry (clock, SRAM sizes, engine count), pipeline batch
    count and encoding-axis variant — plus the fingerprint of the
    calibration in use (:func:`repro.calibration.current`), so
    architecture-axis sweeps and the perturbed calibrations of
    :mod:`repro.analysis.sensitivity` each see exactly their own
    results.  Cache hits return the identical (frozen) result object.
    """
    key = (app, scheme, config, n_pixels, encoding, current().fingerprint)
    cached = _EMULATE_CACHE.get(key)
    if cached is not None:
        return cached
    result = Emulator(config).run(app, scheme, n_pixels, encoding=encoding)
    _EMULATE_CACHE.put(key, result)
    return result


def emulate(
    app: str,
    scheme: str,
    scale_factor: int = 8,
    n_pixels: int = FHD_PIXELS,
) -> EmulationResult:
    """Convenience wrapper: one emulator run, memoized.

    Results are cached on ``(app, scheme, NGPCConfig, n_pixels)`` plus
    the fingerprint of the calibration in use, so a perturbed
    calibration (:mod:`repro.analysis.sensitivity`) always sees its own
    values.  Cache hits return the identical (frozen) result object.
    """
    return emulate_with_config(
        app, scheme, NGPCConfig(scale_factor=scale_factor), n_pixels
    )


def emulate_uncached(
    app: str,
    scheme: str,
    scale_factor: int = 8,
    n_pixels: int = FHD_PIXELS,
) -> EmulationResult:
    """One emulator run bypassing the memoization layer (benchmarks)."""
    return Emulator(NGPCConfig(scale_factor=scale_factor)).run(app, scheme, n_pixels)


#: the base configuration of a kernel call given none (frozen, so one
#: instance serves every call)
_DEFAULT_NGPC = NGPCConfig()


def emulate_batch(
    app: str,
    scheme: str,
    scale_factors=(8, 16, 32, 64),
    n_pixels=FHD_PIXELS,
    ngpc: Optional[NGPCConfig] = None,
    fuse_rest: bool = True,
    overlap: bool = True,
    clocks_ghz=None,
    grid_sram_kb=None,
    n_engines=None,
    n_batches=None,
    gridtypes=None,
    log2_hashmap_sizes=None,
    per_level_scales=None,
) -> Dict[str, np.ndarray]:
    """Vectorized emulator: every :class:`EmulationResult` field as an array.

    Evaluates one (app, scheme) pair over the full cartesian product of
    the design axes in one shot via the NumPy fast paths of the engine
    models, instead of one scalar :func:`emulate` call per point.  With
    only ``scale_factors`` (length S) and ``n_pixels`` (length P) given,
    each returned array has shape (S, P).  Passing any of the
    architecture axes — ``clocks_ghz`` (C, NFP clock), ``grid_sram_kb``
    (G, per-engine grid SRAM in KB), ``n_engines`` (E, encoding engines
    per NFP) or ``n_batches`` (B, pipeline batches) — switches to the
    N-dimensional fast path and every array has the full hypercube shape
    (S, P, C, G, E, B), with axes not supplied taken (length 1) from
    ``ngpc``.  Passing any of the registry's encoding axes —
    ``gridtypes`` (T), ``log2_hashmap_sizes`` (H), ``per_level_scales``
    (R) — appends their dimensions for the extended hypercube
    (S, P, C, G, E, B, T, H, R); axes not supplied hold the one-value
    inherit sentinels ("use the app's Table I parameters").
    ``amdahl_bound`` is a scalar in every mode.  The batched arithmetic
    mirrors the scalar path operation for operation, so the two agree
    bit for bit (the equivalence harness in
    ``tests/test_sweep_engine.py`` enforces this).

    ``ngpc`` supplies the remaining architecture parameters (MAC
    geometry, spill penalty, defaults for unswept axes); its own
    ``scale_factor`` is ignored in favour of the ``scale_factors`` axis.

    This is the dense view of :func:`emulate_batch_columns`: each
    timing field is its compact column broadcast (read-only, no copy)
    to the hypercube, plus the derived ``speedup``.  Every value given
    is validated here first, with the registry's validator and message
    (the ones :class:`~repro.core.dse.SweepGrid` raises).
    """
    axes = dict(
        clocks_ghz=clocks_ghz, grid_sram_kb=grid_sram_kb,
        n_engines=n_engines, n_batches=n_batches, gridtypes=gridtypes,
        log2_hashmap_sizes=log2_hashmap_sizes,
        per_level_scales=per_level_scales,
    )
    axis_spec("apps").checked(app)
    axis_spec("schemes").checked(scheme)
    scales = axis_spec("scale_factors").checked(scale_factors)
    # pixel counts keep their input dtype: the models compute with them
    # as given
    pixels = np.asarray(n_pixels).reshape(-1)
    for n in pixels:
        axis_spec("pixel_counts").validate(n)
    axes = {
        name: None if values is None else axis_spec(name).checked(values)
        for name, values in axes.items()
    }
    out = emulate_batch_columns(
        app, scheme, scales, pixels, ngpc, fuse_rest, overlap, **axes
    )
    bound = out.pop("amdahl_bound")
    full = out["accelerated_ms"].shape
    # the classic call squeezes the singleton axes back to (S, P)
    shape = full[:2] if all(v is None for v in axes.values()) else full
    out = {
        name: np.broadcast_to(column, full).reshape(shape)
        for name, column in out.items()
    }
    out["speedup"] = out["baseline_ms"] / out["accelerated_ms"]
    out["amdahl_bound"] = bound
    return out


def emulate_batch_columns(
    app: str,
    scheme: str,
    scale_factors=(8, 16, 32, 64),
    n_pixels=FHD_PIXELS,
    ngpc: Optional[NGPCConfig] = None,
    fuse_rest: bool = True,
    overlap: bool = True,
    clocks_ghz=None,
    grid_sram_kb=None,
    n_engines=None,
    n_batches=None,
    gridtypes=None,
    log2_hashmap_sizes=None,
    per_level_scales=None,
    out=None,
) -> Dict[str, np.ndarray]:
    """The batched emulator's timing fields, each at its own rank.

    Same arguments and arithmetic as :func:`emulate_batch`, always over
    the N-dimensional hypercube (S, P, C, G, E, B), extended by
    (T, H, R) when an encoding axis is passed.  Each timing field keeps
    extent 1 along the axes it does not vary along, the layout
    :data:`repro.core.dse.TIMING_AXES` names: ``accelerated_ms`` is
    full rank, ``encoding_engine_ms`` (S, P, C, G, E, 1[, T, H, R]),
    ``mlp_engine_ms`` (S, P, C, 1, ...), ``dma_ms`` (S, P, 1, ...), and
    ``baseline_ms`` and ``fused_rest_ms`` (1, P, 1, ...).  Nothing is
    broadcast to the hypercube and no ``speedup`` is formed; the
    block path (:func:`repro.core.dse.evaluate_block`) reads this.
    ``out`` (optional, float64, ``accelerated_ms``'s shape) receives
    the makespan in place (:func:`~repro.core.ngpc.pipeline_total_ms_batch`)
    and is returned as ``accelerated_ms``: a caller passes its slot of
    an assembled result and no block-sized copy is made.
    """
    base = ngpc or _DEFAULT_NGPC
    config = get_config(app, scheme)
    extension = not (
        gridtypes is None
        and log2_hashmap_sizes is None
        and per_level_scales is None
    )
    if not overlap:
        if n_batches is not None:
            raise ValueError(
                "overlap=False (one batch, no pipelining) conflicts with "
                "an explicit n_batches axis"
            )
        n_batches = (1,)
    # the values are trusted: evaluate_block's come from a SweepGrid,
    # which validated them once, where they entered the program, and
    # emulate_batch validates its own.  An unswept architecture axis
    # holds the base config's value (an unswept encoding axis, its
    # sentinel, is filled in by the spill model).
    given = dict(
        clocks_ghz=clocks_ghz, grid_sram_kb=grid_sram_kb,
        n_engines=n_engines, n_batches=n_batches,
    )
    clocks, srams, engines, batches = (
        (axis_spec(name).inherit(base),) if values is None else values
        for name, values in given.items()
    )
    pixels = np.asarray(n_pixels).reshape(-1)

    baseline = baseline_kernel_times_ms(app, scheme, pixels)  # (P,) arrays
    # -- N-dimensional architecture hypercube ------------------------------
    # (the classic (S, P) call is the same computation with singleton
    # architecture axes, which emulate_batch squeezes)
    enc = encoding_engine_time_ms_batch(
        config, pixels, scale_factors, base,
        clocks_ghz=clocks, grid_sram_kb=srams, n_engines=engines,
        gridtypes=gridtypes, log2_hashmap_sizes=log2_hashmap_sizes,
        per_level_scales=per_level_scales,
    )  # (S, P, C, G, E) or (S, P, C, G, E, T, H, R)
    mlp = mlp_engine_time_ms_batch(
        config, pixels, scale_factors, base, clocks_ghz=clocks
    )  # (S, P, C, 1, 1)
    dma = dma_overhead_ms_batch(app, pixels, scale_factors)  # (S, P)
    nd = 8 if extension else 5  # hypercube rank before the batch axis

    def at_rank(a: np.ndarray) -> np.ndarray:
        # the hypercube's rank, extent 1 along the axes ``a`` lacks; the
        # batch axis broadcasts in at position 5 (after the arch axes,
        # before any encoding axes) — elementwise, so its position
        # cannot perturb the arithmetic
        shape = a.shape + (1,) * (nd - a.ndim)
        return a.reshape(shape[:5] + (1,) + shape[5:])

    enc, mlp, dma = at_rank(enc), at_rank(mlp), at_rank(dma)
    rest = baseline["rest"]
    if fuse_rest:  # fused_rest_time_ms, on the baseline already at hand
        rest = DEFAULT_FUSION.fused(rest)
    rest = at_rank(np.asarray(rest).reshape(1, -1))
    batches_nd = np.asarray(batches, dtype=np.int64).reshape(
        (1, 1, 1, 1, 1, -1) + (1,) * (nd - 5)
    )
    total = pipeline_total_ms_batch(
        enc + mlp + dma, rest, batches_nd, out=out
    )  # (S, P, C, G, E, B[, T, H, R])
    # every field at the hypercube's rank, extent 1 along the axes it
    # does not vary along
    return {
        "baseline_ms": at_rank(np.asarray(baseline["total"]).reshape(1, -1)),
        "accelerated_ms": total,
        "encoding_engine_ms": enc,
        "mlp_engine_ms": mlp,
        "dma_ms": dma,
        "fused_rest_ms": rest,
        "amdahl_bound": amdahl_bound(app, scheme),
    }


def speedup_table(scheme: str, n_pixels: int = FHD_PIXELS) -> Dict[int, Dict[str, float]]:
    """Fig. 12 data: speedup per scaling factor per app, plus the average."""
    table: Dict[int, Dict[str, float]] = {}
    for scale in (8, 16, 32, 64):
        row = {}
        for app in APP_NAMES:
            row[app] = emulate(app, scheme, scale, n_pixels).speedup
        row["average"] = sum(row.values()) / len(APP_NAMES)
        table[scale] = row
    return table


def max_pixels_within_budget(
    app: str,
    scheme: str,
    scale_factor: int,
    fps: float,
    use_ngpc: bool = True,
) -> int:
    """Largest pixel count renderable within a 1000/fps ms budget (Fig. 14).

    Frame time is linear in pixel count for both baseline and NGPC, so the
    answer follows from one FHD evaluation.
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    budget_ms = 1000.0 / fps
    if use_ngpc:
        per_frame = emulate(app, scheme, scale_factor).accelerated_ms
    else:
        per_frame = baseline_kernel_times_ms(app, scheme)["total"]
    return int(budget_ms / per_frame * FHD_PIXELS)
