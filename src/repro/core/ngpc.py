"""The NGPC cluster: pipeline schedule and IO bandwidth model (Fig. 10).

Execution follows the Fig. 10-b programming model: the frame's inputs are
split into batches; while the GPU's streaming multiprocessors run the
(fused) rest kernels of batch *i*, the NGPC runs the encoding + MLP
kernels of batch *i+1*.  End-to-end frame time is therefore the classic
two-stage pipeline makespan, plus the per-batch data movement the NGPC
pays to read inputs from and write outputs to GPU memory (Table III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.params import APP_NAMES, AppConfig, get_config
from repro.calibration import current, paper
from repro.core.axes import DEFAULT_ENCODING, EncodingVariant
from repro.core.config import NGPCConfig
from repro.core.encoding_engine import encoding_engine_time_ms
from repro.core.fusion import DEFAULT_FUSION, FusionModel, fused_rest_time_ms
from repro.core.mlp_engine import mlp_engine_time_ms
from repro.gpu.baseline import FHD_PIXELS
from repro.gpu.device import RTX3090

# ---------------------------------------------------------------------------
# IO model (Table III).  Bytes per sample crossing the NGPC boundary:
# 12 B of fp32 coordinates per MLP stage in (NeRF's two-network pipeline
# transfers positions and directions separately), 16 B out for NeRF's
# (RGB, sigma), 12 B out otherwise.  The sample rate is the Table III
# operating point: ~5.83 samples per pixel of a 4K frame at 60 FPS.
# ---------------------------------------------------------------------------
IO_SAMPLES_PER_PIXEL = 5.826


@dataclass(frozen=True)
class BandwidthReport:
    """IO bandwidth requirement of the NGPC for one application."""

    app: str
    input_gbps: float
    output_gbps: float
    access_time_ms: float

    n_stages: int = 1

    @property
    def total_gbps(self) -> float:
        """Boundary traffic: (in + out) per network stage.

        NeRF's two-network pipeline (density then color) crosses the
        boundary twice per sample, which is why Table III's NeRF total is
        twice its in+out sum while the single-stage apps' totals equal it.
        """
        return self.n_stages * (self.input_gbps + self.output_gbps)

    @property
    def fraction_of_gpu_bandwidth(self) -> float:
        return self.total_gbps / paper.RTX3090_MEM_BW_GBPS


def bandwidth_model(
    app: str,
    n_pixels: int = paper.RESOLUTIONS["4k"],
    fps: float = 60.0,
) -> BandwidthReport:
    """NGPC IO bandwidth at an operating point (defaults: 4K @ 60 FPS)."""
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    if n_pixels <= 0 or fps <= 0:
        raise ValueError("n_pixels and fps must be positive")
    n_stages = 2 if app == "nerf" else 1
    in_bytes_per_sample = 12.0 * n_stages
    out_bytes_per_sample = 16.0 if app == "nerf" else 12.0
    samples_per_s = n_pixels * IO_SAMPLES_PER_PIXEL * fps
    input_gbps = samples_per_s * in_bytes_per_sample / 1e9
    output_gbps = samples_per_s * out_bytes_per_sample / 1e9
    total_bytes_per_frame = n_stages * (input_gbps + output_gbps) * 1e9 / fps
    access_time_ms = total_bytes_per_frame / RTX3090.bytes_per_second * 1e3
    return BandwidthReport(
        app=app,
        input_gbps=input_gbps,
        output_gbps=output_gbps,
        access_time_ms=access_time_ms,
        n_stages=n_stages,
    )


def bandwidth_model_batch(app: str, n_pixels, fps) -> Dict[str, np.ndarray]:
    """Vectorized :func:`bandwidth_model` over pixel counts and FPS targets.

    ``n_pixels`` and ``fps`` broadcast elementwise (reshape them yourself
    for an outer product).  Returns arrays for ``input_gbps``,
    ``output_gbps``, ``total_gbps`` and ``access_time_ms`` with the same
    arithmetic as the scalar path.
    """
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    pixels = np.asarray(n_pixels, dtype=np.float64)
    fps_arr = np.asarray(fps, dtype=np.float64)
    if np.any(pixels <= 0) or np.any(fps_arr <= 0):
        raise ValueError("n_pixels and fps must be positive")
    n_stages = 2 if app == "nerf" else 1
    in_bytes_per_sample = 12.0 * n_stages
    out_bytes_per_sample = 16.0 if app == "nerf" else 12.0
    samples_per_s = pixels * IO_SAMPLES_PER_PIXEL * fps_arr
    input_gbps = samples_per_s * in_bytes_per_sample / 1e9
    output_gbps = samples_per_s * out_bytes_per_sample / 1e9
    total_bytes_per_frame = n_stages * (input_gbps + output_gbps) * 1e9 / fps_arr
    access_time_ms = total_bytes_per_frame / RTX3090.bytes_per_second * 1e3
    return {
        "input_gbps": input_gbps,
        "output_gbps": output_gbps,
        "total_gbps": n_stages * (input_gbps + output_gbps),
        "access_time_ms": access_time_ms,
    }


# ---------------------------------------------------------------------------
# pipeline schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSchedule:
    """Makespan decomposition of one frame on GPU + NGPC."""

    ngpc_time_ms: float  # total NGPC stage time (encoding + MLP + DMA)
    rest_time_ms: float  # total fused rest-kernel time on the SMs
    n_batches: int

    def __post_init__(self):
        if self.ngpc_time_ms < 0 or self.rest_time_ms < 0:
            raise ValueError("stage times must be non-negative")
        if self.n_batches < 1:
            raise ValueError("need at least one batch")

    @property
    def ngpc_batch_ms(self) -> float:
        return self.ngpc_time_ms / self.n_batches

    @property
    def rest_batch_ms(self) -> float:
        return self.rest_time_ms / self.n_batches

    @property
    def total_ms(self) -> float:
        """Two-stage pipeline makespan: fill + (B-1) bottleneck + drain."""
        bottleneck = max(self.ngpc_batch_ms, self.rest_batch_ms)
        return (
            self.ngpc_batch_ms
            + (self.n_batches - 1) * bottleneck
            + self.rest_batch_ms
        )

    @property
    def bottleneck(self) -> str:
        return "ngpc" if self.ngpc_batch_ms >= self.rest_batch_ms else "rest"


def dma_overhead_ms_batch(app: str, n_pixels, scale_factors) -> np.ndarray:
    """Vectorized :meth:`NGPC.dma_overhead_ms` over scales x pixels.

    Returns an (S, P) array.  The per-scale growth factor is computed
    with scalar Python ``**`` (one call per scale) so the result matches
    the scalar path bit for bit.  Pixel counts are validated where they
    enter (:class:`~repro.core.dse.SweepGrid`,
    :func:`~repro.core.emulator.emulate_batch`), not re-checked here.
    """
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    pixels = np.asarray(n_pixels, dtype=np.float64).reshape(1, -1)
    calibration = current()
    base = calibration.dma_overheads[app]
    growth = np.array(
        [
            (64.0 / float(scale)) ** calibration.overhead_scale_exponent
            for scale in np.asarray(scale_factors).reshape(-1)
        ],
        dtype=np.float64,
    ).reshape(-1, 1)
    return (base * growth) * (pixels / FHD_PIXELS)


#: most elements one slab of a slabbed elementwise pass holds (512 KB of
#: float64): its temporaries stay in cache and in reused heap memory,
#: where a grid-sized temporary is fresh pages on every call (the
#: makespan kernel, with five operands live, cuts a quarter of it)
SLAB_POINTS = 1 << 16


def slabs(shape, keep: int = 0, tail: int = 0, points: Optional[int] = None):
    """Index tuples cutting an array of ``shape`` into slabs.

    Each slab holds at most ``points`` elements (:data:`SLAB_POINTS`
    when None; more only when the axes kept whole exceed it on their
    own).  The first ``keep`` and the last ``tail`` axes are kept whole,
    and so is every axis after the cut axis; the cut axis is taken in
    windows, the axes between ``keep`` and it one index at a time (as
    1-wide slices, so every slab keeps the array's rank and broadcasts
    as the whole array does).
    Slabs come in C order and cover the array exactly once.
    """
    points = SLAB_POINTS if points is None else points
    shape = tuple(int(n) for n in shape)
    middle = shape[keep:len(shape) - tail]
    whole = (slice(None),) * len(shape)
    size = math.prod(shape)
    if size <= points or not middle:
        yield whole
        return
    lead, trail = whole[:keep], whole[:tail]
    cut = 0
    behind = size // middle[0]  # elements per index of the cut axis
    while cut < len(middle) - 1 and behind > points:
        cut += 1
        behind //= middle[cut]
    # the cut axis's window: as many of its indices as fit next to the
    # axes behind it
    step = max(1, points // behind)
    for outer in np.ndindex(*middle[:cut]):
        index = lead + tuple(slice(i, i + 1) for i in outer)
        for lo in range(0, middle[cut], step):
            yield index + (slice(lo, lo + step),) + trail


def _slab_of(array: np.ndarray, index: Tuple) -> np.ndarray:
    """``array``'s part of a slab of the shape it broadcasts to.

    ``array`` has the slab's rank; along an axis where it holds extent
    1 it is taken whole, as broadcasting would read it.
    """
    return array[tuple(
        part if n != 1 else slice(None) for part, n in zip(index, array.shape)
    )]


def pipeline_total_ms_batch(ngpc_time_ms, rest_time_ms, n_batches, out=None):
    """Vectorized :attr:`PipelineSchedule.total_ms` (elementwise makespan).

    ``n_batches`` may be a scalar or an integer array (a swept pipeline
    axis); it broadcasts elementwise against the stage times with the
    same arithmetic as the scalar makespan.  The makespan is written
    into ``out`` (float64, the broadcast shape, possibly a strided slot;
    allocated when None); returns ``out``.  A row is the batch axis (the
    first one ``n_batches`` varies along) and the axes behind it; slabs
    of rows are built one at a time over contiguous operands: the batch
    counts, and a stage time equal in every row divided by them, are
    tiled over a slab once per call, and dividing a stage time that
    varies by row by the tiled counts repeats it along the batch axis.
    Each later pass is one long inner loop, not a few batches per cell;
    the passes are the scalar makespan's in its order, so the bits are
    too.
    """
    n_batches = np.asarray(n_batches)
    if (n_batches < 1).any():
        raise ValueError("need at least one batch")
    # batch counts are exact in float64, so dividing by the float is
    # dividing by the integer; converting once keeps the full-size
    # operations on one dtype
    n_batches = n_batches.astype(np.float64)
    operands = [np.asarray(ngpc_time_ms), np.asarray(rest_time_ms), n_batches]
    shape = np.broadcast(*operands).shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    ngpc, rest, batches = (
        a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in operands
    )
    axis = next((i for i, n in enumerate(batches.shape) if n != 1), len(shape))
    run = shape[axis:]
    # five slab-sized operands are live at once, so the kernel's slab is
    # a quarter of the queries' and stays in a core's L2
    rows = max(1, min(
        math.prod(shape[:axis]), SLAB_POINTS // 4 // max(1, math.prod(run))
    ))

    def tiled(a: np.ndarray) -> np.ndarray:  # a is the same in every row
        laid = np.empty((rows,) + run)
        laid[...] = a[(0,) * axis]
        return laid.reshape(-1)

    counts = tiled(batches)
    counts_less_one = counts - 1.0
    stages = [
        (a, tiled(a) / counts if math.prod(a.shape[:axis]) == 1 else None)
        for a in (ngpc, rest)
    ]
    for index in slabs(shape, tail=len(run), points=rows * math.prod(run)):
        total = out[index + (...,)]
        n = total.size
        ngpc_batch, rest_batch = (
            _slab_of(a, index) / counts[:n].reshape(total.shape)
            if per_batch is None else per_batch[:n].reshape(total.shape)
            for a, per_batch in stages
        )
        # ngpc_batch + (n_batches - 1) * bottleneck + rest_batch, in
        # place on the output slab: the swapped operands of + and *
        # commute exactly, so the bits are the scalar makespan's
        np.maximum(ngpc_batch, rest_batch, out=total)
        total *= counts_less_one[:n].reshape(total.shape)
        total += ngpc_batch
        total += rest_batch
    return out


class NGPC:
    """A configured NGPC attached to the baseline GPU."""

    def __init__(self, config: Optional[NGPCConfig] = None):
        self.config = config or NGPCConfig()

    @property
    def scale_factor(self) -> int:
        return self.config.scale_factor

    def dma_overhead_ms(self, app: str, n_pixels: int) -> float:
        """Per-frame data-movement overhead of the NGPC stage.

        Anchored at scaling factor 64 / FHD by the fitted per-app constants
        (consistent with Table III access times); scales linearly with
        pixels and inversely with the scaling factor, since more NFPs keep
        more batches in flight over the same L2 interface.
        """
        calibration = current()
        base = calibration.dma_overheads[app]
        growth = (64.0 / self.scale_factor) ** calibration.overhead_scale_exponent
        return base * growth * (n_pixels / FHD_PIXELS)

    def engine_fusion_penalty_ms(self, app_config: AppConfig, n_pixels: int) -> float:
        """Extra time paid if the encoding and MLP engines were NOT fused.

        Without fusion the encoded features round-trip through device
        memory (Fig. 7): written by the encoding stage and re-read by the
        MLP stage, at 2 bytes per feature each way.
        """
        from repro.gpu.kernels import samples_per_frame

        samples = samples_per_frame(app_config, n_pixels)
        bytes_roundtrip = app_config.grid.encoded_dim * 2 * 2 * samples
        return bytes_roundtrip / RTX3090.bytes_per_second * 1e3

    def schedule(
        self,
        app_config: AppConfig,
        n_pixels: int = FHD_PIXELS,
        fusion: FusionModel = DEFAULT_FUSION,
        fuse_engines: bool = True,
        fuse_rest: bool = True,
        overlap: bool = True,
        encoding: EncodingVariant = DEFAULT_ENCODING,
    ) -> PipelineSchedule:
        """Build the Fig. 10-b schedule for one frame of ``app_config``.

        The three flags support the ablations of DESIGN.md: ``fuse_engines``
        removes the encoding->MLP DRAM round-trip, ``fuse_rest`` applies the
        9.94x rest-kernel fusion, and ``overlap`` enables the batch pipeline
        (disabled, the stages run back to back).  ``encoding`` selects a
        point of the registry's encoding-axis subspace (grid storage
        policy, hash-table size, per-level scale); the default inherits
        the app's Table I parameters.
        """
        app, scheme = app_config.app, app_config.grid.scheme
        enc = encoding_engine_time_ms(app_config, n_pixels, self.config, encoding)
        mlp = mlp_engine_time_ms(app_config, n_pixels, self.config)
        dma = self.dma_overhead_ms(app, n_pixels)
        ngpc_time = enc + mlp + dma
        if not fuse_engines:
            ngpc_time += self.engine_fusion_penalty_ms(app_config, n_pixels)
        if fuse_rest:
            rest = fused_rest_time_ms(app, scheme, n_pixels, fusion)
        else:
            from repro.gpu.baseline import baseline_kernel_times_ms

            rest = baseline_kernel_times_ms(app, scheme, n_pixels)["rest"]
        n_batches = self.config.n_pipeline_batches if overlap else 1
        return PipelineSchedule(
            ngpc_time_ms=ngpc_time,
            rest_time_ms=rest,
            n_batches=n_batches,
        )

    def frame_time_ms(self, app: str, scheme: str, n_pixels: int = FHD_PIXELS) -> float:
        """End-to-end accelerated frame time (ms)."""
        return self.schedule(get_config(app, scheme), n_pixels).total_ms
