"""Batched design-space exploration of the NGPC evaluation space.

The paper hand-sweeps four scaling factors (Figs. 12/15); this module
turns the sweep into a production DSE engine that answers any architect's
query over the full N-dimensional cartesian space of

    (app x scheme x scale x pixels x clock x grid-SRAM x engines x batches)

- :class:`SweepGrid` names a cartesian design space over the four
  workload axes *and* four architecture axes — NFP clock (GHz),
  per-engine grid-SRAM size (KB), encoding engines per NFP, and pipeline
  batch count — and :func:`sweep_grid` evaluates *all* of it in one
  call, returning a :class:`SweepResult` of dense NumPy arrays shaped
  ``grid.shape``.
- Two interchangeable engines: ``"vectorized"`` (NumPy broadcasting
  through the ``*_batch`` fast paths of the core models — the default)
  and ``"scalar"`` (the original one-:func:`~repro.core.emulator.emulate`-
  per-point loop, memoized).  Both produce identical results; the
  equivalence harness in ``tests/test_sweep_engine.py`` enforces it, and
  ``tests/test_golden_values.py`` pins the absolute values.
- One block executor.  Every evaluation path — a dense sweep, the
  streaming service, the result store and the shard cluster — cuts the
  grid into value-keyed block tasks (:func:`shard_plan`,
  :func:`store_block_plan`), evaluates them through a block runner
  (:class:`LocalBlockRunner` in-process, the store's
  :class:`~repro.store.StoreBlockRunner`, the cluster's
  :class:`~repro.service.cluster.ClusterBlockRunner`) and assembles and
  finalizes the result in :func:`run_plan`.  :func:`evaluate_block` is
  the only place a block meets the batched emulator.
- Whole-grid memoization keyed on (grid, engine, NGPCConfig, calibration
  fingerprint), so repeated queries — Pareto fronts, FPS constraints,
  report generation — reuse one evaluation.
- Constraint-query APIs: :func:`pareto_front` (non-dominated
  cost/benefit points, fully vectorized so 100k+-point fronts resolve in
  milliseconds) and :func:`cheapest_meeting_fps` (the smallest
  configuration hitting a frame-rate target), both exposed through the
  CLI (``python -m repro dse``) and :mod:`repro.analysis.report`.
- One query kernel.  The selector rule (:func:`axis_index`,
  :func:`encoding_slice`, :func:`query_slice`), the masked front
  (:func:`front`) and the :class:`DesignPoint` builder
  (:func:`design_point`, :func:`config_axes`) are shared by the dense
  :class:`SweepResult` and the streamed
  :class:`~repro.service.progress.PartialSweep`, so every path answers
  with the same arithmetic and the same errors.  Selectors arrive as
  keyword arguments keyed by the registry's query names and are read
  only here; a name the query does not accept raises
  :class:`~repro.errors.UnknownAxisError`.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.apps.params import APP_NAMES
from repro.calibration import current
from repro.errors import NotOnGridError, ReproError, UnknownAxisError
from repro.core.area_power import ngpc_area_power_batch
from repro.core.axes import (
    AXES,
    AXIS_FIELDS,
    CONFIG_AXIS_FIELDS,
    EXTENSION_AXES,
    GRIDTYPE_AUTO,
    LEGACY_AXIS_FIELDS,
    LOG2_HASHMAP_INHERIT,
    PER_LEVEL_SCALE_INHERIT,
    TASK_BATCH_KWARGS,
    EncodingVariant,
    axis as axis_spec,
)
from repro.core.cache import ModelCache, config_fingerprint
from repro.core.config import NGPCConfig, SCALE_FACTORS
from repro.core.emulator import (
    EmulationResult,
    emulate_batch_columns,
    emulate_with_config,
)
from repro.core.ngpc import slabs
from repro.gpu.baseline import FHD_PIXELS


class AmbiguousAxisError(ReproError, KeyError):
    """A scalar query named no value for an axis the grid sweeps.

    Carries the ambiguous ``axis`` name and its swept ``values`` so
    structured consumers — the query service's 400 responses — can
    report exactly which selector is missing instead of parsing the
    message.  Subclasses :class:`KeyError`, so existing callers that
    catch the old bare error keep working, and
    :class:`~repro.errors.ReproError`, so facade callers can catch one
    base class for every failure mode.
    """

    def __init__(self, axis: str, values: Tuple):
        self.axis = axis
        self.values = tuple(values)
        super().__init__(
            f"grid sweeps {axis} over {self.values}; pass an explicit value"
        )

    def __str__(self) -> str:  # KeyError repr-quotes its payload; don't
        return self.args[0]


@dataclass(frozen=True)
class DesignPoint:
    """One NGPC configuration with its cost and per-app benefit.

    ``config_axes`` records the architecture-axis values of the point
    beyond its scale factor — (name, value) pairs for every swept
    non-scale axis (clock, grid SRAM, engine count, pipeline batches).
    It is empty for the classic scale-only sweeps.
    """

    scale_factor: int
    area_overhead_pct: float
    power_overhead_pct: float
    speedups: Dict[str, float]
    config_axes: Tuple[Tuple[str, float], ...] = ()

    @property
    def average_speedup(self) -> float:
        return sum(self.speedups.values()) / len(self.speedups)

    @property
    def speedup_per_area_pct(self) -> float:
        """Average speedup bought per percent of die area."""
        return self.average_speedup / self.area_overhead_pct

    @property
    def speedup_per_power_pct(self) -> float:
        return self.average_speedup / self.power_overhead_pct

    def describe(self) -> str:
        """Short human-readable configuration label."""
        label = f"NGPC-{self.scale_factor}"
        if self.config_axes:
            label += " (" + ", ".join(
                f"{name}={value:g}" if isinstance(value, (int, float))
                else f"{name}={value}"
                for name, value in self.config_axes
            ) + ")"
        return label

    def to_dict(self) -> Dict:
        """JSON-safe view (the query service's response record)."""
        return {
            "config": self.describe(),
            "scale_factor": self.scale_factor,
            "area_overhead_pct": self.area_overhead_pct,
            "power_overhead_pct": self.power_overhead_pct,
            "speedups": dict(self.speedups),
            "average_speedup": self.average_speedup,
            "config_axes": [[name, value] for name, value in self.config_axes],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DesignPoint":
        """Rebuild a point from :meth:`to_dict` output (served JSON)."""
        return cls(
            scale_factor=int(data["scale_factor"]),
            area_overhead_pct=float(data["area_overhead_pct"]),
            power_overhead_pct=float(data["power_overhead_pct"]),
            speedups={app: float(s) for app, s in data["speedups"].items()},
            config_axes=tuple(
                (str(name), value) for name, value in data.get("config_axes", ())
            ),
        )


# ---------------------------------------------------------------------------
# the batched sweep engine
# ---------------------------------------------------------------------------
# The grid axes are declared once, in :mod:`repro.core.axes`; this module
# re-exports AXIS_FIELDS (all registered axes, array order) and
# LEGACY_AXIS_FIELDS (the seed eight) from the registry for its
# consumers.  A grid that does not actively sweep an extension axis
# keeps the seed 8-dimensional arrays, task tuples and fingerprints.


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian design space over workload and architecture axes.

    Axis order (= array axis order of :class:`SweepResult`) follows the
    registry (:data:`repro.core.axes.AXES`):

    0. ``apps``                application names
    1. ``schemes``             encoding schemes
    2. ``scale_factors``       NFPs per NGPC (power of two)
    3. ``pixel_counts``        frame resolutions
    4. ``clocks_ghz``          NFP clock frequencies (GHz)
    5. ``grid_sram_kb``        per-engine grid-SRAM sizes (KB, power of two)
    6. ``n_engines``           encoding engines per NFP
    7. ``n_batches``           pipeline batch counts
    8. ``gridtypes``           grid storage policy (auto | hash | tiled)
    9. ``log2_hashmap_sizes``  log2 hash-table entries (0 = Table I)
    10. ``per_level_scales``   per-level growth factor (0 = Table I)

    The architecture axes default to ``None`` — "inherit the single
    value of the base :class:`NGPCConfig` at sweep time" — and the
    encoding (extension) axes default to ``None`` — "inherit the app's
    Table I parameters".  Call :meth:`resolve` (done automatically by
    :func:`sweep_grid`) to pin them to concrete one-value tuples.  A
    grid that does not actively sweep an extension axis
    (:attr:`is_extended` False) keeps the seed 8-dimensional arrays.
    """

    apps: Tuple[str, ...] = APP_NAMES
    schemes: Tuple[str, ...] = ("multi_res_hashgrid",)
    scale_factors: Tuple[int, ...] = SCALE_FACTORS
    pixel_counts: Tuple[int, ...] = (FHD_PIXELS,)
    clocks_ghz: Optional[Tuple[float, ...]] = None
    grid_sram_kb: Optional[Tuple[int, ...]] = None
    n_engines: Optional[Tuple[int, ...]] = None
    n_batches: Optional[Tuple[int, ...]] = None
    gridtypes: Optional[Tuple[str, ...]] = None
    log2_hashmap_sizes: Optional[Tuple[int, ...]] = None
    per_level_scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            object.__setattr__(
                self, spec.name, tuple(spec.canon(v) for v in values)
            )
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            if not values:
                raise ValueError("every grid axis needs at least one value")
            for value in values:
                spec.validate(value)

    @classmethod
    def _of_valid(cls, axes: Dict[str, Optional[Tuple]]) -> "SweepGrid":
        """A grid of canonical values a valid grid or config already
        holds, built without re-checking them (:meth:`__post_init__`)."""
        grid = object.__new__(cls)
        grid.__dict__.update(axes)
        return grid

    @property
    def is_resolved(self) -> bool:
        """True once every default-None axis holds concrete values."""
        return not any(
            getattr(self, spec.name) is None
            for spec in AXES
            if spec.default is None
        )

    @property
    def is_extended(self) -> bool:
        """True when some extension axis sweeps beyond its sentinel.

        Extended grids carry the extra trailing array dimensions and the
        versioned (``v2``) fingerprints; everything else keeps the seed
        8-dimensional layout bit for bit.
        """
        return any(
            spec.is_active(getattr(self, spec.name)) for spec in EXTENSION_AXES
        )

    @property
    def axis_fields(self) -> Tuple[str, ...]:
        """This grid's array-axis field names, in array order.

        The seed eight, or all registered axes when an extension axis is
        actively swept (:attr:`is_extended`).
        """
        return AXIS_FIELDS if self.is_extended else LEGACY_AXIS_FIELDS

    def resolve(self, ngpc: Optional[NGPCConfig] = None) -> "SweepGrid":
        """Pin unset inheriting axes to the base config's values."""
        if self.is_resolved:
            return self
        base = ngpc or NGPCConfig()
        axes = {}
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None and spec.inherit is not None:
                # the base config validated its own values
                values = (spec.canon(spec.inherit(base)),)
            axes[spec.name] = values
        return SweepGrid._of_valid(axes)

    def normalized(self) -> "SweepGrid":
        """Canonical axis ordering: sorted, de-duplicated values per axis.

        Two grids naming the same design space with reordered (or
        repeated) axis values normalize to the same grid — the basis of
        :func:`sweep_fingerprint` and therefore of every service-level
        cache key.  Unset inheriting axes stay unset.
        """

        def canon(values):
            return None if values is None else tuple(sorted(set(values)))

        axes = {name: canon(getattr(self, name)) for name in AXIS_FIELDS}
        if all(axes[name] == getattr(self, name) for name in AXIS_FIELDS):
            return self
        return SweepGrid._of_valid(axes)

    def to_dict(self) -> Dict[str, list]:
        """JSON-safe axis mapping.

        Unset axes are omitted; so are extension axes pinned to their
        inherit sentinels, keeping the payloads (and the store metadata
        derived from them) of non-extended grids byte-identical to the
        pre-registry schema.
        """
        out = {}
        extended = self.is_extended
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            if spec.sentinel is not None and not extended:
                continue
            out[spec.name] = list(values)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepGrid":
        """Build a grid from a JSON axis mapping (:meth:`to_dict` inverse).

        Unknown keys fail loudly (a misspelled axis must not silently
        sweep the default space); scalar values are promoted to
        one-value axes for ergonomic hand-written payloads.
        """
        if not isinstance(data, dict):
            raise ValueError(f"grid must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(AXIS_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown grid axes {sorted(unknown)}; valid axes are "
                f"{list(AXIS_FIELDS)}"
            )
        kwargs = {}
        for name in AXIS_FIELDS:
            if name in data and data[name] is not None:
                values = data[name]
                if isinstance(values, (str, int, float)):
                    values = (values,)
                kwargs[name] = tuple(values)
        return cls(**kwargs)

    @property
    def shape(self) -> Tuple[int, ...]:
        """One extent per active axis field, in array order.

        8-dimensional for seed grids, 11-dimensional when an extension
        axis is actively swept; unset axes count as extent 1.
        """
        return tuple(
            len(getattr(self, name)) if getattr(self, name) is not None else 1
            for name in self.axis_fields
        )

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> Iterator[Tuple]:
        """All grid points in array order, one value tuple per point.

        8-tuples (app, scheme, scale, n_pixels, clock_ghz, sram_kb,
        engines, batches) for seed grids; extended grids append the
        (gridtype, log2_hashmap_size, per_level_scale) values.  Unset
        axes resolve against the default :class:`NGPCConfig`.
        """
        grid = self.resolve()
        axes = [getattr(grid, name) for name in grid.axis_fields]
        yield from itertools.product(*axes)


_TIMING_FIELDS = (
    "baseline_ms",
    "accelerated_ms",
    "encoding_engine_ms",
    "mlp_engine_ms",
    "dma_ms",
    "fused_rest_ms",
)

#: the timing fields that vary along each configuration axis; every
#: field also varies along apps and schemes.  Along any other axis a
#: field is constant, and its column holds extent 1 there: the rank at
#: which kernels return it, blocks and results carry it, and frames and
#: store entries ship it (a query broadcasts it to ``grid.shape``).
#: Structural, from :func:`~repro.core.emulator.emulate_batch_columns`;
#: ``tests/test_result_layout.py`` pins it against the dense kernel and
#: the scalar emulator.  A newly registered axis needs a row here.
_VARYING_ALONG = {
    "scale_factors": (
        "accelerated_ms", "encoding_engine_ms", "mlp_engine_ms", "dma_ms",
    ),
    "pixel_counts": _TIMING_FIELDS,
    "clocks_ghz": ("accelerated_ms", "encoding_engine_ms", "mlp_engine_ms"),
    "grid_sram_kb": ("accelerated_ms", "encoding_engine_ms"),
    "n_engines": ("accelerated_ms", "encoding_engine_ms"),
    "n_batches": ("accelerated_ms",),
    "gridtypes": ("accelerated_ms", "encoding_engine_ms"),
    "log2_hashmap_sizes": ("accelerated_ms", "encoding_engine_ms"),
    "per_level_scales": ("accelerated_ms", "encoding_engine_ms"),
}

#: the same table by field: the configuration axes each timing field
#: varies along, in array order
TIMING_AXES = {
    name: tuple(
        axis for axis in CONFIG_AXIS_FIELDS if name in _VARYING_ALONG[axis]
    )
    for name in _TIMING_FIELDS
}

#: the arrays of one evaluated block: the timings plus the (app, scheme)
#: Amdahl bound
_BLOCK_FIELDS = _TIMING_FIELDS + ("amdahl_bound",)

#: every array field of :class:`SweepResult`, in dataclass order — the
#: payload schema of :meth:`SweepResult.to_payload`
RESULT_ARRAY_FIELDS = _TIMING_FIELDS + (
    "amdahl_bound",
    "area_mm2_7nm",
    "power_w_7nm",
    "area_overhead_pct",
    "power_overhead_pct",
)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _ResultArray:
    """One :class:`SweepResult` array, read from its stored column.

    A timing field reads as its compact column broadcast to
    ``grid.shape`` — a read-only view, no copy — so every query indexes
    it exactly as a dense array; the other fields are stored at their
    own shape and read as they are.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.broadcast = name in TIMING_AXES

    def __get__(self, result, owner=None):
        if result is None:
            return self
        column = result.columns[self.name]
        if self.broadcast:
            return np.broadcast_to(column, result.grid.shape)
        return column


@dataclass(frozen=True, eq=False)  # eq=False: ndarray fields break ==/hash
class SweepResult:
    """Evaluation of a (resolved) :class:`SweepGrid`.

    Every array reads shaped for queries: the timing fields as
    ``grid.shape`` = (apps, schemes, scales, pixel_counts, clocks,
    srams, engines, batches[, gridtypes, log2_hashmap_sizes,
    per_level_scales]); ``amdahl_bound`` as (apps, schemes); the
    area/power arrays as (scales, clocks, srams, engines) — cost
    depends only on the hardware configuration, not on the workload or
    the pipeline batching.

    Storage is compact: :attr:`columns` holds each timing field only
    along the axes :data:`TIMING_AXES` says it varies along (extent 1
    elsewhere), and the timing attributes are read-only broadcast views
    of those columns.  Serializers that keep the layout — result
    frames, store entries — write :attr:`columns`; :meth:`to_payload`
    writes the dense JSON.
    """

    grid: SweepGrid
    engine: str
    #: every :data:`RESULT_ARRAY_FIELDS` array at its stored shape
    #: (:func:`result_array_shapes`), read-only
    columns: Mapping[str, np.ndarray]

    baseline_ms = _ResultArray()
    accelerated_ms = _ResultArray()
    encoding_engine_ms = _ResultArray()
    mlp_engine_ms = _ResultArray()
    dma_ms = _ResultArray()
    fused_rest_ms = _ResultArray()
    amdahl_bound = _ResultArray()
    area_mm2_7nm = _ResultArray()
    power_w_7nm = _ResultArray()
    area_overhead_pct = _ResultArray()
    power_overhead_pct = _ResultArray()

    @classmethod
    def from_arrays(
        cls, grid: SweepGrid, engine: str, arrays: Mapping[str, np.ndarray]
    ) -> "SweepResult":
        """A result from deserialized arrays, validated against ``grid``.

        The one check every reader runs (served JSON and frames, store
        entries), so a truncated or hand-edited artifact fails here
        rather than with an off-by-one deep inside a query.  A timing
        array may come compact or dense (:func:`_timing_column`); every
        other array must have its exact shape.  ``grid`` must be
        resolved.  Raises :class:`ValueError`.
        """
        expected = result_array_shapes(grid)
        columns = {}
        for name in RESULT_ARRAY_FIELDS:
            if name not in arrays:
                raise ValueError(f"missing array {name!r}")
            array = np.asarray(arrays[name])
            if name in TIMING_AXES:
                array = _timing_column(name, array, expected[name], grid.shape)
            elif array.shape != expected[name]:
                raise ValueError(
                    f"array {name!r} has shape {array.shape}, "
                    f"expected {expected[name]}"
                )
            columns[name] = _frozen(array)
        return cls(grid=grid, engine=engine, columns=MappingProxyType(columns))

    # derived arrays: computed once per (frozen) result on first access
    # and read-only, like the fields they derive from
    @cached_property
    def speedup(self) -> np.ndarray:
        return _frozen(self.baseline_ms / self.accelerated_ms)

    @cached_property
    def fps(self) -> np.ndarray:
        return _frozen(1000.0 / self.accelerated_ms)

    @cached_property
    def train_steps_per_s(self) -> np.ndarray:
        """Derived training throughput (steps/s), shaped ``grid.shape``.

        Computed from ``accelerated_ms`` on first access — never
        persisted, so the metric can evolve without invalidating stores.
        See :func:`train_steps_per_s_batch` for the model.
        """
        return _frozen(train_steps_per_s_batch(self.grid, self.accelerated_ms))

    # -- indexing -----------------------------------------------------------
    def index(
        self,
        app: str,
        scheme: str,
        scale_factor: int,
        n_pixels: int,
        **selectors,
    ) -> Tuple[int, ...]:
        """Array index of one grid point (selectors follow :func:`point_index`)."""
        return point_index(
            self.grid, app=app, scheme=scheme, scale_factor=scale_factor,
            n_pixels=n_pixels, **selectors,
        )

    def point(
        self,
        app: str,
        scheme: str,
        scale_factor: int,
        n_pixels: int,
        **selectors,
    ) -> EmulationResult:
        """The :class:`EmulationResult` of one grid point."""
        idx = self.index(app, scheme, scale_factor, n_pixels, **selectors)
        grid = self.grid
        return EmulationResult(
            app=grid.apps[idx[0]],
            scheme=grid.schemes[idx[1]],
            scale_factor=grid.scale_factors[idx[2]],
            n_pixels=grid.pixel_counts[idx[3]],
            baseline_ms=float(self.baseline_ms[idx]),
            accelerated_ms=float(self.accelerated_ms[idx]),
            encoding_engine_ms=float(self.encoding_engine_ms[idx]),
            mlp_engine_ms=float(self.mlp_engine_ms[idx]),
            dma_ms=float(self.dma_ms[idx]),
            fused_rest_ms=float(self.fused_rest_ms[idx]),
            amdahl_bound=float(self.amdahl_bound[idx[0], idx[1]]),
        )

    def to_records(self, limit: Optional[int] = None) -> List[Dict[str, float]]:
        """One flat dict per grid point (JSON/table friendly).

        ``limit`` stops after that many records — on a 100k-point grid
        materializing everything to serve a preview is seconds of work.
        """
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError("limit must be non-negative")
        records = []
        baseline_ms = self.baseline_ms
        accelerated_ms = self.accelerated_ms
        speedup = self.speedup
        fps = self.fps
        area_overhead_pct = self.area_overhead_pct
        power_overhead_pct = self.power_overhead_pct
        grid = self.grid
        fields = grid.axis_fields
        for idx in np.ndindex(*grid.shape):
            if limit is not None and len(records) >= limit:
                break
            record = {
                axis_spec(name).query_name: getattr(grid, name)[pos]
                for name, pos in zip(fields, idx)
            }
            k, c, g, e = idx[2], idx[4], idx[5], idx[6]
            record.update(
                {
                    "baseline_ms": float(baseline_ms[idx]),
                    "accelerated_ms": float(accelerated_ms[idx]),
                    "speedup": float(speedup[idx]),
                    "fps": float(fps[idx]),
                    "area_overhead_pct": float(area_overhead_pct[k, c, g, e]),
                    "power_overhead_pct": float(
                        power_overhead_pct[k, c, g, e]
                    ),
                }
            )
            records.append(record)
        return records

    # -- serialization ------------------------------------------------------
    def to_payload(self) -> Dict:
        """Full JSON-safe serialization: grid axes + every result array.

        The inverse of :meth:`from_payload`; the pair lets the query
        service ship whole :class:`SweepResult`s over its HTTP JSON API
        and lets :mod:`repro.analysis.report` render from a served
        result without re-evaluating the grid.  The payload is stamped
        with :data:`PAYLOAD_SCHEMA_VERSION` so service and library can
        evolve the array schema independently.
        """
        payload = {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "grid": self.grid.to_dict(),
            "engine": self.engine,
        }
        for name in RESULT_ARRAY_FIELDS:
            payload[name] = getattr(self, name).tolist()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "SweepResult":
        """Rebuild a result from :meth:`to_payload` output.

        Array shapes are validated against the payload's grid
        (:meth:`from_arrays`); timing arrays may be dense, as JSON
        carries them, or compact, as a result frame does.  A payload
        without a ``schema_version`` is read as version 1 (the
        pre-versioning wire format, which is identical); an unsupported
        version fails loudly instead of misinterpreting arrays.
        """
        check_schema_version(payload.get("schema_version"))
        grid = SweepGrid.from_dict(payload["grid"]).resolve()
        arrays = {
            name: np.asarray(payload[name], dtype=np.float64)
            for name in RESULT_ARRAY_FIELDS
            if name in payload
        }
        return cls.from_arrays(
            grid, str(payload.get("engine", "served")), arrays
        )

    # -- queries ------------------------------------------------------------
    # Queries read the plane's stored columns one slab at a time and
    # never build a grid-sized derived array (speedup, fps, training
    # rate): a running max or min over each slab's batch columns
    # (:func:`_fold_batches`) reduces its cost cells, the cells are
    # ranked once, and only the cells returned look up their batch.
    def pareto_front(
        self,
        scheme: str,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ) -> List[DesignPoint]:
        """Non-dominated (area cost, speedup benefit) configurations.

        Every (scale, clock, SRAM, engines, batches) combination on the
        grid is a candidate; the front is sorted by ascending area.
        Benefit is the speedup of ``app``, or the all-apps average when
        ``app`` is None (the Fig. 12 "average" bars).  ``scheme``,
        ``n_pixels`` and the encoding-axis ``selectors`` pick the plane
        (:func:`query_slice`).  Per slab, the apps' speedups are summed
        in app order into a buffer reused by every slab (the sum
        ``mean(axis=0)`` takes) and folded to each cost cell's max, and
        the maxima are divided by the app count once.  Each front cell's
        batch is its first best one, as :func:`front` picks it.  A NaN
        speedup raises ``ValueError``.
        """
        grid = self.grid
        query = query_slice(grid, scheme, n_pixels, **selectors)
        a = None if app is None else axis_index("app", app, grid.apps)
        first, *rest = range(len(grid.apps)) if a is None else (a,)
        baseline, accelerated = self._plane(query)
        value = np.empty(accelerated.shape[1:-1])
        plane = list(slabs(accelerated.shape, keep=1, tail=1))
        rows = max(value[index[1:-1]].size for index in plane)
        total, part = np.empty((2, rows, accelerated.shape[-1]))
        for index in plane:
            cells, at = value[index[1:-1]], index[1:]
            benefit = total[:cells.size].reshape(accelerated[first][at].shape)
            speedup = part[:cells.size].reshape(benefit.shape)
            np.divide(baseline[first][at], accelerated[first][at], out=benefit)
            for i in rest:
                np.divide(baseline[i][at], accelerated[i][at], out=speedup)
                benefit += speedup
            _fold_batches(np.maximum, benefit, cells)
        if a is None:
            value /= len(grid.apps)
        area4 = self.area_overhead_pct
        keep = pareto_front(area4.reshape(-1), value.reshape(-1))
        at = (slice(None),) + np.unravel_index(keep, area4.shape)
        speedups = baseline[at] / accelerated[at]  # (apps, cells, batches)
        batches = (
            speedups.mean(axis=0) if a is None else speedups[a]
        ).argmax(axis=-1)
        return [
            design_point(
                grid, area4, self.power_overhead_pct,
                np.unravel_index(flat, area4.shape) + (int(b),) + query.enc,
                speedups[:, n, b],
            )
            for n, (flat, b) in enumerate(zip(keep, batches))
        ]

    def _plane(self, query: QuerySlice) -> Tuple[np.ndarray, np.ndarray]:
        """The (apps, scale, clock, SRAM, engines, batches) plane of
        ``baseline_ms`` and ``accelerated_ms``: views of the columns."""
        return self.baseline_ms[query.index], self.accelerated_ms[query.index]

    def _cheapest_point(
        self, app, feasible_of, query: QuerySlice
    ) -> Optional[DesignPoint]:
        """Cheapest-area cell of ``app`` meeting a throughput target.

        ``feasible_of`` maps ``accelerated_ms`` values to a bool mask
        that only turns false as a positive time grows (IEEE rounding
        keeps ``ms <= budget`` and the training rate monotone), so a
        cost cell meets the target when its fastest batch does: a
        running ``np.fmin`` over the batch columns, which skips a NaN.
        The cheapest met cell wins, ties to the lowest flat index as
        ``np.argmin`` over the masked area, and only its first feasible
        batch is looked up.
        """
        grid = self.grid
        baseline, accelerated = self._plane(query)
        metric = accelerated[axis_index("app", app, grid.apps)]
        area4 = self.area_overhead_pct
        fastest = np.empty(area4.shape)
        for index in slabs(metric.shape, tail=1):
            _fold_batches(np.fmin, metric[index], fastest[index[:-1]])
        met = feasible_of(fastest)
        if not met.any():
            return None
        cell = np.unravel_index(
            int(np.argmin(np.where(met, area4, np.inf))), area4.shape
        )
        cell += (feasible_of(metric[cell]).argmax(),)
        at = (slice(None),) + cell
        return design_point(
            grid, area4, self.power_overhead_pct, cell + query.enc,
            baseline[at] / accelerated[at],
        )

    def cheapest_point_meeting_fps(
        self,
        app: str,
        fps: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        **selectors,
    ) -> Optional[DesignPoint]:
        """Cheapest-area configuration on the grid hitting ``fps``, or None.

        Candidates span every (scale, clock, SRAM, engines, batches)
        combination; the returned :class:`DesignPoint` carries the
        winning architecture-axis values in ``config_axes``.  When the
        grid sweeps several schemes, pixel counts or encoding-axis
        values, the ambiguous axis must be named explicitly
        (:func:`axis_index`'s rule).
        """
        if fps <= 0:
            raise ValueError("fps must be positive")
        budget_ms = 1000.0 / fps
        query = query_slice(self.grid, scheme, n_pixels, **selectors)
        return self._cheapest_point(app, lambda ms: ms <= budget_ms, query)

    def cheapest_point_meeting_train_rate(
        self,
        app: str,
        steps_per_s: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        **selectors,
    ) -> Optional[DesignPoint]:
        """Cheapest-area configuration training at >= ``steps_per_s``.

        The training-time analogue of :meth:`cheapest_point_meeting_fps`
        over the derived :attr:`train_steps_per_s` metric — "what is the
        smallest NGPC that fine-tunes this scene at N optimizer steps
        per second?".  Returns None when no grid point is fast enough.
        """
        if steps_per_s <= 0:
            raise ValueError("steps_per_s must be positive")
        grid = self.grid
        query = query_slice(grid, scheme, n_pixels, **selectors)
        samples = _samples_per_frame(
            app, grid.schemes[query.scheme], grid.pixel_counts[query.pixels]
        )
        batch = _train_batch()
        return self._cheapest_point(
            app,
            lambda ms: _steps_per_s(samples, batch, ms) >= steps_per_s,
            query,
        )

    def cheapest_meeting_fps(
        self,
        app: str,
        fps: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
    ) -> Optional[int]:
        """Smallest-area scale on the grid hitting ``fps``, or None.

        The scale factor of :meth:`cheapest_point_meeting_fps`'s answer.
        Parameter order matches the module-level
        :func:`cheapest_meeting_fps` (app, fps, n_pixels, scheme); this
        method returns the bare scale factor, the module function a full
        :class:`DesignPoint`.
        """
        hit = self.cheapest_point_meeting_fps(app, fps, n_pixels, scheme)
        return hit.scale_factor if hit else None


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

# bounded: each entry holds the float64 columns of a whole grid
_SWEEP_CACHE = ModelCache("sweep_grid", maxsize=128)
#: grids larger than this are never memoized (a 65k-point result holds
#: 0.5-1 MB: the full-rank accelerated_ms column plus the compact rest,
#: of which only encoding_engine_ms can approach its size; the cache is
#: for the report/CLI-sized grids, not for the 100k+-point exploration
#: sweeps)
_SWEEP_CACHE_MAX_POINTS = 1 << 16

_ENGINES = ("vectorized", "scalar")

#: version stamped into every :meth:`SweepResult.to_payload` payload and
#: every HTTP response envelope; bump when the array schema changes.
#: Version 2 added the registry's extension axes (``gridtypes``,
#: ``log2_hashmap_sizes``, ``per_level_scales``) to the grid mapping —
#: a superset of version 1, which this build still reads and serves.
PAYLOAD_SCHEMA_VERSION = 2

#: payload versions this build can read/serve (version 1 is also the
#: implicit version of pre-versioning payloads with no stamp)
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


def check_schema_version(version) -> int:
    """Validate a negotiated/stamped payload schema version.

    ``None`` (no stamp) reads as version 1; anything not in
    :data:`SUPPORTED_SCHEMA_VERSIONS` raises :class:`ValueError` — the
    service maps it to a structured 400 naming the supported versions.
    """
    if version is None:
        return 1  # the pre-versioning wire format
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise ValueError(f"schema_version must be an integer, got {version!r}")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported payload schema_version {version}; this build "
            f"supports {list(SUPPORTED_SCHEMA_VERSIONS)}"
        )
    return version


def sweep_fingerprint(
    grid: Optional[SweepGrid] = None, ngpc: Optional[NGPCConfig] = None
):
    """Canonical, stable cache key of a sweep evaluation.

    The one key both cache layers agree on — extracted from the ad-hoc
    tuple :func:`sweep_grid` used to build inline so the asyncio
    :class:`repro.service.SweepService` can share it.  It hashes
    together everything a :class:`SweepResult`'s numbers depend on:

    - the **normalized resolved grid** — axes are resolved against
      ``ngpc`` (unset architecture axes inherit the base config) and
      then sorted/de-duplicated, so two grids naming the same design
      space with reordered axis values produce the *same* key, while
      any single-axis perturbation produces a distinct one;
    - the **base config** via
      :func:`repro.core.cache.config_fingerprint`;
    - the **calibration** in use, ``current().fingerprint``
      (:func:`repro.calibration.current`), read in the caller's thread
      or task — the one the sweep then evaluates under — so a sweep
      under a perturbed value never reads a nominal one, and a store
      entry's address names the calibration its numbers came from.

    The engine is deliberately *not* part of the key: every engine is
    numerically identical (tests/test_sweep_engine.py enforces 1e-9
    agreement), so a result computed by one engine can serve queries
    issued under another.

    The key hashes one ``(salt, values)`` pair per *active* axis
    (:attr:`SweepGrid.axis_fields`), under the ``sweep/v1`` tag for the
    seed hypercube and ``sweep/v2`` when an extension axis is actively
    swept — so grids that predate the registry (or merely register the
    new axes without sweeping them) keep their exact pre-registry keys
    and every warm store stays valid.
    """
    resolved = (grid or SweepGrid()).resolve(ngpc).normalized()
    fields = resolved.axis_fields
    axes = tuple(
        (axis_spec(name).fingerprint_salt, getattr(resolved, name))
        for name in fields
    )
    tag = "sweep/v2" if resolved.is_extended else "sweep/v1"
    return (
        tag,
        axes,
        config_fingerprint(ngpc),
        current().fingerprint,
    )


def block_array_shapes(shape: Tuple[int, ...]) -> Dict[str, Tuple[int, ...]]:
    """Stored shape of each timing column of a block.

    ``shape`` is the block's configuration hypercube
    (:func:`task_shape`); a column keeps its extent along the axes
    :data:`TIMING_AXES` says it varies along and holds 1 elsewhere —
    by the table, never by the extent, so a 1-wide window of a varying
    axis stays that axis's window.
    """
    axes = CONFIG_AXIS_FIELDS[:len(shape)]
    return {
        name: tuple(n if axis in varies else 1 for axis, n in zip(axes, shape))
        for name, varies in TIMING_AXES.items()
    }


def result_array_shapes(grid: SweepGrid) -> Dict[str, Tuple[int, ...]]:
    """Stored shape of every :class:`SweepResult` array for ``grid``.

    The timing columns follow :func:`block_array_shapes` over the
    grid's configuration axes (apps and schemes in front); the Amdahl
    bound is (apps, schemes) and the cost arrays (scales, clocks,
    srams, engines).  The one schema every deserializer validates
    against (:meth:`SweepResult.from_arrays`).  ``grid`` must be
    resolved.
    """
    pairs = grid.shape[:2]
    expected = {
        name: pairs + shape
        for name, shape in block_array_shapes(grid.shape[2:]).items()
    }
    expected["amdahl_bound"] = pairs
    cost_shape = (
        len(grid.scale_factors), len(grid.clocks_ghz),
        len(grid.grid_sram_kb), len(grid.n_engines),
    )
    for name in ("area_mm2_7nm", "power_w_7nm",
                 "area_overhead_pct", "power_overhead_pct"):
        expected[name] = cost_shape
    return expected


def _timing_column(
    name: str, array, shape: Tuple[int, ...], dense_shape: Tuple[int, ...]
) -> np.ndarray:
    """One timing array read at its stored ``shape``.

    A compact column passes as it is; a legacy dense one (``dense_shape``,
    as JSON payloads and stores written before compact columns carry
    it) is sliced down to ``shape`` without a copy — the field is
    constant along the axes cut.  Any other shape raises
    :class:`ValueError`.
    """
    array = np.asarray(array)
    if array.shape == shape:
        return array
    if array.shape != dense_shape:
        raise ValueError(
            f"array {name!r} has shape {array.shape}, expected {shape} "
            f"(or dense {dense_shape})"
        )
    return array[tuple(
        slice(None) if n == dense else slice(0, 1)
        for n, dense in zip(shape, dense_shape)
    )]


def block_columns(block, shape: Tuple[int, ...]) -> Dict[str, np.ndarray]:
    """A block's timing columns, each read by :func:`_timing_column`.

    ``shape`` is the block's :func:`task_shape`.  The check the
    coordinator, the store and assembly share; raises
    :class:`ValueError` on a wrong shape, :class:`KeyError` on a
    missing field.
    """
    expected = block_array_shapes(shape)
    return {
        name: _timing_column(name, block[name], expected[name], shape)
        for name in _TIMING_FIELDS
    }


def block_fingerprint(task: Tuple, ngpc: Optional[NGPCConfig] = None):
    """Canonical cache key of one vectorized block evaluation.

    ``task`` is a :func:`shard_plan`/:func:`store_block_plan` work unit:
    ``(app, scheme, scales, pixels, clocks, srams, engines, batches)``,
    optionally extended with ``(gridtypes, log2_hashmap_sizes,
    per_level_scales)`` windows on extended grids.  The key hashes the
    block's exact axes slice (the literal values the block spans, not
    grid indices — two grids sharing a hypercube slice share the key),
    the base config via :func:`config_fingerprint`, and the calibration
    in use (``current().fingerprint``), so a block evaluated under one
    calibration is never read under another.  This is
    the key the persistent result store files blocks under
    (:mod:`repro.store`).  8-field (seed) tasks keep the exact
    ``block/v1`` keys they had before the registry; 11-field tasks hash
    under ``block/v2``.
    """
    app, scheme = task[0], task[1]
    tag = "block/v1" if len(task) == 8 else "block/v2"
    return (
        (tag, app, scheme)
        + tuple(tuple(axis) for axis in task[2:])
        + (config_fingerprint(ngpc), current().fingerprint)
    )


def store_block_plan(grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
    """Deterministic, value-keyed block partition for the result store.

    Same ``(placement, task)`` contract as :func:`shard_plan` — blocks
    evaluate through :func:`evaluate_block` and reassemble through
    :func:`assemble_shard_blocks` — but the cut is chosen for *reuse*
    rather than load balancing: one block per (app, scheme, scale,
    pixel count) carrying the full architecture sub-grid
    (clock x SRAM x engines x batches).  Because the cut depends only
    on axis *values* (never on the grid's extent), any later grid that
    extends the workload axes or adds scale/pixel values re-derives the
    identical blocks for the overlap and hits their persisted entries;
    only the genuinely new hypercube slices evaluate.  ``grid`` must be
    resolved.  On extended grids each task also carries the full
    encoding sub-grid as three extra value windows.
    """
    arch_axes = tuple(
        getattr(grid, name) for name in grid.axis_fields[4:]
    )
    full_windows = tuple((0, len(axis)) for axis in arch_axes)
    tasks = []
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for k, scale in enumerate(grid.scale_factors):
                for l, n_pixels in enumerate(grid.pixel_counts):
                    placement = (
                        i, j,
                        ((k, k + 1), (l, l + 1)) + full_windows,
                    )
                    task = (app, scheme, (scale,), (n_pixels,)) + arch_axes
                    tasks.append((placement, task))
    return tasks


def _scalar_result(
    app: str,
    scheme: str,
    scale: int,
    n_pixels: int,
    ngpc: Optional[NGPCConfig],
    clock_ghz: float,
    grid_sram_kb: int,
    n_engines: int,
    n_batches: int,
    encoding: EncodingVariant = EncodingVariant(),
) -> EmulationResult:
    """One scalar emulation of a fully specified grid point, memoized."""
    base = ngpc or NGPCConfig()
    nfp = replace(
        base.nfp,
        clock_ghz=clock_ghz,
        grid_sram_kb_per_engine=grid_sram_kb,
        n_encoding_engines=n_engines,
    )
    config = NGPCConfig(
        scale_factor=scale,
        nfp=nfp,
        n_pipeline_batches=n_batches,
        l2_spill_penalty=base.l2_spill_penalty,
    )
    return emulate_with_config(app, scheme, config, n_pixels, encoding)


# -- the block executor ---------------------------------------------------

def task_shape(task: Tuple) -> Tuple[int, ...]:
    """The timing-array shape a task's evaluated block must have."""
    return tuple(len(axis) for axis in task[2:])


def evaluate_block(
    task: Tuple, ngpc: Optional[NGPCConfig] = None, out=None
) -> Dict[str, np.ndarray]:
    """Evaluate one block task through the batched emulator.

    ``task`` is a :func:`shard_plan`/:func:`store_block_plan` work
    unit: ``(app, scheme, scales, pixels, clocks, srams, engines,
    batches)``, optionally extended with the three encoding-axis
    windows.  This is the one place a block meets the batched
    emulator (:func:`~repro.core.emulator.emulate_batch_columns`):
    in-process runners, the result store and shard-cluster workers all
    evaluate here.  ``task[4:]`` pairs up with
    :data:`repro.core.axes.TASK_BATCH_KWARGS` in order, so 8-field
    (seed) and 11-field (extended) tasks route through one code path.
    The block holds each timing field at its stored rank
    (:func:`block_array_shapes`) plus the scalar ``amdahl_bound``.
    ``out`` (optional, the task's :func:`task_shape`) is where the
    kernel writes ``accelerated_ms``: :func:`run_plan` passes the
    block's slot of the result column.
    """
    app, scheme, scales, pixels = task[:4]
    return emulate_batch_columns(
        app, scheme, scales, pixels, ngpc,
        **dict(zip(TASK_BATCH_KWARGS, task[4:])), out=out,
    )


def _scalar_block(
    task: Tuple, ngpc: Optional[NGPCConfig] = None, out=None
) -> Dict[str, np.ndarray]:
    """Evaluate one block task point by point on the memoized scalar path.

    ``out`` receives ``accelerated_ms`` as in :func:`evaluate_block`.
    """
    app, scheme = task[:2]
    axes = task[2:]
    shape = task_shape(task)
    columns = {name: np.empty(shape) for name in _TIMING_FIELDS}
    if out is not None:
        columns["accelerated_ms"] = out
    for idx in np.ndindex(*shape):
        named = {
            name: axis[pos]
            for name, axis, pos in zip(CONFIG_AXIS_FIELDS, axes, idx)
        }
        encoding = EncodingVariant(
            gridtype=named.get("gridtypes", GRIDTYPE_AUTO),
            log2_hashmap_size=named.get(
                "log2_hashmap_sizes", LOG2_HASHMAP_INHERIT
            ),
            per_level_scale=named.get(
                "per_level_scales", PER_LEVEL_SCALE_INHERIT
            ),
        )
        r = _scalar_result(
            app, scheme, named["scale_factors"], named["pixel_counts"],
            ngpc, named["clocks_ghz"], named["grid_sram_kb"],
            named["n_engines"], named["n_batches"], encoding,
        )
        for name in _TIMING_FIELDS:
            columns[name][idx] = getattr(r, name)
    block = block_columns(columns, shape)
    block["amdahl_bound"] = r.amdahl_bound  # per (app, scheme): any point's
    return block


class LocalBlockRunner:
    """Evaluate block tasks in-process, one after another.

    The inline implementation of the block-runner contract every
    evaluation path shares: ``evaluate(tasks, on_block=None,
    slots=None)`` returns one block per task, in task order, and calls
    ``on_block(index, block)`` as each block lands.  ``slots`` (from
    :func:`run_plan`) holds, per task, its slot of the result's
    ``accelerated_ms`` column; a runner that evaluates in-process
    writes the block's ``accelerated_ms`` there and returns the slot
    itself, which assembly then does not copy.  ``engine`` picks the
    vectorized fast path (:func:`evaluate_block`) or the scalar
    reference loop.  The store's :class:`~repro.store.StoreBlockRunner`
    decorates a runner with the persistent tier; the cluster's
    :class:`~repro.service.cluster.ClusterBlockRunner` leases tasks to
    workers.
    """

    def __init__(
        self, ngpc: Optional[NGPCConfig] = None, engine: str = "vectorized"
    ):
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.ngpc = ngpc
        self._evaluate = _scalar_block if engine == "scalar" else evaluate_block

    def evaluate(
        self, tasks: List[Tuple], on_block=None, slots=None
    ) -> List[Dict]:
        out = []
        for index, task in enumerate(tasks):
            slot = None if slots is None else slots[index]
            block = self._evaluate(task, self.ngpc, slot)
            if on_block is not None:
                on_block(index, block)
            out.append(block)
        return out


def shard_plan(grid: SweepGrid, n_blocks: int) -> List[Tuple[Tuple, Tuple]]:
    """Shard the grid into ~``n_blocks`` contiguous vectorized blocks.

    Every (app, scheme) pair's configuration hypercube is cut into
    contiguous windows — the longest axis first, further axes only when
    one axis cannot yield enough chunks — auto-tuned so blocks hold
    ~``grid.size / n_blocks`` points: small enough to load-balance a
    worker pool, large enough to amortize NumPy dispatch and transport.
    Each entry is ``(placement, task)``: the placement is
    (app index, scheme index, windows) with one (lo, hi) window per
    configuration axis, the task the arguments consumed by
    :func:`evaluate_block` — plain tuples of strings and numbers,
    JSON-safe, so a task can cross process *and* host boundaries
    unchanged.  This is the shared work-unit contract of
    :func:`run_plan` and the multi-host shard cluster
    (:mod:`repro.service.cluster`); :func:`assemble_shard_blocks` is its
    inverse, scattering evaluated blocks back into dense grid arrays.
    """
    axes = tuple(getattr(grid, name) for name in grid.axis_fields[2:])
    lengths = [len(axis) for axis in axes]
    per_pair = int(np.prod(lengths))
    block_points = max(1, grid.size // max(1, n_blocks))
    n_chunks = max(1, -(-per_pair // block_points))  # ceil division
    # greedy split, longest axes first, until the windows multiply out
    # to >= n_chunks (or every axis is fully split)
    parts = [1] * len(axes)
    for axis in sorted(range(len(axes)), key=lambda a: -lengths[a]):
        if n_chunks <= 1:
            break
        parts[axis] = min(n_chunks, lengths[axis])
        n_chunks = -(-n_chunks // parts[axis])
    windows_per_axis = [
        [
            (int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if lo != hi
        ]
        for bounds in (
            np.linspace(0, length, n + 1).astype(int)
            for length, n in zip(lengths, parts)
        )
    ]
    tasks = []
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for windows in itertools.product(*windows_per_axis):
                sub = tuple(
                    axis[lo:hi] for axis, (lo, hi) in zip(axes, windows)
                )
                tasks.append(((i, j, windows), (app, scheme) + sub))
    return tasks


def _column_index(name: str, placement: Tuple) -> Tuple:
    """Where a placed block's ``name`` column lands in the result's.

    The block's window along the axes the field varies along
    (:data:`TIMING_AXES`), index 0 along the rest.
    """
    i, j, windows = placement
    varies = TIMING_AXES[name]
    return (i, j) + tuple(
        slice(lo, hi) if axis in varies else slice(0, 1)
        for axis, (lo, hi) in zip(CONFIG_AXIS_FIELDS, windows)
    )


def assemble_shard_blocks(
    grid: SweepGrid, placed_blocks, out=None
) -> Dict[str, np.ndarray]:
    """Scatter evaluated shard blocks back into the grid's columns.

    ``placed_blocks`` yields ``(placement, block)`` pairs — the
    placement from :func:`shard_plan`, the block from
    :func:`evaluate_block`.  Every grid point must be covered by
    exactly one block (guaranteed when the placements come from one
    plan over the same grid).  Each timing field lands in its column
    (:func:`result_array_shapes`): a block's window along the axes the
    field varies along, index 0 along the rest.  ``out`` holds the
    columns to fill (allocated when None, :func:`run_plan` passes its
    own); a block column that is a view of its ``out`` column is the
    slot :func:`run_plan` handed that block, already written in place
    by the kernel, and is not copied.
    """
    if out is None:
        out = _empty_columns(grid)
    for placement, block in placed_blocks:
        i, j, windows = placement
        columns = block_columns(block, tuple(hi - lo for lo, hi in windows))
        for name, column in columns.items():
            if column.base is not out[name]:
                out[name][_column_index(name, placement)] = column
        out["amdahl_bound"][i, j] = block["amdahl_bound"]
    return out


def _empty_columns(grid: SweepGrid) -> Dict[str, np.ndarray]:
    """Uninitialized block-field columns of ``grid``'s result."""
    shapes = result_array_shapes(grid)
    return {name: np.empty(shapes[name]) for name in _BLOCK_FIELDS}


def finalize_sweep_result(
    grid: SweepGrid,
    engine: str,
    ngpc: Optional[NGPCConfig],
    arrays: Dict[str, np.ndarray],
) -> SweepResult:
    """Attach the cost arrays and freeze a complete :class:`SweepResult`.

    The one place the area/power arrays are computed and the result
    arrays are made read-only; :func:`run_plan` calls it for every
    evaluation path, so a distributed or store-assembled sweep finishes
    through the identical code as a local one.
    """
    cost = ngpc_area_power_batch(
        np.asarray(grid.scale_factors),
        ngpc.nfp if ngpc else None,
        clocks_ghz=grid.clocks_ghz,
        grid_sram_kb=grid.grid_sram_kb,
        n_engines=grid.n_engines,
    )
    arrays = dict(arrays)
    arrays.update(
        area_mm2_7nm=cost["area_mm2_7nm"],
        power_w_7nm=cost["power_w_7nm"],
        area_overhead_pct=cost["area_overhead_pct"],
        power_overhead_pct=cost["power_overhead_pct"],
    )
    # the result object is shared on cache hits: freeze the arrays so
    # one consumer's mutation cannot poison every later cached query
    columns = {name: _frozen(arrays[name]) for name in RESULT_ARRAY_FIELDS}
    return SweepResult(
        grid=grid, engine=engine, columns=MappingProxyType(columns)
    )


def run_plan(
    grid: SweepGrid,
    plan: List[Tuple[Tuple, Tuple]],
    runner,
    engine: str,
    ngpc: Optional[NGPCConfig] = None,
    on_block=None,
) -> SweepResult:
    """Evaluate a block plan through ``runner``; assemble and finalize.

    The one block executor.  ``plan`` is a list of ``(placement, task)``
    pairs covering ``grid`` exactly once (:func:`shard_plan`,
    :func:`store_block_plan`); ``runner`` is any block runner — a
    :class:`LocalBlockRunner`, the store's decorator over one, or the
    cluster's.  ``on_block(placement, block)`` is called as each block
    lands, on whatever thread the runner delivers it, which is how
    streaming progress is fed.  ``engine`` labels the result.

    The result's columns are allocated once, up front, and the runner
    gets each block's slot of ``accelerated_ms``: an in-process block
    is written there by the kernel, so the result is the only
    grid-sized allocation of a local sweep.
    """
    report = None
    if on_block is not None:
        def report(index, block):
            on_block(plan[index][0], block)

    columns = _empty_columns(grid)
    slots = [
        columns["accelerated_ms"][_column_index("accelerated_ms", placement)]
        for placement, _ in plan
    ]
    blocks = runner.evaluate([task for _, task in plan], report, slots)
    placed = [(placement, block) for (placement, _), block in zip(plan, blocks)]
    return finalize_sweep_result(
        grid, engine, ngpc, assemble_shard_blocks(grid, placed, columns)
    )


#: streamed sweeps cut each (app, scheme) pair into up to this many
#: windows, but never into blocks smaller than this many points (tiny
#: grids would otherwise drown in per-block dispatch overhead)
_STREAM_WINDOWS = 32
_STREAM_MIN_BLOCK = 256


def window_major(plan: List[Tuple[Tuple, Tuple]]) -> List[Tuple[Tuple, Tuple]]:
    """Order a plan window by window across every (app, scheme) pair.

    The first fully covered configuration windows — and hence the first
    exact partial Pareto points — then land after ``apps x schemes``
    blocks rather than at the very end of a streamed sweep.
    """
    return sorted(
        plan, key=lambda entry: (entry[0][2], entry[0][0], entry[0][1])
    )


def stream_plan(grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
    """The window-major :func:`shard_plan` a streamed sweep evaluates."""
    n_pairs = max(1, len(grid.apps) * len(grid.schemes))
    windows = max(
        1, min(_STREAM_WINDOWS, grid.size // (_STREAM_MIN_BLOCK * n_pairs))
    )
    return window_major(shard_plan(grid, windows * n_pairs))


def sweep_grid(
    grid: Optional[SweepGrid] = None,
    engine: str = "vectorized",
    ngpc: Optional[NGPCConfig] = None,
    use_cache: bool = True,
) -> SweepResult:
    """Evaluate the full cartesian ``grid`` in one call.

    ``engine`` selects "vectorized" (NumPy broadcasting, default) or
    "scalar" (memoized per-point loop); either evaluates one block per
    (app, scheme) pair through :func:`run_plan`.  Results are memoized
    on (grid, engine, ngpc, calibration fingerprint) for grids up to
    :data:`_SWEEP_CACHE_MAX_POINTS` points; pass ``use_cache=False`` to
    force a fresh evaluation.
    """
    grid = (grid or SweepGrid()).resolve(ngpc)
    runner = LocalBlockRunner(ngpc, engine)
    cacheable = use_cache and grid.size <= _SWEEP_CACHE_MAX_POINTS
    # the literal grid keeps the memo axis-order-sensitive (callers index
    # the returned arrays in *their* axis order); the shared fingerprint
    # carries the config + calibration invalidation
    key = (grid, engine, sweep_fingerprint(grid, ngpc))
    if cacheable:
        cached = _SWEEP_CACHE.get(key)
        if cached is not None:
            return cached
    plan = shard_plan(grid, len(grid.apps) * len(grid.schemes))
    result = run_plan(grid, plan, runner, engine, ngpc)
    if cacheable:
        _SWEEP_CACHE.put(key, result)
    return result


# ---------------------------------------------------------------------------
# constraint-query APIs
# ---------------------------------------------------------------------------


def pareto_front(costs, values) -> List[int]:
    """Indices of the non-dominated (min cost, max value) points.

    A point is dominated when another has cost <= and value >= with at
    least one strict inequality, so each distinct cost puts at most one
    point on the front: its points are ranked once, by their max value,
    which opens the front when it beats every cheaper cost's.  The
    point kept is the **lowest input index** holding that max, so
    exactly duplicated (cost, value) pairs resolve deterministically and
    fronts over different supersets of the same points never flap on
    ties (streamed partial fronts compare fronts across blocks).
    Indices come back by ascending cost.  A NaN in ``costs`` or
    ``values`` raises ``ValueError``; infinities are ordinary values.
    One stable sort of the costs (``benchmarks/bench_sweep_scaling.py``
    gates the sub-second floor on a 100k cloud and a tie-heavy plane).
    """
    costs = np.asarray(costs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if costs.shape != values.shape or costs.ndim != 1:
        raise ValueError("costs and values must be 1-D arrays of equal length")
    if costs.size == 0:
        return []
    order = costs.argsort(kind="stable")  # equal costs by input index
    sorted_costs = costs[order]
    # running[i]: the best value among sorted points 0..i.  A NaN cost
    # sorts last, and a NaN value poisons every running max after it
    running = np.maximum.accumulate(values[order])
    for name, last in (("costs", sorted_costs[-1]), ("values", running[-1])):
        if np.isnan(last):
            raise ValueError(f"{name} holds a NaN")
    last = np.empty(costs.size, dtype=bool)  # each cost's last point
    np.not_equal(sorted_costs[1:], sorted_costs[:-1], out=last[:-1])
    last[-1] = True
    best = running[last]  # per cost, cheapest first
    opens = best > np.concatenate(([-np.inf], best[:-1]))
    # an opening cost's best beats every cheaper point, so the first
    # point the running max reaches it at is its lowest-index holder
    return order[running.searchsorted(best[opens])].tolist()


# ---------------------------------------------------------------------------
# the query kernel: one selector rule, one masked front, one point builder
# ---------------------------------------------------------------------------

#: the axes of a query cell after its scale factor, in array order: the
#: architecture axes, then (on extended grids) the encoding axes
_CELL_AXES = tuple(spec for spec in AXES if spec.kind in ("arch", "encoding"))


def axis_index(axis: str, value, values: Tuple) -> int:
    """Position of selector ``value`` on one grid axis: the selector rule.

    An unset selector (None) resolves only on a singleton axis; on a
    swept one it raises :class:`AmbiguousAxisError`.  A value absent
    from the axis raises :class:`~repro.errors.NotOnGridError` carrying
    the axis name and its values.  Every query path (dense, streamed,
    the Session facade and the sweep service) applies it.
    """
    if value is None:
        if len(values) == 1:
            return 0
        raise AmbiguousAxisError(axis, values)
    try:
        return values.index(value)
    except ValueError:
        raise NotOnGridError(
            f"{axis}={value!r} not on the grid", axis=axis, values=values
        ) from None


#: the selector names a query accepts: a plane query (front, cheapest)
#: the encoding axes' query names, a point query every registered axis's
_ENCODING_SELECTORS = tuple(spec.query_name for spec in EXTENSION_AXES)
_POINT_SELECTORS = tuple(spec.query_name for spec in AXES)


def _reject_unknown(selectors, accepted: Tuple[str, ...]) -> None:
    """Raise :class:`~repro.errors.UnknownAxisError` for a selector name
    outside ``accepted``, suggesting the closest accepted spelling."""
    for name in selectors:
        if name not in accepted:
            close = difflib.get_close_matches(name, accepted, n=1, cutoff=0.5)
            suggestion = close[0] if close else ""
            hint = f"; did you mean {suggestion!r}?" if suggestion else ""
            raise UnknownAxisError(
                f"unknown selector {name!r}{hint} (this query accepts: "
                + ", ".join(accepted) + ")",
                name=name, suggestion=suggestion,
            )


def encoding_slice(grid: SweepGrid, **selectors) -> Tuple[int, ...]:
    """Trailing array indices picked by the encoding-axis selectors.

    ``selectors`` are keyed by the query names of
    :data:`~repro.core.axes.EXTENSION_AXES`; any other name raises
    :class:`~repro.errors.UnknownAxisError`.  Returns ``()`` on a grid
    that does not sweep the encoding axes, after checking any named
    selector against its resolved sentinel axis, and one index per
    encoding axis under :func:`axis_index` otherwise.
    """
    _reject_unknown(selectors, _ENCODING_SELECTORS)
    extended = grid.is_extended
    enc = tuple(
        axis_index(
            spec.query_name, selectors.get(spec.query_name),
            getattr(grid, spec.name) or (),
        )
        for spec in EXTENSION_AXES
        if extended or selectors.get(spec.query_name) is not None
    )
    return enc if extended else ()


class QuerySlice(NamedTuple):
    """Grid positions of one (scheme, pixel count, encoding) query plane."""

    scheme: int
    pixels: int
    enc: Tuple[int, ...]

    @property
    def index(self) -> Tuple:
        """``array[index]`` is the (apps, scale, clock, SRAM, engines,
        batches) plane of any ``grid.shape`` array."""
        return (
            slice(None), self.scheme, slice(None), self.pixels, Ellipsis,
        ) + self.enc


def query_slice(
    grid: SweepGrid, scheme=None, n_pixels=None, **selectors
) -> QuerySlice:
    """The plane a front or cheapest-point query ranks.

    ``scheme`` and ``n_pixels`` follow :func:`axis_index`, the encoding
    selectors :func:`encoding_slice`.
    """
    return QuerySlice(
        axis_index("scheme", scheme, grid.schemes),
        axis_index("n_pixels", n_pixels, grid.pixel_counts),
        encoding_slice(grid, **selectors),
    )


def validate_selectors(
    grid: SweepGrid, scheme=None, n_pixels=None, app=None, **selectors
) -> None:
    """Raise the error a front or cheapest query on ``grid`` would raise.

    The check every exhaustive, streamed and served query runs *before*
    anything evaluates: :func:`query_slice` for the plane selectors and
    :func:`axis_index` for ``app`` when one is named.
    """
    query_slice(grid, scheme, n_pixels, **selectors)
    if app is not None:
        axis_index("app", app, grid.apps)


def point_index(grid: SweepGrid, **selectors) -> Tuple[int, ...]:
    """Full array index of one grid point, selectors keyed by query name.

    Every registered axis's query name is accepted; any other name
    raises :class:`~repro.errors.UnknownAxisError`.  Each seed axis
    (``app``, ``scheme``, ``scale_factor``, ``n_pixels``, the
    architecture axes) follows :func:`axis_index`; the remaining
    selectors go to :func:`encoding_slice`.
    """
    _reject_unknown(selectors, _POINT_SELECTORS)
    seed = tuple(
        axis_index(
            spec.query_name, selectors.pop(spec.query_name, None),
            getattr(grid, spec.name),
        )
        for spec in AXES
        if spec.legacy
    )
    return seed + encoding_slice(grid, **selectors)


def config_axes(grid: SweepGrid, cell: Tuple) -> Tuple[Tuple[str, object], ...]:
    """(selector, value) pairs of the swept axes at a query cell.

    ``cell`` is the (scale, clock, SRAM, engines, batches) index tuple,
    followed by the encoding indices on extended grids.  Only axes
    holding more than one value are recorded, so a point's provenance
    survives serialization even though the encoding axes were sliced
    away before the front was computed.
    """
    return tuple(
        (spec.query_name, getattr(grid, spec.name)[pos])
        for spec, pos in zip(_CELL_AXES, cell[1:])
        if len(getattr(grid, spec.name)) > 1
    )


def design_point(
    grid: SweepGrid, area4: np.ndarray, power4: np.ndarray, cell: Tuple,
    speedups,
) -> DesignPoint:
    """The :class:`DesignPoint` of a query cell.

    ``area4``/``power4`` are the (scale, clock, SRAM, engines) overhead
    arrays, ``cell`` as in :func:`config_axes`, and ``speedups`` holds
    every app's speedup at the cell, in grid app order.
    """
    k, c, g, e = cell[:4]
    return DesignPoint(
        scale_factor=grid.scale_factors[k],
        area_overhead_pct=float(area4[k, c, g, e]),
        power_overhead_pct=float(power4[k, c, g, e]),
        speedups={app: float(s) for app, s in zip(grid.apps, speedups)},
        config_axes=config_axes(grid, cell),
    )


def front(area4: np.ndarray, benefit: np.ndarray, valid=None) -> List[Tuple]:
    """Cells of the exact (min area, max benefit) Pareto front.

    ``benefit`` holds one value per (scale, clock, SRAM, engines,
    batches) cell; the cost of a cell is its batch-independent ``area4``
    entry.  ``valid`` (benefit-shaped, or None for all) masks the cells
    allowed to compete (a partially evaluated sweep's).  The ranking is
    :func:`pareto_front`'s, including its lowest-flat-index tie-break;
    cells come back in front order.

    Cells sharing a cost cell differ only in their batch, so all but the
    first best of them are dominated or tied at a higher flat index
    (batch is the last axis): each cost cell is reduced to that one
    batch (:func:`reduce_batches`), then :func:`ranked_cells` ranks each
    distinct area once over the |B|x fewer cells.  The dense
    :meth:`SweepResult.pareto_front` folds the same maxima slab by slab
    and looks up the batch of its front cells only.
    """
    return ranked_cells(area4, *reduce_batches(benefit, valid))


def ranked_cells(area4: np.ndarray, value: np.ndarray, batch: np.ndarray):
    """The :func:`front` of batch-reduced cells, in front order.

    ``value`` and ``batch`` are :func:`reduce_batches`'s output over the
    ``area4`` cost cells (``batch`` -1 where a cell does not compete);
    each front cell comes back as its cost-cell index plus its batch.
    Many cells share an area (it does not vary along clock), and
    :func:`pareto_front` ranks each distinct area once, keeping its
    lowest-index best cell.
    """
    cells = np.flatnonzero(batch.reshape(-1) >= 0)
    keep = cells[
        pareto_front(area4.reshape(-1)[cells], value.reshape(-1)[cells])
    ]
    return [
        np.unravel_index(int(flat), area4.shape) + (int(batch.flat[flat]),)
        for flat in keep
    ]


def _fold_batches(ufunc, columns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = binary ``ufunc`` folded over the last (batch) axis of
    ``columns``, in batch order.

    One call per batch column, each over every cell of ``columns``: long
    inner loops, where a reduction along the short batch axis runs one
    short loop per cell.
    """
    np.copyto(out, columns[..., 0])
    for b in range(1, columns.shape[-1]):
        ufunc(out, columns[..., b], out=out)
    return out


def reduce_batches(benefit: np.ndarray, valid=None):
    """Per cost cell, the best valid benefit and its first batch index.

    Returns ``(value, batch)`` shaped ``benefit.shape[:-1]``; ``batch``
    is -1 where the benefit-shaped ``valid`` (None for all) holds no
    batch of the cell (``value`` is then meaningless).  Ties go to the
    lowest batch, the :func:`pareto_front` tie-break within one cost
    cell; a NaN ranks first, as ``argmax`` ranks it, unless ``valid``
    masks part of the plane (its cell then gets -1).  Per cache-sized
    slab: a running max over the batch columns (:func:`_fold_batches`),
    then a walk back to the first column holding it.
    """
    if valid is not None and valid.all():
        valid = None
    value = np.empty(benefit.shape[:-1])
    batch = np.full(value.shape, -1, dtype=np.intp)
    for index in slabs(benefit.shape, tail=1):
        slab, best, first = benefit[index], value[index[:-1]], batch[index[:-1]]
        if valid is not None:
            slab = np.where(valid[index], slab, -np.inf)
        _fold_batches(np.maximum, slab, best)
        hits = slab == best[..., None]
        if valid is not None:
            hits &= valid[index]
        elif np.isnan(best).any():
            hits |= np.isnan(slab)
        for b in range(slab.shape[-1] - 1, -1, -1):
            np.copyto(first, b, where=hits[..., b])
    return value, batch


def front_points(
    grid: SweepGrid, area4: np.ndarray, power4: np.ndarray,
    speedup: np.ndarray, enc: Tuple = (), app: Optional[str] = None,
    valid=None,
) -> List[DesignPoint]:
    """The Pareto front of one :class:`QuerySlice` plane, as design points.

    ``speedup`` is the (apps, scale, clock, SRAM, engines, batches)
    plane and ``enc`` its encoding indices.  Benefit is ``app``'s
    speedup, or the all-apps mean when ``app`` is None.  ``valid``
    (speedup-shaped) marks the evaluated entries of a partial sweep: a
    cell competes once every app's entry there is evaluated.
    """
    a = None if app is None else axis_index("app", app, grid.apps)
    if valid is not None:
        valid = valid.all(axis=0)
        if not valid.any():
            return []
    benefit = speedup.mean(axis=0) if a is None else speedup[a]
    return [
        design_point(
            grid, area4, power4, cell + enc, speedup[(slice(None),) + cell]
        )
        for cell in front(area4, benefit, valid)
    ]


#: arithmetic of one optimizer step relative to pure inference over the
#: same samples: forward pass + ~2x for the backward pass (the standard
#: fwd:bwd FLOP ratio the training benchmark assumes)
TRAIN_STEP_FLOP_FACTOR = 3.0


def train_steps_per_s_batch(
    grid: SweepGrid,
    accelerated_ms: np.ndarray,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Derived training-throughput metric over a sweep's timing array.

    Training a neural-graphics model is dominated by the same
    encoding + MLP pipeline the NGPC accelerates, so an optimizer step
    over ``batch_size`` samples costs ~``batch_size / samples_per_frame``
    of a frame's inference work times :data:`TRAIN_STEP_FLOP_FACTOR`
    (forward + backward).  The model matches
    ``benchmarks/bench_training_throughput.py``'s accounting with the
    accelerated frame time substituted for the baseline's: steps/s =
    (samples/frame / accelerated_ms) * 1000 / (batch * factor).
    ``batch_size`` defaults to the trainer's
    (:class:`repro.apps.trainer.TrainerConfig`).

    Computed on demand (never persisted): the derived metric can evolve
    without invalidating any store or payload, and costs one broadcast
    over an array the sweep already holds.
    """
    batch = _train_batch(batch_size)
    accelerated_ms = np.asarray(accelerated_ms, dtype=np.float64)
    out = np.empty(accelerated_ms.shape)
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for l, n_pixels in enumerate(grid.pixel_counts):
                samples = _samples_per_frame(app, scheme, n_pixels)
                out[i, j, :, l] = _steps_per_s(
                    samples, batch, accelerated_ms[i, j, :, l]
                )
    return out


def _train_batch(batch_size: Optional[int] = None) -> int:
    """The optimizer batch of the training metric (trainer default)."""
    from repro.apps.trainer import TrainerConfig

    batch = int(batch_size) if batch_size is not None else TrainerConfig().batch_size
    if batch <= 0:
        raise ValueError("batch_size must be positive")
    return batch


def _samples_per_frame(app: str, scheme: str, n_pixels: int) -> float:
    from repro.apps.params import get_config
    from repro.gpu.kernels import samples_per_frame

    return samples_per_frame(get_config(app, scheme), n_pixels)


def _steps_per_s(samples, batch: int, accelerated_ms) -> np.ndarray:
    """Training steps/s at ``accelerated_ms`` (the one formula)."""
    return (
        (samples / accelerated_ms) * 1000.0 / (batch * TRAIN_STEP_FLOP_FACTOR)
    )


def cheapest_meeting_fps(
    app: str,
    fps: float,
    n_pixels: int = FHD_PIXELS,
    scheme: str = "multi_res_hashgrid",
    scales: Sequence[int] = SCALE_FACTORS,
    engine: str = "vectorized",
) -> Optional[DesignPoint]:
    """The smallest-area configuration hitting ``fps``, or None.

    Answers questions like "what does 4K NeRF at 30 FPS cost?" — the
    Fig. 14 headline read backwards — with one batched evaluation.
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    grid = SweepGrid(
        apps=(app,),
        schemes=(scheme,),
        scale_factors=tuple(scales),
        pixel_counts=(n_pixels,),
    )
    result = sweep_grid(grid, engine=engine)
    return result.cheapest_point_meeting_fps(app, fps, n_pixels, scheme)


def efficiency_sweet_spot(points: List[DesignPoint]) -> DesignPoint:
    """The configuration with the best speedup-per-area ratio."""
    if not points:
        raise ValueError("no design points given")
    return max(points, key=lambda p: p.speedup_per_area_pct)
