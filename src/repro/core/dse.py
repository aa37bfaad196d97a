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
  streaming service, the result store, the adaptive explorer and the
  shard cluster — cuts the grid into value-keyed block tasks
  (:func:`shard_plan`, :func:`store_block_plan`), evaluates them
  through a block runner (:class:`LocalBlockRunner` in-process, the
  store's :class:`~repro.store.StoreBlockRunner`, the cluster's
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
  :class:`SweepResult`, the streamed
  :class:`~repro.service.progress.PartialSweep` and the adaptive
  :class:`~repro.explore.AdaptiveExplorer`, so every path answers with
  the same arithmetic and the same errors.  Selectors arrive as keyword
  arguments keyed by the registry's query names and are read only here;
  a name the query does not accept raises
  :class:`~repro.errors.UnknownAxisError`.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.errors import NotOnGridError, ReproError, UnknownAxisError
from repro.core.area_power import ngpc_area_power_batch
from repro.core.axes import (
    AXES,
    AXIS_FIELDS,
    CONFIG_AXIS_FIELDS,
    EXTENSION_AXES,
    EXTENSION_AXIS_FIELDS,
    GRIDTYPE_AUTO,
    LEGACY_AXIS_FIELDS,
    LOG2_HASHMAP_INHERIT,
    PER_LEVEL_SCALE_INHERIT,
    REFINE_AXIS_FIELDS,
    TASK_BATCH_KWARGS,
    EncodingVariant,
    axis as axis_spec,
)
from repro.core.cache import (
    ModelCache,
    calibration_fingerprint,
    config_fingerprint,
)
from repro.core.config import NFPConfig, NGPCConfig, SCALE_FACTORS
from repro.core.emulator import (
    EmulationResult,
    emulate_batch,
    emulate_with_config,
)
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
        kwargs = {}
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None and spec.inherit is not None:
                values = (spec.inherit(base),)
            kwargs[spec.name] = values
        return SweepGrid(**kwargs)

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
            return self  # already canonical: skip the re-validation
        return SweepGrid(**axes)

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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)  # eq=False: ndarray fields break ==/hash
class SweepResult:
    """Dense evaluation of a (resolved) :class:`SweepGrid`.

    Timing arrays are shaped ``grid.shape`` = (apps, schemes, scales,
    pixel_counts, clocks, srams, engines, batches); ``amdahl_bound`` is
    (apps, schemes); the area/power arrays are (scales, clocks, srams,
    engines) — cost depends only on the hardware configuration, not on
    the workload or the pipeline batching.
    """

    grid: SweepGrid
    engine: str
    baseline_ms: np.ndarray
    accelerated_ms: np.ndarray
    encoding_engine_ms: np.ndarray
    mlp_engine_ms: np.ndarray
    dma_ms: np.ndarray
    fused_rest_ms: np.ndarray
    amdahl_bound: np.ndarray
    area_mm2_7nm: np.ndarray
    power_w_7nm: np.ndarray
    area_overhead_pct: np.ndarray
    power_overhead_pct: np.ndarray

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
        speedup = self.speedup
        fps = self.fps
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
                    "baseline_ms": float(self.baseline_ms[idx]),
                    "accelerated_ms": float(self.accelerated_ms[idx]),
                    "speedup": float(speedup[idx]),
                    "fps": float(fps[idx]),
                    "area_overhead_pct": float(self.area_overhead_pct[k, c, g, e]),
                    "power_overhead_pct": float(
                        self.power_overhead_pct[k, c, g, e]
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

        Array shapes are validated against the payload's grid so a
        truncated or hand-edited payload fails here rather than with an
        off-by-one deep inside a query.  A payload without a
        ``schema_version`` is read as version 1 (the pre-versioning
        wire format, which is identical); an unsupported version fails
        loudly instead of misinterpreting arrays.
        """
        check_schema_version(payload.get("schema_version"))
        grid = SweepGrid.from_dict(payload["grid"]).resolve()
        expected = result_array_shapes(grid)
        arrays = {}
        for name in RESULT_ARRAY_FIELDS:
            if name not in payload:
                raise ValueError(f"payload is missing array {name!r}")
            array = np.asarray(payload[name], dtype=np.float64)
            if array.shape != expected[name]:
                raise ValueError(
                    f"payload array {name!r} has shape {array.shape}, "
                    f"expected {expected[name]}"
                )
            array.setflags(write=False)
            arrays[name] = array
        return cls(grid=grid, engine=str(payload.get("engine", "served")), **arrays)

    # -- queries ------------------------------------------------------------
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
        (:func:`query_slice`); :func:`front_points` ranks it.
        """
        query = query_slice(self.grid, scheme, n_pixels, **selectors)
        return front_points(
            self.grid, self.area_overhead_pct, self.power_overhead_pct,
            self.speedup[query.index], query.enc, app,
        )

    def _cheapest_point(
        self, app, feasible_of, metric: np.ndarray, query: QuerySlice
    ) -> Optional[DesignPoint]:
        """Cheapest-area cell of ``app`` whose ``metric`` is feasible.

        ``feasible_of`` maps the (K, C, G, E, B) metric slice to a bool
        mask; ties resolve to the lowest flat index (``np.argmin``).
        """
        values = metric[query.index][axis_index("app", app, self.grid.apps)]
        feasible = feasible_of(values)
        if not feasible.any():
            return None
        cost = np.broadcast_to(self.area_overhead_pct[..., None], values.shape)
        cell = np.unravel_index(
            int(np.argmin(np.where(feasible, cost, np.inf))), values.shape
        )
        return design_point(
            self.grid, self.area_overhead_pct, self.power_overhead_pct,
            cell + query.enc, self.speedup[query.index][(slice(None),) + cell],
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
        return self._cheapest_point(
            app, lambda ms: ms <= budget_ms, self.accelerated_ms, query
        )

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
        query = query_slice(self.grid, scheme, n_pixels, **selectors)
        return self._cheapest_point(
            app, lambda rate: rate >= steps_per_s, self.train_steps_per_s,
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

# bounded: each entry holds dense float64 arrays for a whole grid
_SWEEP_CACHE = ModelCache("sweep_grid", maxsize=128)
#: grids larger than this are never memoized (a 65k-point result is ~4 MB
#: of float64; the cache is for the report/CLI-sized grids, not for the
#: 100k+-point exploration sweeps)
_SWEEP_CACHE_MAX_POINTS = 1 << 16

_ENGINES = ("vectorized", "scalar")

_TIMING_FIELDS = (
    "baseline_ms",
    "accelerated_ms",
    "encoding_engine_ms",
    "mlp_engine_ms",
    "dma_ms",
    "fused_rest_ms",
)

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
    - the **calibration constants** via
      :func:`repro.core.cache.calibration_fingerprint`, so a perturbed
      calibration context never reads a stale nominal sweep.

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
        calibration_fingerprint(),
    )


def result_array_shapes(grid: SweepGrid) -> Dict[str, Tuple[int, ...]]:
    """Expected shape of every :class:`SweepResult` array for ``grid``.

    The one schema both deserializers validate against —
    :meth:`SweepResult.from_payload` (served JSON) and the persistent
    result store (npz columns) — so a truncated or hand-edited artifact
    fails at the boundary instead of with an off-by-one deep inside a
    query.  ``grid`` must be resolved.
    """
    expected = {name: grid.shape for name in _TIMING_FIELDS}
    expected["amdahl_bound"] = grid.shape[:2]
    cost_shape = (
        len(grid.scale_factors), len(grid.clocks_ghz),
        len(grid.grid_sram_kb), len(grid.n_engines),
    )
    for name in ("area_mm2_7nm", "power_w_7nm",
                 "area_overhead_pct", "power_overhead_pct"):
        expected[name] = cost_shape
    return expected


def block_fingerprint(task: Tuple, ngpc: Optional[NGPCConfig] = None):
    """Canonical cache key of one vectorized block evaluation.

    ``task`` is a :func:`shard_plan`/:func:`store_block_plan` work unit:
    ``(app, scheme, scales, pixels, clocks, srams, engines, batches)``,
    optionally extended with ``(gridtypes, log2_hashmap_sizes,
    per_level_scales)`` windows on extended grids.  The key hashes the
    block's exact axes slice (the literal values the block spans, not
    grid indices — two grids sharing a hypercube slice share the key),
    the base config via :func:`config_fingerprint`, and the calibration
    constants via :func:`calibration_fingerprint`, so a perturbed
    calibration context can never read a stale persisted block.  This is
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
        + (config_fingerprint(ngpc), calibration_fingerprint())
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
    task: Tuple, ngpc: Optional[NGPCConfig] = None
) -> Dict[str, np.ndarray]:
    """Evaluate one block task through the batched emulator.

    ``task`` is a :func:`shard_plan`/:func:`store_block_plan`/
    :func:`selection_task` work unit: ``(app, scheme, scales, pixels,
    clocks, srams, engines, batches)``, optionally extended with the
    three encoding-axis windows.  This is the one place a block meets
    :func:`~repro.core.emulator.emulate_batch`: in-process runners,
    the result store and shard-cluster workers all evaluate here.
    ``task[4:]`` pairs up with :data:`repro.core.axes.TASK_BATCH_KWARGS`
    in order, so 8-field (seed) and 11-field (extended) tasks route
    through one code path.
    """
    app, scheme, scales, pixels = task[:4]
    block = emulate_batch(
        app, scheme, scales, pixels, ngpc,
        **dict(zip(TASK_BATCH_KWARGS, task[4:])),
    )
    return {name: block[name] for name in _BLOCK_FIELDS}


def _scalar_block(
    task: Tuple, ngpc: Optional[NGPCConfig] = None
) -> Dict[str, np.ndarray]:
    """Evaluate one block task point by point on the memoized scalar path."""
    app, scheme = task[:2]
    axes = task[2:]
    shape = task_shape(task)
    out = {name: np.empty(shape) for name in _TIMING_FIELDS}
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
            out[name][idx] = getattr(r, name)
    out["amdahl_bound"] = r.amdahl_bound  # per (app, scheme): any point's
    return out


class LocalBlockRunner:
    """Evaluate block tasks in-process, one after another.

    The inline implementation of the block-runner contract every
    evaluation path shares: ``evaluate(tasks, on_block=None)`` returns
    one ``(block, cached)`` pair per task, in task order, and calls
    ``on_block(index, block)`` as each block lands.  ``engine`` picks
    the vectorized fast path (:func:`evaluate_block`) or the scalar
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

    def evaluate(self, tasks: List[Tuple], on_block=None) -> List[Tuple[Dict, bool]]:
        out = []
        for index, task in enumerate(tasks):
            block = self._evaluate(task, self.ngpc)
            if on_block is not None:
                on_block(index, block)
            out.append((block, False))
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


def install_worker_state(calibration: Tuple) -> None:
    """Install a coordinator's calibration constants into this process.

    ``calibration`` is a :func:`calibration_fingerprint` tuple.
    Shard-cluster workers call this once per calibration generation so
    their blocks agree bit-for-bit with the coordinator's.
    """
    from repro.calibration import fitted

    overheads, fractions, samples, exponent = calibration
    fitted.BATCH_OVERHEAD_MS_FHD_AT64.clear()
    fitted.BATCH_OVERHEAD_MS_FHD_AT64.update(dict(overheads))
    fitted.KERNEL_FRACTIONS.clear()
    fitted.KERNEL_FRACTIONS.update(dict(fractions))
    fitted.SAMPLES_PER_PIXEL.clear()
    fitted.SAMPLES_PER_PIXEL.update(dict(samples))
    fitted.BATCH_OVERHEAD_SCALE_EXPONENT = exponent


def assemble_shard_blocks(
    grid: SweepGrid, placed_blocks
) -> Dict[str, np.ndarray]:
    """Scatter evaluated shard blocks back into dense grid arrays.

    ``placed_blocks`` yields ``(placement, block)`` pairs — the
    placement from :func:`shard_plan`, the block from
    :func:`evaluate_block`.  Every grid point must be covered by
    exactly one block (guaranteed when the placements come from one
    plan over the same grid).
    """
    shape = grid.shape
    out = {name: np.empty(shape) for name in _TIMING_FIELDS}
    out["amdahl_bound"] = np.empty(shape[:2])
    for (i, j, windows), block in placed_blocks:
        dest = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
        for name in _TIMING_FIELDS:
            out[name][dest] = block[name]
        out["amdahl_bound"][i, j] = block["amdahl_bound"]
    return out


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
    for array in arrays.values():
        # the result object is shared on cache hits: freeze the arrays so
        # one consumer's mutation cannot poison every later cached query
        array.setflags(write=False)
    return SweepResult(grid=grid, engine=engine, **arrays)


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
    """
    report = None
    if on_block is not None:
        def report(index, block):
            on_block(plan[index][0], block)

    evaluated = runner.evaluate([task for _, task in plan], report)
    placed = [
        (placement, block)
        for (placement, _), (block, _) in zip(plan, evaluated)
    ]
    return finalize_sweep_result(
        grid, engine, ngpc, assemble_shard_blocks(grid, placed)
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
    least one strict inequality.  Exactly-duplicated (cost, value)
    pairs resolve deterministically to the **lowest input index** — one
    representative per frontier point, so fronts computed over
    different supersets of the same points never flap on ties
    (adaptive refinement compares fronts across rounds).  Returned
    indices are sorted by ascending cost (ties: by descending value).
    Fully vectorized — a 100k-point front resolves in milliseconds
    (``benchmarks/bench_sweep_scaling.py`` gates the sub-second floor).
    """
    costs = np.asarray(costs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if costs.shape != values.shape or costs.ndim != 1:
        raise ValueError("costs and values must be 1-D arrays of equal length")
    if costs.size == 0:
        return []
    order = np.lexsort((-values, costs))  # cost ascending, value descending
    sorted_values = values[order]
    # a point opens the frontier when its value beats every earlier
    # value; within a run of exact (cost, value) duplicates only the run
    # leader opens, and lexsort stability makes that leader the
    # lowest-index duplicate — the deterministic tie-break
    prev_max = np.empty_like(sorted_values)
    prev_max[0] = -np.inf
    np.maximum.accumulate(sorted_values[:-1], out=prev_max[1:])
    opens = sorted_values > prev_max
    return [int(i) for i in order[opens]]


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
    adaptive, the Session facade and the sweep service) applies it.
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
    allowed to compete, so a dense sweep and a partially evaluated one
    share this code.  The ranking is :func:`pareto_front`'s, including
    its lowest-flat-index tie-break; cells come back in front order.

    Cells sharing a cost cell differ only in their batch, so all but the
    first best of them are dominated or tied at a higher flat index
    (batch is the last axis): each cost cell is reduced to that one
    batch before ranking, which sorts |B|x fewer keys.
    """
    value, batch = reduce_batches(benefit, valid)
    cells = np.flatnonzero(batch.reshape(-1) >= 0)
    keep = cells[
        pareto_front(area4.reshape(-1)[cells], value.reshape(-1)[cells])
    ]
    return [
        np.unravel_index(int(flat), area4.shape) + (int(batch.flat[flat]),)
        for flat in keep
    ]


def reduce_batches(benefit: np.ndarray, valid=None):
    """Per cost cell, the best valid benefit and its first batch index.

    Returns ``(value, batch)`` shaped ``benefit.shape[:-1]``; ``batch``
    is -1 where no batch of the cell is valid (its ``value`` is then
    meaningless).  Ties resolve to the lowest batch index, the
    :func:`pareto_front` tie-break within one cost cell.
    """
    if valid is None or valid.all():
        batch = benefit.argmax(axis=-1)
    else:
        masked = np.where(valid, benefit, -np.inf)
        best = masked.max(axis=-1, keepdims=True)
        hits = valid & (masked == best)
        batch = np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)
    value = np.take_along_axis(
        benefit, np.maximum(batch, 0)[..., None], axis=-1
    )[..., 0]
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


# ---------------------------------------------------------------------------
# adaptive refinement planner (consumed by repro.explore)
# ---------------------------------------------------------------------------

# REFINE_AXIS_FIELDS — the candidate axes of a Pareto/cheapest query, in
# array order: the axes adaptive refinement windows and splits (the
# batch axis is always carried whole: cost is batch-independent, so a
# batch column is one value-keyed unit of work; encoding axes are
# sliced, never refined) — is declared in the registry and re-exported
# here for the explorer.


def refinement_lattice(length: int, segments: int) -> Tuple[int, ...]:
    """~``segments + 1`` evenly spaced boundary indices over one axis.

    Always includes both endpoints (0 and ``length - 1``), so every
    :func:`refinement_plan` block has all its corners on the lattice.
    """
    if length <= 0:
        raise ValueError("axis length must be positive")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    bounds = np.linspace(0, length - 1, min(segments, length - 1) + 1)
    return tuple(sorted({int(round(b)) for b in bounds}))


def refinement_plan(
    grid: SweepGrid, segments: int = 3
) -> Tuple[Tuple[Tuple[int, ...], ...], List[Tuple[Tuple[int, int], ...]]]:
    """The coarse subsample + initial block partition of adaptive search.

    Returns ``(lattice, blocks)`` over the four refinement axes
    (:data:`REFINE_AXIS_FIELDS`, in array order):

    - ``lattice`` — per-axis boundary index tuples; their cross product
      is the coarse subsample a first round evaluates (one
      :func:`selection_task` per app).
    - ``blocks`` — per-axis ``(lo, hi)`` half-open index windows between
      consecutive boundaries, *inclusive of both* (adjacent blocks share
      their boundary cells), so every block's corner cells — the cells
      its dominance bounds read — are already evaluated by the lattice.

    ``grid`` must be resolved.  Singleton axes yield the trivial lattice
    ``(0,)`` and window ``(0, 1)``.
    """
    lattice = []
    per_axis_windows = []
    for name in REFINE_AXIS_FIELDS:
        length = len(getattr(grid, name))
        bounds = refinement_lattice(length, segments)
        lattice.append(bounds)
        if length == 1:
            per_axis_windows.append([(0, 1)])
        else:
            per_axis_windows.append(
                [(lo, hi + 1) for lo, hi in zip(bounds[:-1], bounds[1:])]
            )
    blocks = [tuple(w) for w in itertools.product(*per_axis_windows)]
    return tuple(lattice), blocks


def selection_task(
    grid: SweepGrid,
    app: str,
    scheme: str,
    n_pixels: int,
    selection: Tuple[Tuple[int, ...], ...],
    encoding: Optional[Tuple[int, int, int]] = None,
) -> Tuple:
    """Build an :func:`evaluate_block` work unit from axis indices.

    ``selection`` holds one sorted index tuple per refinement axis
    (scale, clock, SRAM, engines), plus an optional fifth tuple of batch
    indices (the full batch axis when omitted); the task spans their
    cross product — value-keyed exactly like :func:`shard_plan` tasks,
    so :func:`block_fingerprint` / the persistent store dedup it across
    rounds, sessions and processes.  On extended grids, ``encoding``
    names the (gridtype, log2_hashmap_size, per_level_scale) index
    triple the task is pinned to — the explorer treats the encoding
    axes as slices, one task per encoding point.  ``grid`` must be
    resolved.
    """
    ks, cs, gs, es = selection[:4]
    if len(selection) > 4:
        batches = tuple(grid.n_batches[b] for b in selection[4])
    else:
        batches = grid.n_batches
    task = (
        app,
        scheme,
        tuple(grid.scale_factors[k] for k in ks),
        (n_pixels,),
        tuple(grid.clocks_ghz[c] for c in cs),
        tuple(grid.grid_sram_kb[g] for g in gs),
        tuple(grid.n_engines[e] for e in es),
        batches,
    )
    if grid.is_extended:
        t, h, r = encoding if encoding is not None else (0, 0, 0)
        task += (
            (grid.gridtypes[t],),
            (grid.log2_hashmap_sizes[h],),
            (grid.per_level_scales[r],),
        )
    return task


def dominance_prune(
    point_costs, point_values, block_min_costs, block_value_ubs
) -> np.ndarray:
    """Which blocks may still hold a frontier point (True = keep).

    ``point_costs``/``point_values`` are the evaluated points so far;
    each block contributes its exact minimum cost and an upper bound on
    the value of any cell inside it.  A block is pruned only when some
    already-evaluated point has cost <= the block's minimum cost and
    value **strictly** above the block's bound: every cell of such a
    block is strictly dominated, so it can appear on no exhaustive
    front — and, because the inequality is strict, it can also not be an
    exact (cost, value) duplicate of a frontier point, keeping the
    lowest-flat-index tie-break of :func:`pareto_front` intact.
    """
    point_costs = np.asarray(point_costs, dtype=np.float64)
    point_values = np.asarray(point_values, dtype=np.float64)
    block_min_costs = np.asarray(block_min_costs, dtype=np.float64)
    block_value_ubs = np.asarray(block_value_ubs, dtype=np.float64)
    if point_costs.size == 0:
        return np.ones(block_min_costs.shape, dtype=bool)
    order = np.argsort(point_costs, kind="stable")
    sorted_costs = point_costs[order]
    best_below = np.maximum.accumulate(point_values[order])
    pos = np.searchsorted(sorted_costs, block_min_costs, side="right")
    best_at = np.where(pos > 0, best_below[np.maximum(pos - 1, 0)], -np.inf)
    return best_at <= block_value_ubs


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
    from repro.apps.params import get_config
    from repro.apps.trainer import TrainerConfig
    from repro.gpu.kernels import samples_per_frame

    batch = int(batch_size) if batch_size is not None else TrainerConfig().batch_size
    if batch <= 0:
        raise ValueError("batch_size must be positive")
    accelerated_ms = np.asarray(accelerated_ms, dtype=np.float64)
    out = np.empty(accelerated_ms.shape)
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            config = get_config(app, scheme)
            for l, n_pixels in enumerate(grid.pixel_counts):
                samples = samples_per_frame(config, n_pixels)
                out[i, j, :, l] = train_rate(
                    samples, accelerated_ms[i, j, :, l], batch
                )
    return out


def train_rate(samples, accelerated_ms, batch: int):
    """Optimizer steps/s of ``batch``-sample steps at a frame time.

    ``samples`` are the samples of one frame and ``accelerated_ms`` its
    accelerated time; see :func:`train_steps_per_s_batch` for the model.
    The one spelling of the expression, so the dense metric and the
    explorer's feasibility predicate agree bit for bit.
    """
    return (samples / accelerated_ms) * 1000.0 / (batch * TRAIN_STEP_FLOP_FACTOR)


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
