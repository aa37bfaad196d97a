"""The declarative axis registry of the DSE hypercube.

Every axis of the sweep space is declared exactly once, here, as an
:class:`AxisSpec` — its canonicalizer, validator, default/inherit rule,
fingerprint salt and block-plan role.  Everything that used to carry a
private copy of the axis list (``SweepGrid``/``SweepResult`` in
:mod:`repro.core.dse`, the fingerprint scheme, the store block plans,
the transport payload schema, the ``Grid()`` builder and the CLI
``--sweep`` parser) derives its view from this registry, so
registering a new axis is one entry in :data:`AXES` plus the model hook
it feeds — not a lockstep edit across every subsystem.

Two invariants keep old artifacts valid:

- **Legacy grids stay 8-dimensional.**  The three extension axes
  (``gridtypes``, ``log2_hashmap_sizes``, ``per_level_scales``) resolve
  to one-value *inherit sentinels* (:data:`GRIDTYPE_AUTO`,
  :data:`LOG2_HASHMAP_INHERIT`, :data:`PER_LEVEL_SCALE_INHERIT`) meaning
  "use the application's Table I parameters".  A grid whose extension
  axes are all unset (or pinned to the sentinels) has the exact array
  shapes, task tuples, payload schema and fingerprints it had before the
  registry existed — golden values and warm stores survive byte for
  byte.
- **Extension fingerprints are versioned.**  Only a grid that actively
  sweeps an extension axis switches to the ``sweep/v2``/``block/v2``
  fingerprint tags and 11-field task tuples.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.config import (
    SCALE_FACTORS,
    check_clock,
    check_grid_sram_kb,
    check_n_batches,
    check_n_engines,
    check_scale_factor,
)
from repro.gpu.baseline import FHD_PIXELS

# ---------------------------------------------------------------------------
# the extension axes' inherit sentinels ("use the app's Table I value")
# ---------------------------------------------------------------------------

#: gridtype sentinel: each scheme keeps its own table-entry policy
GRIDTYPE_AUTO = "auto"
#: the selectable grid-storage policies (Instant-NGP Sec. 3: a level is
#: either hashed into a 2^T-entry table or stored densely/tiled)
GRIDTYPES = (GRIDTYPE_AUTO, "hash", "tiled")
#: log2 hash-table size sentinel: inherit Table I's ``log2_table_size``
LOG2_HASHMAP_INHERIT = 0
#: per-level growth-factor sentinel: inherit Table I's ``growth_factor``
PER_LEVEL_SCALE_INHERIT = 0.0


@dataclass(frozen=True)
class EncodingVariant:
    """One point of the encoding-axis subspace, hashable for memo keys.

    The scalar emulation path threads this through
    :class:`~repro.core.emulator.Emulator` down to the encoding-engine
    spill model; the all-sentinel :data:`DEFAULT_ENCODING` reproduces
    the pre-registry behaviour bit for bit.
    """

    gridtype: str = GRIDTYPE_AUTO
    log2_hashmap_size: int = LOG2_HASHMAP_INHERIT
    per_level_scale: float = PER_LEVEL_SCALE_INHERIT

    @property
    def is_default(self) -> bool:
        return (
            self.gridtype == GRIDTYPE_AUTO
            and self.log2_hashmap_size == LOG2_HASHMAP_INHERIT
            and self.per_level_scale == PER_LEVEL_SCALE_INHERIT
        )


DEFAULT_ENCODING = EncodingVariant()


# ---------------------------------------------------------------------------
# axis validators: the architecture axes use the config dataclasses' own
# range checks (repro.core.config), called directly, so an axis value is
# legal iff the equivalent scalar config is, with the same message, and
# no config is built per value
# ---------------------------------------------------------------------------


def _validate_app(app: str) -> None:
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")


def _validate_scheme(scheme: str) -> None:
    if scheme not in ENCODING_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def _validate_pixels(n_pixels: int) -> None:
    if n_pixels <= 0:
        raise ValueError("pixel counts must be positive")


def _validate_gridtype(gridtype: str) -> None:
    if gridtype not in GRIDTYPES:
        raise ValueError(
            f"unknown gridtype {gridtype!r}; choose from {GRIDTYPES}"
        )


def _validate_log2_hashmap(log2_t: int) -> None:
    if log2_t != LOG2_HASHMAP_INHERIT and not 8 <= log2_t <= 30:
        raise ValueError(
            "log2_hashmap_size must be 0 (inherit Table I) or in [8, 30], "
            f"got {log2_t}"
        )


def _validate_per_level_scale(scale: float) -> None:
    if scale != PER_LEVEL_SCALE_INHERIT and not 1.0 <= scale <= 8.0:
        raise ValueError(
            "per_level_scale must be 0 (inherit Table I) or in [1.0, 8.0], "
            f"got {scale}"
        )


# ---------------------------------------------------------------------------
# the AxisSpec contract
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisSpec:
    """Declarative description of one sweep axis.

    - ``name`` — the :class:`~repro.core.dse.SweepGrid` field (plural,
      array-axis name); ``query_name`` the scalar selector the query
      APIs accept (``clock_ghz``, ``log2_hashmap_size``, ...).
    - ``kind`` — ``"workload"`` (concrete default values),
      ``"arch"`` (default None: inherit the base ``NGPCConfig`` at
      resolve time) or ``"encoding"`` (default None: inherit the app's
      Table I parameters via ``sentinel``).
    - ``canon``/``validate`` — element canonicalizer and validator;
      validation failures raise :class:`ValueError` with the same
      messages the pre-registry ``SweepGrid`` raised.
    - ``default`` — the concrete default axis (workload axes only).
    - ``inherit`` — resolve-time pin for default-None axes: a callable
      of the base :class:`NGPCConfig` returning the one inherited value.
    - ``sentinel`` — the inherit-sentinel value of an extension axis
      (None for the seed axes).  An extension axis is *active* only when
      its values differ from ``(sentinel,)``; inactive extension axes
      leave shapes, fingerprints and payloads bit-identical to the
      pre-registry code.
    - ``fingerprint_salt`` — the name the axis hashes under in
      :func:`~repro.core.dse.sweep_fingerprint` (the axis name; never
      change it for a registered axis, or every warm store invalidates).
    - ``block_role`` — ``"outer"`` axes key one block per value in the
      store block plan; ``"windowed"`` axes are carried as value windows
      inside each task tuple.
    - ``batch_kwarg`` — the :func:`~repro.core.emulator.emulate_batch`
      keyword carrying this axis (None for the positional workload
      axes).
    - ``builder`` — the fluent ``Grid()`` method name; ``cli`` /
      ``cli_cast`` the ``dse --sweep`` key and value parser.
    """

    name: str
    query_name: str
    kind: str
    canon: Callable
    validate: Callable
    default: Optional[Tuple] = None
    inherit: Optional[Callable] = None
    sentinel: Optional[object] = None
    legacy: bool = True
    block_role: str = "windowed"
    batch_kwarg: Optional[str] = None
    builder: str = ""
    cli: Optional[str] = None
    cli_cast: Optional[Callable] = None
    fingerprint_salt: str = ""
    description: str = ""

    def __post_init__(self):
        if not self.fingerprint_salt:
            object.__setattr__(self, "fingerprint_salt", self.name)
        if not self.builder:
            object.__setattr__(self, "builder", self.query_name)

    def checked(self, values) -> Tuple:
        """``values`` (one value or any sequence), flattened, canonical
        and each validated: the check and message a grid gives them."""
        values = tuple(self.canon(v) for v in np.asarray(values).reshape(-1))
        for value in values:
            self.validate(value)
        return values

    def is_active(self, values: Optional[Tuple]) -> bool:
        """Does this axis contribute array dimensions beyond the seed 8?

        Always True for the seed axes; an extension axis is active only
        when set to something other than its one-value inherit sentinel.
        """
        if self.sentinel is None:
            return True
        return values is not None and tuple(values) != (self.sentinel,)


#: the axis registry, in array-axis order.  The first eight entries are
#: the seed hypercube and MUST keep their order, names and salts — the
#: fingerprint scheme and every persisted store block depend on them.
AXES: Tuple[AxisSpec, ...] = (
    AxisSpec(
        name="apps",
        query_name="app",
        kind="workload",
        canon=str,
        validate=_validate_app,
        default=APP_NAMES,
        block_role="outer",
        builder="app",
        description="application names (Table I rows)",
    ),
    AxisSpec(
        name="schemes",
        query_name="scheme",
        kind="workload",
        canon=str,
        validate=_validate_scheme,
        default=("multi_res_hashgrid",),
        block_role="outer",
        builder="scheme",
        description="input-encoding schemes",
    ),
    AxisSpec(
        name="scale_factors",
        query_name="scale_factor",
        kind="workload",
        canon=int,
        validate=check_scale_factor,
        default=SCALE_FACTORS,
        builder="scale",
        cli="scale",
        cli_cast=int,
        description="NFPs per NGPC (power of two)",
    ),
    AxisSpec(
        name="pixel_counts",
        query_name="n_pixels",
        kind="workload",
        canon=int,
        validate=_validate_pixels,
        default=(FHD_PIXELS,),
        builder="pixels",
        cli="pixels",
        cli_cast=int,
        description="frame resolutions (pixels)",
    ),
    AxisSpec(
        name="clocks_ghz",
        query_name="clock_ghz",
        kind="arch",
        canon=float,
        validate=check_clock,
        inherit=lambda base: base.nfp.clock_ghz,
        batch_kwarg="clocks_ghz",
        builder="clock",
        cli="clock",
        cli_cast=float,
        description="NFP clock frequencies (GHz)",
    ),
    AxisSpec(
        name="grid_sram_kb",
        query_name="grid_sram_kb",
        kind="arch",
        canon=int,
        validate=check_grid_sram_kb,
        inherit=lambda base: base.nfp.grid_sram_kb_per_engine,
        batch_kwarg="grid_sram_kb",
        builder="sram",
        cli="sram",
        cli_cast=int,
        description="per-engine grid-SRAM sizes (KB, power of two)",
    ),
    AxisSpec(
        name="n_engines",
        query_name="n_engines",
        kind="arch",
        canon=int,
        validate=check_n_engines,
        inherit=lambda base: base.nfp.n_encoding_engines,
        batch_kwarg="n_engines",
        builder="engines",
        cli="engines",
        cli_cast=int,
        description="encoding engines per NFP",
    ),
    AxisSpec(
        name="n_batches",
        query_name="n_batches",
        kind="arch",
        canon=int,
        validate=check_n_batches,
        inherit=lambda base: base.n_pipeline_batches,
        batch_kwarg="n_batches",
        builder="batches",
        cli="batches",
        cli_cast=int,
        description="pipeline batch counts",
    ),
    AxisSpec(
        name="gridtypes",
        query_name="gridtype",
        kind="encoding",
        canon=str,
        validate=_validate_gridtype,
        inherit=lambda base: GRIDTYPE_AUTO,
        sentinel=GRIDTYPE_AUTO,
        legacy=False,
        batch_kwarg="gridtypes",
        builder="gridtype",
        cli="gridtype",
        cli_cast=str,
        description="grid storage policy (auto = Table I scheme policy)",
    ),
    AxisSpec(
        name="log2_hashmap_sizes",
        query_name="log2_hashmap_size",
        kind="encoding",
        canon=int,
        validate=_validate_log2_hashmap,
        inherit=lambda base: LOG2_HASHMAP_INHERIT,
        sentinel=LOG2_HASHMAP_INHERIT,
        legacy=False,
        batch_kwarg="log2_hashmap_sizes",
        builder="hashmap",
        cli="loghash",
        cli_cast=int,
        description="log2 hash-table entries T (0 = inherit Table I)",
    ),
    AxisSpec(
        name="per_level_scales",
        query_name="per_level_scale",
        kind="encoding",
        canon=float,
        validate=_validate_per_level_scale,
        inherit=lambda base: PER_LEVEL_SCALE_INHERIT,
        sentinel=PER_LEVEL_SCALE_INHERIT,
        legacy=False,
        batch_kwarg="per_level_scales",
        builder="level_scale",
        cli="plscale",
        cli_cast=float,
        description="per-level resolution growth factor b (0 = Table I)",
    ),
)

_BY_NAME = {spec.name: spec for spec in AXES}

#: every axis field, in array order (the seed eight plus the extensions)
AXIS_FIELDS = tuple(spec.name for spec in AXES)
#: the seed hypercube (array order) — the pre-registry ``AXIS_FIELDS``
LEGACY_AXIS_FIELDS = tuple(spec.name for spec in AXES if spec.legacy)
#: the registered-after-seed axes (array order)
EXTENSION_AXIS_FIELDS = tuple(spec.name for spec in AXES if not spec.legacy)
#: the axes carried as value windows inside shard/store tasks
CONFIG_AXIS_FIELDS = tuple(
    spec.name for spec in AXES if spec.block_role == "windowed"
)
#: emulate_batch keywords of the task fields after (scales, pixels),
#: in task-tuple order
TASK_BATCH_KWARGS = tuple(
    spec.batch_kwarg for spec in AXES if spec.batch_kwarg is not None
)
#: extension specs, for quick activity checks
EXTENSION_AXES = tuple(spec for spec in AXES if not spec.legacy)


def axis(name: str) -> AxisSpec:
    """The :class:`AxisSpec` registered under ``name`` (KeyError if none)."""
    return _BY_NAME[name]


def suggest_axis(name: str) -> Optional[str]:
    """The closest registered axis/builder/selector name, or None.

    Backs the structured unknown-axis errors of the ``Grid()`` builder
    and the CLI ``--sweep`` parser.
    """
    candidates = sorted(
        {spec.name for spec in AXES}
        | {spec.builder for spec in AXES}
        | {spec.query_name for spec in AXES}
        | {spec.cli for spec in AXES if spec.cli}
    )
    matches = difflib.get_close_matches(name, candidates, n=1, cutoff=0.5)
    return matches[0] if matches else None
