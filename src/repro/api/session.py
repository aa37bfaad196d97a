"""The :class:`Session` facade — one typed entry point to the DSE space.

A session binds a backend (in-process engines or a remote sweep
service) and exposes the same query surface either way::

    from repro.api import Grid, Session

    session = Session()                       # local, engine="vectorized"
    sweep = session.sweep(
        Grid().app("nerf").scale(8, 16, 32, 64).clock(0.8, 1.2, n=5)
    )
    front = sweep.pareto()                    # non-dominated configs
    hit = sweep.cheapest(app="nerf", fps=60)  # cheapest config @ 60 FPS
    r = sweep.point(app="nerf", scale_factor=8, clock_ghz=0.8)

    remote = Session.remote(port=8787)        # same calls, over HTTP

Both backends return the same :class:`Sweep` handle backed by a genuine
dense :class:`~repro.core.dse.SweepResult`, so query results are
bit-identical across backends (``tests/test_api_session.py`` holds the
parity to 1e-9) and failures raise one exception hierarchy rooted at
:class:`~repro.errors.ReproError` — including
:class:`~repro.core.dse.AmbiguousAxisError` for a scalar query against
a swept axis without a selector, on either backend.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.api.backends import (
    Backend,
    DistributedBackend,
    LocalBackend,
    RemoteBackend,
)
from repro.api.grid import Grid, as_sweep_grid
from repro.core.config import NGPCConfig
from repro.core.dse import (
    AmbiguousAxisError,
    DesignPoint,
    EmulationResult,
    SweepResult,
    sweep_fingerprint,
)
from repro.errors import (
    NotOnGridError,
    infeasible_query,
    infeasible_train_query,
)
from repro.service.errors import ServiceError
from repro.explore import AdaptiveExplorer
from repro.gpu.baseline import FHD_PIXELS

#: ``explore="auto"`` switches to adaptive exploration at this grid
#: size: below it the exhaustive vectorized sweep is effectively free,
#: above it most queries touch a few percent of the hypercube
ADAPTIVE_MIN_POINTS = 1 << 17

_EXPLORE_MODES = ("auto", "adaptive", "exhaustive")


def _pick(axis: str, values, value):
    """The facade-wide singleton rule for optional selectors.

    An unset selector resolves only when its axis holds exactly one
    value; otherwise the query is ambiguous and the error names the
    axis (the same rule the service's 400s encode).  A value absent
    from the grid is a :class:`NotOnGridError` — structured, inside the
    :class:`~repro.errors.ReproError` hierarchy, mapped to a 404 by the
    service layer.
    """
    if value is not None:
        if value not in values:
            raise NotOnGridError(f"{axis}={value!r} not on the grid")
        return value
    if len(values) == 1:
        return values[0]
    raise AmbiguousAxisError(axis, values)


class Sweep:
    """Handle over one design space — dense arrays or adaptive explorer.

    Exhaustive sweeps hold a dense :class:`~repro.core.dse.SweepResult`
    up front; adaptive sweeps hold an
    :class:`~repro.explore.AdaptiveExplorer` and evaluate only the
    blocks each query needs.  The query surface and the answers are
    identical either way (held to bit-equality by the test suite) —
    only the amount of emulation differs.  Accessing ``.result`` on an
    adaptive sweep forces the exhaustive evaluation for array-level
    consumers (the report renderer, NumPy analysis).
    """

    def __init__(
        self,
        result: Optional[SweepResult],
        backend: str,
        *,
        grid=None,
        explorer: Optional[AdaptiveExplorer] = None,
        backend_obj: Optional[Backend] = None,
    ):
        self._result = result
        #: name of the backend that evaluates this sweep
        self.backend = backend
        self._explorer = explorer
        self._grid = grid if grid is not None else result.grid
        self._backend_obj = backend_obj

    # -- shape ---------------------------------------------------------------
    @property
    def grid(self):
        """The resolved :class:`~repro.core.dse.SweepGrid`."""
        return self._grid

    @property
    def size(self) -> int:
        return self._grid.size

    @property
    def explore(self) -> str:
        """``"adaptive"`` or ``"exhaustive"`` — how queries evaluate."""
        return "adaptive" if self._explorer is not None else "exhaustive"

    @property
    def explore_stats(self) -> Optional[Dict]:
        """Adaptive exploration counters, or None on exhaustive sweeps.

        ``points_evaluated / points_total`` is the evaluated fraction of
        the hypercube across every query answered so far (explorers are
        shared per grid fingerprint within a session, so the counters
        accumulate across ``session.sweep()`` calls too).
        """
        if self._explorer is None:
            return None
        return self._explorer.stats.to_dict()

    @property
    def result(self) -> SweepResult:
        """The dense :class:`~repro.core.dse.SweepResult`.

        On an adaptive sweep this **forces exhaustive evaluation** of
        the whole grid (once; the result is kept) — queries keep
        answering adaptively, but array-level consumers get the full
        dense arrays they expect.
        """
        if self._result is None:
            self._result = self._backend_obj.sweep(self._grid)
        return self._result

    def __repr__(self) -> str:
        if self._result is None:
            return (
                f"Sweep({self.size} points, backend={self.backend!r}, "
                f"explore={self.explore!r})"
            )
        return (
            f"Sweep({self.size} points, backend={self.backend!r}, "
            f"engine={self._result.engine!r})"
        )

    # -- queries -------------------------------------------------------------
    def pareto(
        self,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> List[DesignPoint]:
        """Non-dominated (area cost, speedup benefit) configurations.

        ``scheme``/``n_pixels`` follow the singleton rule; ``app=None``
        ranks by the all-apps average speedup.  On grids that sweep the
        encoding axes (``gridtype``/``log2_hashmap_size``/
        ``per_level_scale``), those selectors follow the same singleton
        rule and pin the front to one encoding variant.
        """
        scheme = _pick("scheme", self.grid.schemes, scheme)
        if app is not None and app not in self.grid.apps:
            raise NotOnGridError(f"app={app!r} not on the grid")
        target = (
            self._explorer.pareto if self._explorer is not None
            else self.result.pareto_front
        )
        return target(
            scheme, n_pixels=n_pixels, app=app, gridtype=gridtype,
            log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )

    def cheapest(
        self,
        app: Optional[str] = None,
        fps: Optional[float] = None,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        train_steps_per_s: Optional[float] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> DesignPoint:
        """Cheapest-area configuration hitting a throughput target.

        The target is either ``fps`` (rendering, the default — 60 when
        neither is named) or ``train_steps_per_s`` (training-time
        queries over the derived
        :attr:`~repro.core.dse.SweepResult.train_steps_per_s` metric);
        naming both is ambiguous and raises :class:`ValueError`.

        Raises :class:`~repro.errors.InfeasibleQueryError` when no
        point on the grid reaches the target — the identical structured
        error (message, query echo, achievable ``best_fps`` /
        ``best_rate``) on every backend and explore mode, so callers
        can relax the constraint programmatically.
        """
        if fps is not None and train_steps_per_s is not None:
            raise ValueError(
                "name one target: fps= or train_steps_per_s=, not both"
            )
        app = _pick("app", self.grid.apps, app)
        encoding = dict(
            gridtype=gridtype, log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )
        if train_steps_per_s is not None:
            return self._cheapest_train(
                app, train_steps_per_s, n_pixels, scheme, encoding
            )
        fps = 60.0 if fps is None else fps
        if self._explorer is not None:
            return self._explorer.cheapest(
                app, fps, n_pixels=n_pixels, scheme=scheme, **encoding
            )
        result = self.result
        hit = result.cheapest_point_meeting_fps(
            app, fps, n_pixels=n_pixels, scheme=scheme, **encoding
        )
        if hit is not None:
            return hit
        grid = self.grid
        i = grid.apps.index(app)
        j = result._axis_index("scheme", scheme, grid.schemes)
        l = result._axis_index("n_pixels", n_pixels, grid.pixel_counts)
        acc = result.accelerated_ms[i, j, :, l]
        enc = result._encoding_slice(**encoding)
        if enc:
            acc = acc[..., enc[0], enc[1], enc[2]]
        best_fps = float(1000.0 / acc.min())
        raise infeasible_query(
            app, fps, grid.pixel_counts[l], grid.schemes[j], best_fps
        )

    def _cheapest_train(
        self, app, steps_per_s, n_pixels, scheme, encoding
    ) -> DesignPoint:
        """Cheapest config training at ``steps_per_s``; raises infeasible.

        Both explore modes answer from the same feasibility boundary
        (the explorer's predicate replicates the dense metric's exact
        arithmetic); an infeasible adaptive query falls back to the
        dense result once to report the achievable rate.
        """
        if self._explorer is not None:
            hit = self._explorer.cheapest_train(
                app, steps_per_s, n_pixels=n_pixels, scheme=scheme,
                **encoding,
            )
        else:
            hit = self.result.cheapest_point_meeting_train_rate(
                app, steps_per_s, n_pixels=n_pixels, scheme=scheme,
                **encoding,
            )
        if hit is not None:
            return hit
        result = self.result
        grid = self.grid
        i = grid.apps.index(app)
        j = result._axis_index("scheme", scheme, grid.schemes)
        l = result._axis_index("n_pixels", n_pixels, grid.pixel_counts)
        rates = result.train_steps_per_s[i, j, :, l]
        enc = result._encoding_slice(**encoding)
        if enc:
            rates = rates[..., enc[0], enc[1], enc[2]]
        raise infeasible_train_query(
            app, steps_per_s, grid.pixel_counts[l], grid.schemes[j],
            float(rates.max()),
        )

    def point(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        scale_factor: Optional[int] = None,
        n_pixels: Optional[int] = None,
        clock_ghz: Optional[float] = None,
        grid_sram_kb: Optional[int] = None,
        n_engines: Optional[int] = None,
        n_batches: Optional[int] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> EmulationResult:
        """One grid point; every selector follows the singleton rule."""
        target = self._explorer if self._explorer is not None else self.result
        return target.point(
            _pick("app", self.grid.apps, app),
            _pick("scheme", self.grid.schemes, scheme),
            _pick("scale_factor", self.grid.scale_factors, scale_factor),
            _pick("n_pixels", self.grid.pixel_counts, n_pixels),
            clock_ghz=clock_ghz,
            grid_sram_kb=grid_sram_kb,
            n_engines=n_engines,
            n_batches=n_batches,
            gridtype=gridtype,
            log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )

    def watch(
        self,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ):
        """Yield refining Pareto fronts while the sweep evaluates.

        A generator of ``List[DesignPoint]``: each yielded front is
        *exact* over the grid points evaluated so far (never an
        estimate — see :class:`repro.service.progress.PartialSweep`),
        and the last one is the dense result's front, bit-identical to
        :meth:`pareto` with the same selectors.  On a sweep that is
        already evaluated (or an adaptive one), the final front is
        yielded once.  Backends that cannot stream fall back to one
        dense evaluation and a single yield.  Abandoning the generator
        early is safe: in-process evaluation stops with it, a service
        keeps evaluating for its other subscribers.

        On streaming backends the dense result rides along with the
        last event (local backends) or stays server-side (remote), so
        fully consuming ``watch()`` never evaluates the grid twice.
        """
        selected = _pick("scheme", self.grid.schemes, scheme)
        if app is not None and app not in self.grid.apps:
            raise NotOnGridError(f"app={app!r} not on the grid")
        encoding = dict(
            gridtype=gridtype, log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )
        if self._result is not None or self._explorer is not None:
            yield self.pareto(
                scheme=selected, n_pixels=n_pixels, app=app, **encoding
            )
            return
        stream = None
        if self._backend_obj is not None:
            stream = self._backend_obj.stream_events(
                self._grid, scheme=selected, n_pixels=n_pixels, app=app,
                **encoding,
            )
        if stream is None:
            yield self.pareto(
                scheme=selected, n_pixels=n_pixels, app=app, **encoding
            )
            return
        for event in stream:
            kind = event.get("event")
            if kind == "front":
                yield [DesignPoint.from_dict(p) for p in event["points"]]
            elif kind == "error":
                raise ServiceError.from_payload(
                    {"ok": False, "error": event["error"]}
                )
            elif kind == "complete" and event.get("result_obj") is not None:
                self._result = event["result_obj"]

    def records(self, limit: Optional[int] = None) -> List[Dict]:
        """Flat per-point dicts (JSON/table friendly; forces evaluation)."""
        return self.result.to_records(limit=limit)


class Session:
    """One typed entry point over every execution path of the repro.

    ``Session()`` evaluates in-process; :meth:`Session.remote` talks to
    a running ``python -m repro serve`` over one keep-alive connection.
    The query surface and result types are identical either way.
    """

    def __init__(self, backend: Optional[Backend] = None, store=None):
        """Bind a backend; ``store`` is sugar for a store-backed local one.

        ``Session(store="results/")`` evaluates in-process through the
        persistent result store (see :class:`~repro.store.ResultStore`).
        A custom ``backend`` already encodes its own evaluation path, so
        combining the two is ambiguous and raises.
        """
        if backend is not None and store is not None:
            raise ValueError(
                "pass either backend= or store=, not both "
                "(give the store to the backend instead)"
            )
        if store is not None:
            backend = LocalBackend(store=store)
        self.backend = backend or LocalBackend()
        # adaptive explorers, keyed by grid fingerprint: repeated
        # sweep() calls over one design space share partial evaluations
        self._explorers: Dict[str, AdaptiveExplorer] = {}
        self._explorers_lock = threading.Lock()

    # -- constructors --------------------------------------------------------
    @classmethod
    def local(
        cls,
        engine: str = "vectorized",
        ngpc: Optional[NGPCConfig] = None,
        use_cache: bool = True,
        store=None,
    ) -> "Session":
        """An in-process session (``engine`` "vectorized" or "scalar").

        ``store`` (a :class:`~repro.store.ResultStore` or a directory
        path) routes evaluation through the persistent tier: persisted
        sweeps load memory-mapped, and cold grids evaluate only the
        blocks no previous sweep covered.
        """
        return cls(LocalBackend(
            engine=engine, ngpc=ngpc, use_cache=use_cache, store=store,
        ))

    @classmethod
    def remote(
        cls,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 120.0,
        api_key: Optional[str] = None,
    ) -> "Session":
        """A session over a running sweep service (keep-alive HTTP).

        ``api_key`` authenticates against a multi-tenant server
        (``repro serve --tenants``): every request carries
        ``Authorization: Bearer <key>``.
        """
        return cls(RemoteBackend(
            host=host, port=port, timeout=timeout, api_key=api_key,
        ))

    @classmethod
    def distributed(
        cls,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ngpc: Optional[NGPCConfig] = None,
        **options,
    ) -> "Session":
        """A session over an embedded shard cluster.

        Starts a coordinator on ``host:port`` (0 picks an ephemeral
        port), spawns ``workers`` local worker processes, and accepts
        any remote host that runs ``repro worker`` against the bound
        endpoint (``session.backend.port``).  Close the session to tear
        the cluster down.
        """
        return cls(DistributedBackend(
            workers=workers, host=host, port=port, ngpc=ngpc, **options
        ))

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ----------------------------------------------------------
    def sweep(self, grid=None, explore: str = "auto", lazy: bool = False) -> Sweep:
        """Evaluate (or lazily explore) a design space; returns the handle.

        ``lazy=True`` returns the handle *without* evaluating anything:
        iterate :meth:`Sweep.watch` to stream exact partial Pareto
        fronts while the grid evaluates block by block, or touch any
        dense query/``.result`` to force the ordinary evaluation.
        (Adaptive sweeps are already lazy; the flag matters for
        exhaustive ones.)

        ``grid`` may be a :class:`~repro.api.grid.Grid` builder, a
        :class:`~repro.core.dse.SweepGrid`, a JSON axis dict, or None
        for the paper's default (app x scheme-default x scale) space.

        The grid is **normalized** first (axis values sorted and
        de-duplicated — the same canonicalization the sweep service
        applies), so every spelling of one design space shares one
        evaluation, one cache entry, and one array layout on every
        backend.  Read axis orderings off ``sweep.grid``, not off the
        spelling you passed in.

        ``explore`` picks the evaluation strategy:

        - ``"exhaustive"`` — evaluate the whole grid now (dense arrays);
        - ``"adaptive"`` — evaluate nothing now; each Pareto/cheapest
          query adaptively evaluates only the blocks it needs (typically
          a few percent of the hypercube) with answers identical to the
          exhaustive sweep's;
        - ``"auto"`` (default) — adaptive for grids of at least
          ``ADAPTIVE_MIN_POINTS`` points, exhaustive below (small grids
          are effectively free to evaluate densely).

        Adaptive exploration runs wherever the backend can evaluate
        blocks: in-process (through the persistent store when the
        session has one) or on the distributed shard cluster.  The
        remote backend keeps ``"auto"`` exhaustive client-side — the
        service explores server-side when started with
        ``repro serve --explore adaptive`` — and rejects an explicit
        ``explore="adaptive"`` with :class:`ValueError`.
        """
        if explore not in _EXPLORE_MODES:
            raise ValueError(
                f"explore must be one of {_EXPLORE_MODES}, got {explore!r}"
            )
        normalized = as_sweep_grid(grid).normalized()
        if explore != "exhaustive":
            runner = self.backend.block_runner()
            if runner is None:
                if explore == "adaptive":
                    raise ValueError(
                        f"explore='adaptive' is not available on the "
                        f"{self.backend.name!r} backend; start the service "
                        "with 'repro serve --explore adaptive' to explore "
                        "server-side"
                    )
            else:
                ngpc = getattr(self.backend, "ngpc", None)
                resolved = normalized.resolve(ngpc).normalized()
                if explore == "adaptive" or resolved.size >= ADAPTIVE_MIN_POINTS:
                    explorer = self._explorer_for(resolved, runner, ngpc)
                    return Sweep(
                        None,
                        self.backend.name,
                        grid=explorer.grid,
                        explorer=explorer,
                        backend_obj=self.backend,
                    )
        if lazy:
            ngpc = getattr(self.backend, "ngpc", None)
            return Sweep(
                None,
                self.backend.name,
                grid=normalized.resolve(ngpc).normalized(),
                backend_obj=self.backend,
            )
        result = self.backend.sweep(normalized)
        return Sweep(result, backend=self.backend.name)

    def _explorer_for(self, resolved, runner, ngpc) -> AdaptiveExplorer:
        """One shared explorer per resolved grid (fingerprint-keyed).

        Sharing means a re-sweep of the same design space — any spelling
        of it — reuses every block already evaluated by earlier queries;
        the explorer's own dedup guarantees no block evaluates twice.
        """
        key = sweep_fingerprint(resolved, ngpc)
        with self._explorers_lock:
            explorer = self._explorers.get(key)
            if explorer is None:
                explorer = AdaptiveExplorer(resolved, runner=runner, ngpc=ngpc)
                self._explorers[key] = explorer
            return explorer

    def point(
        self,
        app: str = "nerf",
        scheme: str = "multi_res_hashgrid",
        scale_factor: int = 8,
        n_pixels: int = FHD_PIXELS,
    ) -> EmulationResult:
        """One fully specified configuration via the scalar fast path.

        Local sessions answer from the memoized scalar emulator (no
        grid evaluation); remote sessions ask the service for the same
        singleton point.
        """
        return self.backend.point(app, scheme, scale_factor, n_pixels)

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict:
        """Backend counters (cache, coalescing, keep-alive reuse)."""
        return self.backend.stats()

    def health(self) -> Dict:
        """Backend liveness (always ok locally; probes the service remotely)."""
        return self.backend.health()
