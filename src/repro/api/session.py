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
    DesignPoint,
    EmulationResult,
    SweepResult,
    axis_index,
    query_slice,
    validate_selectors,
)
from repro.errors import infeasible_query, infeasible_train_query
from repro.gpu.baseline import FHD_PIXELS

#: the accepted ``explore=`` values; both evaluate the grid densely
_EXPLORE_MODES = ("auto", "exhaustive")


class Sweep:
    """Handle over one densely evaluated design space.

    Holds the dense :class:`~repro.core.dse.SweepResult` — up front, or
    on first use for a lazy sweep (whose :meth:`watch` streams exact
    partial fronts while it evaluates).  Every query answers from those
    arrays through the one query kernel in :mod:`repro.core.dse`.
    """

    def __init__(
        self,
        result: Optional[SweepResult],
        backend: str,
        *,
        grid=None,
        backend_obj: Optional[Backend] = None,
    ):
        self._result = result
        #: name of the backend that evaluates this sweep
        self.backend = backend
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
        """Always ``"exhaustive"``: every sweep evaluates densely."""
        return "exhaustive"

    @property
    def explore_stats(self) -> None:
        """Always None (no sweep evaluates a partial grid)."""
        return None

    @property
    def result(self) -> SweepResult:
        """The dense :class:`~repro.core.dse.SweepResult`.

        A lazy sweep evaluates here on first use (once; the result is
        kept).
        """
        if self._result is None:
            self._result = self._backend_obj.sweep(self._grid)
        return self._result

    def __repr__(self) -> str:
        if self._result is None:
            return f"Sweep({self.size} points, backend={self.backend!r}, lazy)"
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
        **selectors,
    ) -> List[DesignPoint]:
        """Non-dominated (area cost, speedup benefit) configurations.

        ``scheme``/``n_pixels`` follow the singleton rule
        (:func:`~repro.core.dse.axis_index`); ``app=None`` ranks by the
        all-apps average speedup.  ``selectors`` are keyed by the query
        names of the registry's encoding axes
        (:data:`~repro.core.axes.EXTENSION_AXES`); they follow the same
        rule and pin the front to one encoding variant.  Any other name
        raises :class:`~repro.errors.UnknownAxisError`.
        """
        return self.result.pareto_front(
            scheme, n_pixels=n_pixels, app=app, **selectors
        )

    def cheapest(
        self,
        app: Optional[str] = None,
        fps: Optional[float] = None,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        train_steps_per_s: Optional[float] = None,
        **selectors,
    ) -> DesignPoint:
        """Cheapest-area configuration hitting a throughput target.

        The target is either ``fps`` (rendering, the default — 60 when
        neither is named) or ``train_steps_per_s`` (training-time
        queries over the derived
        :attr:`~repro.core.dse.SweepResult.train_steps_per_s` metric);
        naming both is ambiguous and raises :class:`ValueError`.
        ``selectors`` are the encoding-axis selectors of :meth:`pareto`.

        Raises :class:`~repro.errors.InfeasibleQueryError` when no
        point on the grid reaches the target — the identical structured
        error (message, query echo, achievable ``best_fps`` /
        ``best_rate``) on every backend, so callers
        can relax the constraint programmatically.
        """
        if fps is not None and train_steps_per_s is not None:
            raise ValueError(
                "name one target: fps= or train_steps_per_s=, not both"
            )
        app = self.grid.apps[axis_index("app", app, self.grid.apps)]
        if train_steps_per_s is not None:
            return self._cheapest_train(
                app, train_steps_per_s, n_pixels, scheme, selectors
            )
        fps = 60.0 if fps is None else fps
        result = self.result
        hit = result.cheapest_point_meeting_fps(
            app, fps, n_pixels=n_pixels, scheme=scheme, **selectors
        )
        if hit is not None:
            return hit
        grid = self.grid
        query = query_slice(grid, scheme, n_pixels, **selectors)
        acc = result.accelerated_ms[query.index][grid.apps.index(app)]
        raise infeasible_query(
            app, fps, grid.pixel_counts[query.pixels],
            grid.schemes[query.scheme], float(1000.0 / acc.min()),
        )

    def _cheapest_train(
        self, app, steps_per_s, n_pixels, scheme, selectors
    ) -> DesignPoint:
        """Cheapest config training at ``steps_per_s``; raises infeasible."""
        result = self.result
        hit = result.cheapest_point_meeting_train_rate(
            app, steps_per_s, n_pixels=n_pixels, scheme=scheme, **selectors,
        )
        if hit is not None:
            return hit
        grid = self.grid
        query = query_slice(grid, scheme, n_pixels, **selectors)
        rates = result.train_steps_per_s[query.index][grid.apps.index(app)]
        raise infeasible_train_query(
            app, steps_per_s, grid.pixel_counts[query.pixels],
            grid.schemes[query.scheme], float(rates.max()),
        )

    def point(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        scale_factor: Optional[int] = None,
        n_pixels: Optional[int] = None,
        **selectors,
    ) -> EmulationResult:
        """One grid point.

        ``selectors`` may name any registered axis by its query name
        (:data:`~repro.core.axes.AXES`: the architecture and encoding
        axes after the four leading ones).  Every selector follows the
        singleton rule; an unregistered name raises
        :class:`~repro.errors.UnknownAxisError`.
        """
        return self.result.point(
            app, scheme, scale_factor, n_pixels, **selectors
        )

    def watch(
        self,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **selectors,
    ):
        """Yield refining Pareto fronts while the sweep evaluates.

        A generator of ``List[DesignPoint]``: each yielded front is
        *exact* over the grid points evaluated so far (never an
        estimate — see :class:`repro.service.progress.PartialSweep`),
        and the last one is the dense result's front, bit-identical to
        :meth:`pareto` with the same arguments (``selectors`` as there,
        checked before anything evaluates).  On a sweep that is
        already evaluated, the final front is yielded once.  Backends
        that cannot stream fall back to one dense evaluation and a
        single yield.  Abandoning the generator
        early is safe: in-process evaluation stops with it, a service
        keeps evaluating for its other subscribers.

        On streaming backends the dense result rides along with the
        last event (in-process backends) or stays server-side (remote),
        so fully consuming ``watch()`` never evaluates the grid twice.
        """
        validate_selectors(self.grid, scheme, n_pixels, app, **selectors)
        stream = None
        if self._result is None and self._backend_obj is not None:
            stream = self._backend_obj.stream_events(
                self._grid, scheme=scheme, n_pixels=n_pixels, app=app,
                **selectors,
            )
        if stream is None:
            yield self.pareto(
                scheme=scheme, n_pixels=n_pixels, app=app, **selectors
            )
            return
        # a failed sweep raises out of the stream (the remote client
        # rebuilds the served error event as a ServiceError)
        for event in stream:
            kind = event["event"]
            if kind == "front":
                yield [DesignPoint.from_dict(p) for p in event["points"]]
            elif kind == "complete" and "result_obj" in event:
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
        """Evaluate a design space densely; returns the handle.

        ``lazy=True`` returns the handle *without* evaluating anything:
        iterate :meth:`Sweep.watch` to stream exact partial Pareto
        fronts while the grid evaluates block by block, or touch any
        query/``.result`` to force the ordinary evaluation.

        ``grid`` may be a :class:`~repro.api.grid.Grid` builder, a
        :class:`~repro.core.dse.SweepGrid`, a JSON axis dict, or None
        for the paper's default (app x scheme-default x scale) space.

        The grid is **normalized** first (axis values sorted and
        de-duplicated — the same canonicalization the sweep service
        applies), so every spelling of one design space shares one
        evaluation, one cache entry, and one array layout on every
        backend.  Read axis orderings off ``sweep.grid``, not off the
        spelling you passed in.

        ``explore`` is ``"auto"`` (default) or ``"exhaustive"``; both
        evaluate the whole grid, at any size.  The adaptive explorer
        that once answered large grids from a few percent of their
        points was removed once the dense path measured faster, and
        ``explore="adaptive"`` (or any other value) raises
        :class:`ValueError`.
        """
        if explore not in _EXPLORE_MODES:
            raise ValueError(
                f"explore must be one of {_EXPLORE_MODES}, got {explore!r}: "
                "the adaptive explorer was removed and every sweep "
                "evaluates densely"
            )
        # resolved against the backend's base config for a lazy handle,
        # never for a remote request (the service resolves against its own)
        target = as_sweep_grid(grid).normalized()
        if lazy:
            ngpc = getattr(self.backend, "ngpc", None)
            return Sweep(
                None,
                self.backend.name,
                grid=target.resolve(ngpc).normalized(),
                backend_obj=self.backend,
            )
        result = self.backend.sweep(target)
        return Sweep(result, backend=self.backend.name)

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
