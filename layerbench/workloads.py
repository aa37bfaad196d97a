"""The design-space questions the benchmark asks, one kind per workload.

Every workload asks the same question of a fresh grid: the exact
Pareto front of (area overhead, all-apps mean speedup) at one frame
size, then the cheapest configuration rendering NeRF at 60 FPS at that
size.  The workloads differ in the path that answers it:

- ``adaptive``: ``Session()`` with the default ``explore="auto"`` on a
  1,048,576-point grid, which the adaptive explorer answers exactly
  while evaluating a few percent of it.
- ``served``: ``Session.remote`` against an in-process ``SweepService``
  behind the HTTP server on a 10,240-point grid; the dense result
  travels as JSON and the client answers from it.
- ``cluster_stream``: a ``DistributedBackend`` with two local workers on
  an 884,736-point grid; ``Sweep.watch()`` streams refining fronts to
  the final one, then the cheapest query is served from the service
  cache.

Grids are drawn from the seed: every clock value is jittered inside
its own cell, so each question is a new design space (no result cache
can answer it) of the same shape and the same amount of work.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import DistributedBackend, Session, SweepGrid
from repro.core.dse import sweep_grid

FHD = 1920 * 1080
SCHEME = "multi_res_hashgrid"
APP = "nerf"
FPS = 60.0


@dataclass
class Answer:
    grid: SweepGrid
    front: List[Dict]
    cheapest: Dict
    first_front_s: float
    answer_s: float
    fronts: int
    explore: Optional[Dict]


def jittered_clocks(rng, low: float, high: float, n: int) -> tuple:
    """``n`` sorted clocks, each drawn inside its own 1/n-th of the range."""
    step = (high - low) / n
    return tuple(float(low + step * (i + rng.uniform(0.25, 0.75)))
                 for i in range(n))


def ask(session: Session, grid: SweepGrid, tracer, n_pixels: int,
        explore: str, stream: bool = False) -> Answer:
    """One design-space question through the ``repro.api`` facade."""
    start = time.perf_counter()
    fronts = 0
    with tracer.span("session.sweep"):
        sweep = session.sweep(grid, explore=explore, lazy=stream)
    if stream:
        first = None
        with tracer.span("session.pareto"):
            for front in sweep.watch(scheme=SCHEME, n_pixels=n_pixels):
                fronts += 1
                if first is None:
                    first = time.perf_counter() - start
    else:
        with tracer.span("session.pareto"):
            front = sweep.pareto(scheme=SCHEME, n_pixels=n_pixels)
        first = time.perf_counter() - start
        fronts = 1
    with tracer.span("session.cheapest"):
        hit = sweep.cheapest(app=APP, fps=FPS, n_pixels=n_pixels, scheme=SCHEME)
    answer_s = time.perf_counter() - start
    return Answer(
        grid=sweep.grid,
        front=[p.to_dict() for p in front],
        cheapest=hit.to_dict(),
        first_front_s=first,
        answer_s=answer_s,
        fronts=fronts,
        explore=sweep.explore_stats,
    )


def check_reference(answer: Answer, n_pixels: int) -> Optional[str]:
    """Compare an answer with a fresh dense vectorized evaluation."""
    ref = sweep_grid(answer.grid, engine="vectorized", use_cache=False)
    front = [p.to_dict() for p in ref.pareto_front(SCHEME, n_pixels=n_pixels)]
    if answer.front != front:
        return "Pareto front differs from the dense vectorized reference"
    hit = ref.cheapest_point_meeting_fps(APP, FPS, n_pixels=n_pixels,
                                         scheme=SCHEME)
    if hit is None or answer.cheapest != hit.to_dict():
        return "cheapest point differs from the dense vectorized reference"
    return None


def check_scalar(answer: Answer, n_pixels: int) -> Optional[str]:
    """Re-evaluate the cheapest point on the scalar reference engine."""
    point = answer.cheapest
    axes = dict(point["config_axes"])
    grid = SweepGrid(
        apps=(APP,), schemes=(SCHEME,),
        scale_factors=(point["scale_factor"],), pixel_counts=(n_pixels,),
        clocks_ghz=(axes["clock_ghz"],), grid_sram_kb=(axes["grid_sram_kb"],),
        n_engines=(axes["n_engines"],), n_batches=(axes["n_batches"],),
    )
    ref = sweep_grid(grid, engine="scalar", use_cache=False)
    fps = float(ref.fps.reshape(-1)[0])
    speedup = float(ref.speedup.reshape(-1)[0])
    if fps < FPS:
        return f"cheapest point renders {fps:.3f} FPS < {FPS:g}"
    if abs(speedup - point["speedups"][APP]) > 1e-9 * abs(speedup):
        return "cheapest point's speedup differs from the scalar engine"
    return None


class Workload:
    name = ""
    n_pixels = FHD
    explore = "exhaustive"
    stream = False
    #: check every n-th answer against a dense reference (all get the
    #: scalar check); a reference costs about as much as a dense sweep
    reference_every = 1

    def grid(self, rng) -> SweepGrid:
        raise NotImplementedError

    def open(self):
        """Bring up the serving stack; returns it."""
        raise NotImplementedError

    def session(self, stack) -> Session:
        return stack

    def close(self, stack) -> None:
        stack.close()

    def counters(self, stack) -> Dict[str, float]:
        """Cumulative layer counters of the stack (traced runs only)."""
        return {}

    def ask(self, stack, grid, tracer) -> Answer:
        return ask(self.session(stack), grid, tracer, self.n_pixels,
                   self.explore, self.stream)


class Adaptive(Workload):
    name = "adaptive"
    explore = "auto"
    reference_every = 25

    def grid(self, rng) -> SweepGrid:
        return SweepGrid(
            apps=("nerf", "gia"), schemes=(SCHEME,),
            scale_factors=tuple(2 ** i for i in range(8)), pixel_counts=(FHD,),
            clocks_ghz=jittered_clocks(rng, 0.5, 2.1, 32),
            grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
            n_engines=tuple(2 ** i for i in range(8)),
            n_batches=tuple(2 ** i for i in range(16)),
        )

    def open(self):
        return None

    def session(self, stack) -> Session:
        # a session keeps one explorer (dense partial arrays) per grid it
        # explored, so every question gets its own, as a new caller would
        return Session()

    def close(self, stack) -> None:
        pass


class Served(Workload):
    name = "served"

    def grid(self, rng) -> SweepGrid:
        return SweepGrid(
            apps=("nerf", "gia", "nsdf", "nvr"), schemes=(SCHEME,),
            scale_factors=(8, 16, 32, 64), pixel_counts=(FHD, 3840 * 2160),
            clocks_ghz=jittered_clocks(rng, 0.6, 1.8, 5),
            grid_sram_kb=(256, 512, 1024, 2048), n_engines=(4, 8, 16, 32),
            n_batches=(4, 8, 16, 32),
        )

    def open(self):
        return ServedStack()

    def session(self, stack) -> Session:
        return stack.session

    def counters(self, stack) -> Dict[str, float]:
        return service_counters(stack.service.stats())


class ClusterStream(Workload):
    name = "cluster_stream"
    stream = True
    reference_every = 4

    def grid(self, rng) -> SweepGrid:
        return SweepGrid(
            apps=("nerf", "gia", "nsdf", "nvr"), schemes=(SCHEME,),
            scale_factors=(8, 16, 32, 64), pixel_counts=(1_000_000, FHD),
            clocks_ghz=jittered_clocks(rng, 0.6, 1.8, 64),
            grid_sram_kb=tuple(16 << k for k in range(12)),
            n_engines=(2, 4, 8, 16, 32, 64), n_batches=(1, 2, 4, 8, 16, 32),
        )

    def open(self):
        # each cached 884k-point result holds ~60 MB of arrays
        return Session(DistributedBackend(workers=2, max_cached_sweeps=4))

    def counters(self, stack) -> Dict[str, float]:
        stats = stack.stats()
        out = service_counters(stats)
        blocks = stats.get("cluster", {}).get("blocks", {})
        out["cluster.blocks"] = blocks.get("dispatched", 0)
        out["cluster.releases"] = blocks.get("releases", 0)
        return out


def service_counters(stats: Dict) -> Dict[str, float]:
    cache = stats.get("cache", {})
    return {
        "service.evaluations": stats.get("evaluations", 0),
        "service.cache_hits": cache.get("ram_hits", 0) + cache.get("disk_hits", 0),
        "http.requests": stats.get("http", {}).get("requests", 0),
    }


class ServedStack:
    """A ``SweepService`` behind the HTTP server on its own loop thread."""

    def __init__(self):
        from repro.service import SweepService, start_http_server

        self.service = SweepService()
        started = threading.Event()
        failure: List[BaseException] = []

        async def serve():
            try:
                server = await start_http_server(self.service, "127.0.0.1", 0)
            except BaseException as exc:
                failure.append(exc)
                started.set()
                raise
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            started.set()
            await self._stop.wait()
            await server.close()

        self._thread = threading.Thread(target=asyncio.run, args=(serve(),),
                                        name="layerbench-serve", daemon=True)
        self._thread.start()
        if not started.wait(timeout=30) or failure:
            raise RuntimeError(f"sweep service did not start: {failure}")
        self.session = Session.remote(port=self.port)

    def close(self) -> None:
        self.session.close()
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


WORKLOADS = {w.name: w for w in (Adaptive(), Served(), ClusterStream())}
