"""The one tier ladder every backend evaluates a sweep through.

:func:`tiered_sweep` is shared by the local backend, the sweep service
(and through it the HTTP and distributed backends); they differ only in
the block runner and the transport.  Cheapest rung first:

1. **RAM** — owned by the caller, keyed on the sweep fingerprint: the
   service's LRU or the local backend's process-wide sweep memo
   (:data:`~repro.core.dse._SWEEP_CACHE`); a hit never reaches
   :func:`tiered_sweep` (``ram_hits``).
2. **Disk, whole sweep** — a persisted :class:`SweepResult` under the
   sweep fingerprint, memory-mapped in milliseconds (``disk_hits``).
3. **Disk, blocks** — the grid is cut by
   :func:`~repro.core.dse.store_block_plan` into value-keyed blocks;
   every block already persisted (by *any* previous sweep whose
   hypercube covers it) is loaded, and only the missing blocks
   evaluate, vectorized, before :func:`~repro.core.dse.run_plan`
   assembles the dense result — bit-identical to a from-scratch
   evaluation, because block arithmetic is the same elementwise NumPy
   broadcasting on the same values.
4. **Evaluate** — a fully cold grid evaluates block by block (so the
   *next* overlapping sweep starts at rung 3) and the assembled sweep
   is persisted whole (so an identical sweep restarts at rung 2).
   Without a store, rungs 2–3 are skipped; an injected ``sweep_fn``
   (the shard cluster) replaces the in-process block plan at rung 4
   but keeps rung 2 and the persist step.

``counters`` is a caller-owned dict accumulating
``ram_hits``/``disk_hits``/``evaluations`` (sweep granularity) and
``blocks_total``/``blocks_cached``/``blocks_evaluated`` (block
granularity) — the numbers behind the service's tiered ``/stats``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import NGPCConfig
from repro.core.dse import (
    LocalBlockRunner,
    SweepGrid,
    SweepResult,
    block_fingerprint,
    run_plan,
    shard_plan,
    store_block_plan,
    stream_plan,
    sweep_fingerprint,
    task_shape,
    window_major,
)
from repro.store.result_store import ResultStore

#: engine label stamped on results assembled through the store tier
STORE_ENGINE = "store"

#: every counter the tiered path maintains, in reporting order
TIER_COUNTERS = (
    "ram_hits",
    "disk_hits",
    "evaluations",
    "blocks_total",
    "blocks_cached",
    "blocks_evaluated",
)


def new_tier_counters() -> Dict[str, int]:
    """A zeroed counter dict in the shape ``/stats`` reports."""
    return {name: 0 for name in TIER_COUNTERS}


def _bump(counters: Optional[Dict[str, int]], name: str, n: int = 1) -> None:
    if counters is not None:
        counters[name] = counters.get(name, 0) + n


class StoreBlockRunner:
    """Persistent-store tier over another block runner.

    Hits load memory-mapped from the store (flagged cached, reported
    first); misses evaluate through ``inner`` and are persisted as each
    one lands, so a crash mid-sweep still banks the blocks already
    evaluated and re-running the same work — even in a fresh process —
    reuses every block.  ``counters`` (optional) accumulates the
    ``blocks_total``/``blocks_cached``/``blocks_evaluated`` tier
    counters.
    """

    def __init__(self, inner, store: ResultStore,
                 ngpc: Optional[NGPCConfig] = None,
                 counters: Optional[Dict[str, int]] = None):
        self.inner = inner
        self.store = store
        self.ngpc = ngpc
        self.counters = counters

    def evaluate(self, tasks: List[Tuple], on_block=None) -> List[Tuple[Dict, bool]]:
        out: List[Optional[Tuple[Dict, bool]]] = [None] * len(tasks)
        keys = [block_fingerprint(task, self.ngpc) for task in tasks]
        missing = []
        for index, task in enumerate(tasks):
            block = self.store.load_block(keys[index], task_shape(task))
            if block is None:
                missing.append(index)
                continue
            out[index] = (block, True)
            if on_block is not None:
                on_block(index, block)
        _bump(self.counters, "blocks_total", len(tasks))
        _bump(self.counters, "blocks_cached", len(tasks) - len(missing))

        def landed(k, block):
            index = missing[k]
            self.store.save_block(keys[index], block)
            _bump(self.counters, "blocks_evaluated")
            if on_block is not None:
                on_block(index, block)

        if missing:
            evaluated = self.inner.evaluate(
                [tasks[index] for index in missing], landed
            )
            for index, result in zip(missing, evaluated):
                out[index] = result
        return out


def tiered_sweep(
    grid: SweepGrid,
    ngpc: Optional[NGPCConfig] = None,
    store: Optional[ResultStore] = None,
    counters: Optional[Dict[str, int]] = None,
    on_plan=None,
    on_block=None,
    *,
    engine: str = "vectorized",
    sweep_fn=None,
) -> SweepResult:
    """Evaluate a resolved ``grid`` down the ladder below the RAM rung.

    With a ``store``: the persisted sweep, else the window-major
    :func:`~repro.core.dse.store_block_plan` through a
    :class:`StoreBlockRunner`, persisted whole.  Without one: the
    window-major :func:`~repro.core.dse.stream_plan` when blocks are
    watched, one block per (app, scheme) pair when not.  An injected
    ``sweep_fn`` (the shard cluster, test fakes) replaces the block
    plan and is called as ``sweep_fn(grid, engine=, ngpc=, on_block=)``;
    it always gets an ``on_block``, which counts its blocks.
    ``on_plan(n_blocks)`` announces the size of the plan that evaluated
    (a built-in plan's before it runs, a ``sweep_fn``'s reported blocks
    when it returns; never called when a persisted sweep answers), and
    ``on_block(placement, block)`` reports every landed block, cached or
    evaluated, on the thread that delivers it.
    """
    if store is not None:
        fingerprint = sweep_fingerprint(grid, ngpc)
        result = store.load_sweep(fingerprint)
        if result is not None:
            _bump(counters, "disk_hits")
            return result
    _bump(counters, "evaluations")
    if sweep_fn is not None:
        landed = []

        def count(placement, block):
            landed.append(placement)
            if on_block is not None:
                on_block(placement, block)

        result = sweep_fn(grid, engine=engine, ngpc=ngpc, on_block=count)
        if on_plan is not None:
            on_plan(len(landed))
    else:
        if store is not None:
            plan = window_major(store_block_plan(grid))
            runner = StoreBlockRunner(
                LocalBlockRunner(ngpc), store, ngpc, counters
            )
            engine = STORE_ENGINE
        else:
            plan = (
                stream_plan(grid) if on_block is not None
                else shard_plan(grid, len(grid.apps) * len(grid.schemes))
            )
            runner = LocalBlockRunner(ngpc, engine)
        if on_plan is not None:
            on_plan(len(plan))
        result = run_plan(grid, plan, runner, engine, ngpc, on_block)
    if store is not None:
        store.save_sweep(fingerprint, result)
    return result
