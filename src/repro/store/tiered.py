"""Tiered sweep evaluation over a :class:`~repro.store.ResultStore`.

The evaluation ladder, cheapest rung first:

1. **RAM** — the process-wide sweep memo
   (:data:`~repro.core.dse._SWEEP_CACHE`), microseconds.
2. **Disk, whole sweep** — a persisted :class:`SweepResult` under the
   sweep fingerprint, memory-mapped in milliseconds.
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

``counters`` is a caller-owned dict accumulating
``ram_hits``/``disk_hits``/``evaluations`` (sweep granularity) and
``blocks_total``/``blocks_cached``/``blocks_evaluated`` (block
granularity) — the numbers behind the service's tiered ``/stats``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import NGPCConfig
from repro.core.dse import (
    _SWEEP_CACHE,
    _SWEEP_CACHE_MAX_POINTS,
    LocalBlockRunner,
    SweepGrid,
    SweepResult,
    block_fingerprint,
    run_plan,
    store_block_plan,
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


def evaluate_with_block_cache(
    store: ResultStore,
    grid: SweepGrid,
    ngpc: Optional[NGPCConfig] = None,
    counters: Optional[Dict[str, int]] = None,
    on_block=None,
    on_plan=None,
) -> SweepResult:
    """Evaluate ``grid`` reusing persisted blocks; persist the delta.

    ``grid`` must be resolved.  The :func:`~repro.core.dse.store_block_plan`
    runs through a :class:`StoreBlockRunner` over the in-process runner:
    cached blocks load memory-mapped, missing blocks evaluate vectorized
    and are persisted as they land.  The assembled sweep is persisted
    whole under its sweep fingerprint.

    ``on_plan(n_blocks)`` / ``on_block(placement, block)`` are optional
    streaming hooks: the plan size is announced up front, then every
    block — cached or freshly evaluated — is reported as it lands, which
    is what feeds a service's partial-front stream.  With ``on_block``
    set, the plan is walked window-major
    (:func:`~repro.core.dse.window_major`) so the first exact partial
    Pareto points arrive as early as possible; the value-keyed store
    makes the order otherwise irrelevant.
    """
    plan = store_block_plan(grid)
    if on_block is not None:
        plan = window_major(plan)
    if on_plan is not None:
        on_plan(len(plan))
    runner = StoreBlockRunner(LocalBlockRunner(ngpc), store, ngpc, counters)
    result = run_plan(grid, plan, runner, STORE_ENGINE, ngpc, on_block)
    store.save_sweep(sweep_fingerprint(grid, ngpc), result)
    return result


def sweep_with_store(
    store: ResultStore,
    grid: Optional[SweepGrid] = None,
    ngpc: Optional[NGPCConfig] = None,
    counters: Optional[Dict[str, int]] = None,
    use_cache: bool = True,
) -> SweepResult:
    """Tiered :func:`~repro.core.dse.sweep_grid`: RAM, disk, blocks, eval.

    The drop-in evaluation path of a store-backed
    :class:`~repro.api.backends.LocalBackend`.  The RAM rung reuses the
    process-wide sweep memo (same size policy as ``sweep_grid``); pass
    ``use_cache=False`` to skip it (the disk tiers still apply — the
    store *is* the cache being exercised).
    """
    resolved = (grid or SweepGrid()).resolve(ngpc)
    fingerprint = sweep_fingerprint(resolved, ngpc)
    ram_key = (resolved, STORE_ENGINE, fingerprint)
    cacheable = use_cache and resolved.size <= _SWEEP_CACHE_MAX_POINTS
    if cacheable:
        cached = _SWEEP_CACHE.get(ram_key)
        if cached is not None:
            _bump(counters, "ram_hits")
            return cached
    result = store.load_sweep(fingerprint)
    if result is not None:
        _bump(counters, "disk_hits")
    else:
        _bump(counters, "evaluations")
        result = evaluate_with_block_cache(
            store, resolved, ngpc=ngpc, counters=counters
        )
    if cacheable:
        _SWEEP_CACHE.put(ram_key, result)
    return result
