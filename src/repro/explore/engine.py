"""Adaptive exploration: exact Pareto/cheapest answers from partial sweeps.

The constraint queries of the DSE — "the non-dominated (area, speedup)
configurations" and "the cheapest configuration hitting N fps" — do not
need every point of a million-point hypercube.  :class:`AdaptiveExplorer`
answers them **exactly** (bit-identical :class:`~repro.core.dse.DesignPoint`
payloads to the exhaustive engine, pinned by ``tests/test_explore.py``)
while evaluating a small fraction of the grid:

1. **Coarse subsample.**  :func:`~repro.core.dse.refinement_plan` lays
   an evenly spaced lattice over the four refinement axes (scale, clock,
   SRAM, engines) and partitions the space into blocks whose corner
   cells all sit on the lattice.  Bound-probing evaluations (the lattice
   and every block corner) touch only the last batch-axis cell — the
   benefit is monotone non-decreasing along the batch axis, so that one
   cell bounds the whole column; full columns are evaluated only inside
   surviving leaf blocks.
2. **Dominance pruning.**  The cost arrays (area/power overhead) are
   computed exactly for the *whole* slice up front — they come from the
   closed-form :func:`~repro.core.area_power.ngpc_area_power_batch`, not
   from timing emulation — so every block knows its exact minimum cost.
   Its benefit is bounded by its evaluated upper corner: the performance
   model is monotone non-decreasing along every architecture axis
   (verified at runtime on every evaluated leaf — a violation flips the
   engine into exhaustive fallback and is counted in ``stats``).
   :func:`~repro.core.dse.dominance_prune` then discards blocks whose
   every cell is **strictly** dominated by an already-evaluated point —
   strictly, so an exact (cost, value) duplicate of a frontier point is
   never pruned and :func:`~repro.core.dse.pareto_front`'s
   lowest-flat-index tie-break survives: every cell of a pruned block is
   dominated outright, and every non-pruned cell column ends up fully
   evaluated by a leaf, so the duplicate representatives the tie-break
   picks are always materialized.
3. **Successive halving.**  Surviving blocks either evaluate outright
   (small ones, coalesced into as few vectorized tasks as possible) or
   split along their longest axis, evaluating only the new corner cells;
   rounds repeat until no block is undecided.  ``cheapest()`` needs no
   bounds at all: blocks pop off a priority queue in exact-minimum-cost
   order until every cell at least as cheap as the cheapest feasible
   point found has been evaluated — which reproduces the exhaustive
   ``argmin`` tie-break verbatim.

Work units are ordinary :func:`~repro.core.dse.evaluate_block` tuples
(value-keyed, fingerprinted), evaluated through any block runner of
:func:`~repro.core.dse.run_plan`'s contract: in-process
(:class:`~repro.core.dse.LocalBlockRunner`), through the persistent
store (:class:`~repro.store.StoreBlockRunner` — re-running a query in a
fresh process reuses every block for free), or leased across a shard
cluster (:class:`~repro.service.cluster.ClusterBlockRunner`).  Tasks shrink to the cells still
missing from the explorer's dense partial arrays before dispatch, so no
grid cell is ever emulated twice, whatever the rounds or queries do;
:class:`ExplorationStats` counts rounds, blocks (evaluated / cached /
pruned) and points (evaluated / skipped).
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.area_power import ngpc_area_power_batch
from repro.core.config import NGPCConfig
from repro.core.dse import (
    TRAIN_STEP_FLOP_FACTOR,
    AmbiguousAxisError,
    DesignPoint,
    LocalBlockRunner,
    SweepGrid,
    dominance_prune,
    pareto_front,
    refinement_plan,
    selection_task,
)
from repro.core.emulator import EmulationResult
from repro.errors import NotOnGridError, infeasible_query

#: per-axis segments of the coarse lattice (round 0 evaluates the
#: lattice cross product at the last batch cell)
DEFAULT_SEGMENTS = 3

#: blocks at most this many (scale, clock, SRAM, engines) cells probe
#: their last-batch cells outright instead of splitting further; larger
#: leaves trade a few extra probed points for far fewer rounds
DEFAULT_LEAF_CELLS = 128

#: ceiling on the cells of one coalesced corner-evaluation task (the
#: union product of many single cells; capping it bounds the slack the
#: union adds over the cells actually requested)
DEFAULT_COALESCE_CELLS = 4096


@dataclass
class ExplorationStats:
    """Counters of one explorer (aggregated over all its queries).

    ``blocks_*`` count value-keyed evaluation tasks: ``blocks_total`` =
    requested, of which ``blocks_cached`` were already materialized (RAM
    arrays, or a persistent-store hit) and ``blocks_evaluated`` actually
    ran the emulator; ``blocks_pruned`` counts refinement windows
    discarded by dominance bounds without evaluation.
    ``points_evaluated`` counts unique grid points (an (app, scheme,
    scale, pixels, clock, sram, engines, batches) cell) whose timing has
    been materialized; ``points_skipped`` is the remainder of the
    hypercube.  ``bound_violations`` counts observed breaks of the
    monotone-benefit assumption (each one flips the affected query into
    exhaustive fallback, keeping answers exact).
    """

    rounds: int = 0
    blocks_total: int = 0
    blocks_evaluated: int = 0
    blocks_cached: int = 0
    blocks_pruned: int = 0
    points_total: int = 0
    points_evaluated: int = 0
    bound_violations: int = 0

    @property
    def points_skipped(self) -> int:
        return max(0, self.points_total - self.points_evaluated)

    def to_dict(self) -> Dict[str, int]:
        out = {name: int(getattr(self, name)) for name in (
            "rounds", "blocks_total", "blocks_evaluated", "blocks_cached",
            "blocks_pruned", "points_total", "points_evaluated",
            "bound_violations",
        )}
        out["points_skipped"] = int(self.points_skipped)
        return out


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


class AdaptiveExplorer:
    """Exact Pareto/cheapest answers by adaptive partial evaluation.

    One explorer serves one (resolved) grid; its queries share the dense
    partial arrays, the block dedup, and one :class:`ExplorationStats`.
    Thread-safe (the sweep service queries from executor threads).
    """

    def __init__(
        self,
        grid: SweepGrid,
        runner=None,
        ngpc: Optional[NGPCConfig] = None,
        *,
        segments: int = DEFAULT_SEGMENTS,
        leaf_cells: int = DEFAULT_LEAF_CELLS,
        coalesce_cells: int = DEFAULT_COALESCE_CELLS,
    ):
        self.grid = (grid or SweepGrid()).resolve(ngpc)
        self.runner = runner or LocalBlockRunner(ngpc)
        self.ngpc = ngpc
        self.segments = int(segments)
        self.leaf_cells = max(1, int(leaf_cells))
        self.coalesce_cells = max(1, int(coalesce_cells))
        cost = ngpc_area_power_batch(
            np.asarray(self.grid.scale_factors),
            ngpc.nfp if ngpc else None,
            clocks_ghz=self.grid.clocks_ghz,
            grid_sram_kb=self.grid.grid_sram_kb,
            n_engines=self.grid.n_engines,
        )
        #: exact (K, C, G, E) cost arrays for the whole space — the
        #: pruning side of every query costs no emulation at all
        self._area4 = cost["area_overhead_pct"]
        self._power4 = cost["power_overhead_pct"]
        #: when the cost surface is monotone non-decreasing along every
        #: axis (verified here, exactly, for free), a window's minimum
        #: cost is its low corner — no per-window reduction needed
        self._cost_monotone = all(
            bool(np.all(np.diff(self._area4, axis=a) >= 0))
            for a in range(4)
        )
        self._n_b = len(self.grid.n_batches)
        self._b_all = tuple(range(self._n_b))
        self._b_last = (self._n_b - 1,)
        self._slice_shape = (
            len(self.grid.scale_factors), len(self.grid.clocks_ghz),
            len(self.grid.grid_sram_kb), len(self.grid.n_engines), self._n_b,
        )
        self.stats = ExplorationStats(points_total=self.grid.size)
        self._lock = threading.RLock()
        self._slices: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}

    # -- shared plumbing -----------------------------------------------------
    def _axis_index(self, axis_name: str, value, values: Tuple) -> int:
        if value is None:
            if len(values) == 1:
                return 0
            raise AmbiguousAxisError(axis_name, values)
        try:
            return values.index(value)
        except ValueError as exc:
            raise NotOnGridError(f"{axis_name}={value!r} not on the grid") from exc

    def _encoding_index(
        self,
        gridtype: Optional[str],
        log2_hashmap_size: Optional[int],
        per_level_scale: Optional[float],
    ) -> Tuple[int, ...]:
        """Encoding-axis indices of the queried slice.

        Mirrors :meth:`SweepResult._encoding_slice` exactly: ``()`` for
        non-extended grids (validating any named selector against the
        resolved sentinel axis), a ``(t, h, r)`` triple otherwise —
        the explorer keeps one dense partial slice per encoding point.
        """
        selectors = (
            ("gridtype", gridtype, self.grid.gridtypes),
            ("log2_hashmap_size", log2_hashmap_size,
             self.grid.log2_hashmap_sizes),
            ("per_level_scale", per_level_scale, self.grid.per_level_scales),
        )
        if not self.grid.is_extended:
            for name, value, values in selectors:
                if value is not None:
                    self._axis_index(name, value, values or ())
            return ()
        return tuple(
            self._axis_index(name, value, values)
            for name, value, values in selectors
        )

    def _slice_state(
        self, scheme: str, n_pixels: int, enc: Tuple[int, ...] = ()
    ) -> Dict[str, np.ndarray]:
        key = (scheme, n_pixels) + enc
        state = self._slices.get(key)
        if state is None:
            shape = (len(self.grid.apps),) + self._slice_shape
            state = {
                "baseline": np.full(shape, np.nan),
                "accelerated": np.full(shape, np.nan),
                "enc": enc,
            }
            self._slices[key] = state
        return state

    def _run_tasks(self, state, scheme, n_pixels, items) -> None:
        """Evaluate (app_index, selection) pairs; shrink, run, scatter.

        Selections are 5-tuples of sorted index tuples (scale, clock,
        SRAM, engines, batches).  Each one first shrinks to the axis
        indices still holding unevaluated cells — a fully materialized
        selection costs nothing and counts as a cache hit — so no cell
        is ever emulated twice, within a query or across queries.
        """
        pending_tasks, pending_refs = [], []
        for app_idx, sel in items:
            self.stats.blocks_total += 1
            target = state["accelerated"][app_idx]
            arrays = tuple(np.asarray(s, dtype=np.intp) for s in sel)
            missing = np.isnan(target[np.ix_(*arrays)])
            if not missing.any():
                self.stats.blocks_cached += 1
                continue
            shrunk = tuple(
                tuple(
                    arrays[axis][
                        missing.any(
                            axis=tuple(a for a in range(5) if a != axis)
                        )
                    ].tolist()
                )
                for axis in range(5)
            )
            pending_tasks.append(
                selection_task(
                    self.grid, self.grid.apps[app_idx], scheme, n_pixels,
                    shrunk, encoding=state["enc"] or None,
                )
            )
            pending_refs.append((app_idx, shrunk))
        if pending_tasks:
            results = self.runner.evaluate(pending_tasks)
            for (app_idx, sel), (block, cached) in zip(pending_refs, results):
                if cached:
                    self.stats.blocks_cached += 1
                else:
                    self.stats.blocks_evaluated += 1
                self._scatter(state, app_idx, sel, block)

    def _scatter(self, state, app_idx, sel, block) -> None:
        dest = np.ix_(*(np.asarray(s, dtype=np.intp) for s in sel))
        target = state["accelerated"][app_idx]
        newly = np.isnan(target[dest])
        n_new = int(newly.sum())
        if n_new:
            self.stats.points_evaluated += n_new
        # drop the singleton pixel axis of the block arrays, plus the
        # trailing singleton encoding axes of an extended task
        acc = block["accelerated_ms"][:, 0]
        base = block["baseline_ms"][:, 0]
        if acc.ndim > 5:
            acc = acc[..., 0, 0, 0]
            base = base[..., 0, 0, 0]
        target[dest] = acc
        state["baseline"][app_idx][dest] = base

    def _benefit_at(self, state, app_idxs, mean_mode, index):
        """Benefit (speedup / mean speedup) at an index expression.

        The arithmetic mirrors :meth:`SweepResult.pareto_front` exactly
        — elementwise ``baseline / accelerated`` then a mean over the
        app axis — so values are bit-identical to the exhaustive path.
        """
        if mean_mode:
            base = state["baseline"][(slice(None),) + index]
            acc = state["accelerated"][(slice(None),) + index]
            return (base / acc).mean(axis=0)
        i = app_idxs[0]
        return state["baseline"][i][index] / state["accelerated"][i][index]

    def _selection_points(self, state, app_idxs, mean_mode, sel):
        """(flat, cost, value) arrays over one evaluated selection."""
        arrays = tuple(np.asarray(s, dtype=np.intp) for s in sel)
        ix = np.ix_(*arrays)
        values = self._benefit_at(state, app_idxs, mean_mode, ix)
        costs = np.broadcast_to(
            self._area4[np.ix_(*arrays[:4])][..., None], values.shape
        )
        flat = np.ravel_multi_index(ix, self._slice_shape)
        return flat.reshape(-1), costs.reshape(-1), values.reshape(-1)

    def _corner_ubs(self, state, app_idxs, mean_mode, wins) -> np.ndarray:
        """Benefit bounds of windows: upper corners at the last batch.

        Exact for each whole window (batch column included) under the
        monotone-benefit assumption.
        """
        corners = np.array(
            [[hi - 1 for lo, hi in win] for win in wins], dtype=np.intp
        )
        ks, cs, gs, es = corners.T
        if mean_mode:
            base = state["baseline"][:, ks, cs, gs, es, -1]
            acc = state["accelerated"][:, ks, cs, gs, es, -1]
            ubs = (base / acc).mean(axis=0)
        else:
            i = app_idxs[0]
            ubs = (
                state["baseline"][i, ks, cs, gs, es, -1]
                / state["accelerated"][i, ks, cs, gs, es, -1]
            )
        # an unevaluated corner must read "keep", never "prunable"
        return np.where(np.isnan(ubs), np.inf, ubs)

    @staticmethod
    def _window_cells(win) -> int:
        n = 1
        for lo, hi in win:
            n *= hi - lo
        return n

    def _window_min_cost(self, win) -> float:
        if self._cost_monotone:
            return float(self._area4[tuple(lo for lo, hi in win)])
        region = self._area4[tuple(slice(lo, hi) for lo, hi in win)]
        return float(region.min())

    @staticmethod
    def _split(win):
        """Halve a window along its longest axis (it must be splittable)."""
        lengths = [hi - lo for lo, hi in win]
        axis = lengths.index(max(lengths))
        lo, hi = win[axis]
        mid = (lo + hi) // 2
        child_lo = win[:axis] + ((lo, mid),) + win[axis + 1:]
        child_hi = win[:axis] + ((mid, hi),) + win[axis + 1:]
        return child_lo, child_hi

    def _coalesce_cells(self, cells) -> List[Tuple[Tuple[int, ...], ...]]:
        """Batch single (k, c, g, e) cells into few capped union tasks."""
        batches = []
        cur: List[set] = []
        for cell in sorted(set(cells)):
            if not cur:
                cur = [{v} for v in cell]
                continue
            trial = [s | {v} for s, v in zip(cur, cell)]
            n = 1
            for s in trial:
                n *= len(s)
            if n > self.coalesce_cells:
                batches.append(tuple(tuple(sorted(s)) for s in cur))
                cur = [{v} for v in cell]
            else:
                cur = trial
        if cur:
            batches.append(tuple(tuple(sorted(s)) for s in cur))
        return batches

    def _coalesce_cell_array(self, arr) -> List[Tuple[Tuple[int, ...], ...]]:
        """Batch an (n, 4) array of cells into few capped union tasks.

        Same contract as :meth:`_coalesce_cells` but vectorized: the
        cell set's bounding union is taken whole when it fits the cap,
        else the set is split at the median of its widest axis.
        """
        out = []
        stack = [arr]
        while stack:
            a = stack.pop()
            if a.shape[0] == 0:
                continue
            axes = [np.unique(a[:, d]) for d in range(4)]
            n = 1
            for ax in axes:
                n *= ax.size
            if n <= self.coalesce_cells or a.shape[0] == 1:
                out.append(
                    tuple(tuple(int(v) for v in ax) for ax in axes)
                )
                continue
            d = max(range(4), key=lambda d: axes[d].size)
            mid = axes[d][axes[d].size // 2]
            mask = a[:, d] < mid
            stack.append(a[mask])
            stack.append(a[~mask])
        return out

    @staticmethod
    def _coalesce_leaves(wins) -> List[Tuple[Tuple[int, ...], ...]]:
        """Merge leaf windows into as few exact union tasks as possible.

        Selections agreeing on three axes merge by unioning the fourth
        (the cross product of the union with the shared axes is exactly
        the union of the originals — no cells added), iterated to a
        fixpoint: a tiling of windows collapses all the way to a single
        task.  Coalescing trades task count — the fixed per-call
        dispatch overhead dominates small blocks — for nothing.
        """
        sels = sorted({
            tuple(tuple(range(lo, hi)) for lo, hi in win) for win in wins
        })
        while True:
            merged_any = False
            for axis in range(4):
                groups: Dict[Tuple, set] = {}
                for sel in sels:
                    key = sel[:axis] + sel[axis + 1:]
                    groups.setdefault(key, set()).update(sel[axis])
                if len(groups) == len(sels):
                    continue
                merged_any = True
                sels = sorted(
                    key[:axis] + (tuple(sorted(vals)),) + key[axis:]
                    for key, vals in groups.items()
                )
            if not merged_any:
                return sels

    # -- pareto --------------------------------------------------------------
    def pareto(
        self,
        scheme: str,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> List[DesignPoint]:
        """Adaptive :meth:`SweepResult.pareto_front` — identical answer.

        On extended grids the encoding selectors name the slice to
        query, with the same ambiguity rule as the exhaustive path.
        """
        with self._lock:
            return self._pareto(
                scheme, n_pixels, app,
                self._encoding_index(
                    gridtype, log2_hashmap_size, per_level_scale
                ),
            )

    def _full_selection(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(range(n)) for n in self._slice_shape)

    def _fallback_front(self, state, scheme, pixels, app_idxs, mean_mode):
        """Exhaustive fallback: evaluate the whole slice, query densely."""
        full = self._full_selection()
        self._run_tasks(state, scheme, pixels, [(i, full) for i in app_idxs])
        flat, costs, values = self._selection_points(
            state, app_idxs, mean_mode, full
        )
        return [int(flat[i]) for i in pareto_front(costs, values)]

    def _pareto(self, scheme, n_pixels, app, enc=()):
        self.grid.schemes.index(scheme)  # same ValueError as exhaustive
        l = self._axis_index("n_pixels", n_pixels, self.grid.pixel_counts)
        pixels = self.grid.pixel_counts[l]
        mean_mode = app is None
        if mean_mode:
            app_idxs = list(range(len(self.grid.apps)))
        else:
            app_idxs = [self.grid.apps.index(app)]
        state = self._slice_state(scheme, pixels, enc)
        front_flat = self._pareto_front_flat(
            state, scheme, pixels, app_idxs, mean_mode
        )
        if not mean_mode and len(self.grid.apps) > 1:
            # DesignPoint payloads carry every app's speedup at the
            # front cells: fill the other apps there before building
            others = [
                i for i in range(len(self.grid.apps)) if i not in app_idxs
            ]
            fill = [
                tuple((int(v),) for v in np.unravel_index(f, self._slice_shape))
                for f in front_flat
            ]
            self._run_tasks(
                state, scheme, pixels,
                [(i, sel) for sel in fill for i in others],
            )
        return [self._design_point(state, f) for f in front_flat]

    @staticmethod
    def _violates_monotone_benefit(value, sel) -> bool:
        """A decreasing benefit step along any architecture axis of an
        evaluated selection (axis values ascend with index) breaks the
        assumption every pruning bound rests on."""
        shaped = value.reshape(tuple(len(s) for s in sel))
        return any(
            shaped.shape[a] > 1 and bool(np.any(np.diff(shaped, axis=a) < 0))
            for a in range(4)
        )

    def _pareto_front_flat(self, state, scheme, pixels, app_idxs, mean_mode):
        """Flat indices (slice order) of the exhaustive-identical front.

        Bound probes — the lattice, block corners, and surviving leaf
        windows — touch only the last batch cell: the batch column of a
        cell shares its cost and is value-bounded by that cell, so front
        (cost, value) pairs can only come from last-batch cells.  Full
        columns are then materialized just where exact duplicates of a
        front pair can hide, keeping the lowest-flat-index tie-break.
        """
        lattice, blocks = refinement_plan(self.grid, self.segments)
        probe = lattice + (self._b_last,)
        self._run_tasks(state, scheme, pixels, [(i, probe) for i in app_idxs])
        flat0, cost0, value0 = self._selection_points(
            state, app_idxs, mean_mode, probe
        )
        if self._violates_monotone_benefit(value0, probe):
            # the coarse lattice spans every axis end to end — the
            # cheapest possible whole-surface sanity check of the
            # monotone-benefit assumption, before any pruning happens
            self.stats.bound_violations += 1
            return self._fallback_front(state, scheme, pixels, app_idxs,
                                        mean_mode)
        flat_acc, cost_acc, value_acc = [flat0], [cost0], [value0]

        active = [(win, self._window_min_cost(win)) for win in blocks]
        while active:
            self.stats.rounds += 1
            costs = np.concatenate(cost_acc)
            values = np.concatenate(value_acc)
            wins = [win for win, _ in active]
            min_costs = np.array([mc for _, mc in active])
            ubs = self._corner_ubs(state, app_idxs, mean_mode, wins)
            keep = dominance_prune(costs, values, min_costs, ubs)
            survivors = [win for win, k in zip(wins, keep) if k]
            self.stats.blocks_pruned += len(active) - len(survivors)

            leaves, splitting = [], []
            for win in survivors:
                if self._window_cells(win) <= self.leaf_cells or all(
                    hi - lo == 1 for lo, hi in win
                ):
                    leaves.append(win)
                else:
                    splitting.append(win)
            children, new_corners = [], []
            for win in splitting:
                child_lo, child_hi = self._split(win)
                children.append((child_lo, self._window_min_cost(child_lo)))
                children.append((child_hi, self._window_min_cost(child_hi)))
                new_corners.append(tuple(hi - 1 for lo, hi in child_lo))
            corner_cells = []
            if new_corners:
                arr = np.array(new_corners, dtype=np.intp)
                unseen = np.isnan(state["accelerated"][
                    app_idxs[0], arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], -1
                ])
                corner_cells = [
                    cell for cell, miss in zip(new_corners, unseen) if miss
                ]

            selections = [
                sel + (self._b_last,)
                for sel in (self._coalesce_leaves(leaves) if leaves else [])
            ]
            selections += [
                sel + (self._b_last,)
                for sel in (
                    self._coalesce_cells(corner_cells) if corner_cells else []
                )
            ]
            if selections:
                self._run_tasks(
                    state, scheme, pixels,
                    [(i, sel) for sel in selections for i in app_idxs],
                )
                for sel in selections:
                    flat, cost, value = self._selection_points(
                        state, app_idxs, mean_mode, sel
                    )
                    flat_acc.append(flat)
                    cost_acc.append(cost)
                    value_acc.append(value)
                    # runtime check of the monotone-benefit assumption
                    # that justifies every pruning decision; any
                    # decreasing step falls back to evaluating
                    # everything — answers stay exact
                    if self._violates_monotone_benefit(value, sel):
                        self.stats.bound_violations += 1
                        return self._fallback_front(
                            state, scheme, pixels, app_idxs, mean_mode
                        )
            active = children

        # provisional front over the probed (last-batch) points: exact
        # pair-wise; then materialize the full batch columns wherever an
        # exact duplicate of a front pair can live — columns matching a
        # pair's (cost, value) — so the lowest-flat-index representative
        # the exhaustive tie-break picks is always among the evaluated
        flat = np.concatenate(flat_acc)
        costs = np.concatenate(cost_acc)
        values = np.concatenate(value_acc)
        flat, first = np.unique(flat, return_index=True)
        costs = costs[first]
        values = values[first]
        keep = pareto_front(costs, values)
        cand = np.zeros(len(flat), dtype=bool)
        for idx in keep:
            cand |= (costs == costs[idx]) & (values == values[idx])
        cand_cols = sorted({
            tuple(int(v) for v in np.unravel_index(int(f), self._slice_shape)[:4])
            for f in flat[cand]
        })
        fills = [
            sel + (self._b_all,) for sel in self._coalesce_cells(cand_cols)
        ]
        self._run_tasks(
            state, scheme, pixels, [(i, sel) for sel in fills for i in app_idxs]
        )
        col_flats, col_costs, col_values = [], [], []
        for sel in fills:
            f, c, v = self._selection_points(state, app_idxs, mean_mode, sel)
            col_flats.append(f)
            col_costs.append(c)
            col_values.append(v)
            # batch-axis monotonicity check: no cell of a column may
            # beat the column's last-batch cell
            shaped = v.reshape(tuple(len(s) for s in sel))
            if np.any(shaped > shaped[..., -1:]):
                self.stats.bound_violations += 1
                return self._fallback_front(
                    state, scheme, pixels, app_idxs, mean_mode
                )
        flat = np.concatenate([flat] + col_flats)
        costs = np.concatenate([costs] + col_costs)
        values = np.concatenate([values] + col_values)
        flat, first = np.unique(flat, return_index=True)
        keep = pareto_front(costs[first], values[first])
        return [int(flat[i]) for i in keep]

    def _config_axes(self, c: int, g: int, e: int, b: int, enc: Tuple = ()) -> Tuple:
        out = []
        if len(self.grid.clocks_ghz) > 1:
            out.append(("clock_ghz", self.grid.clocks_ghz[c]))
        if len(self.grid.grid_sram_kb) > 1:
            out.append(("grid_sram_kb", self.grid.grid_sram_kb[g]))
        if len(self.grid.n_engines) > 1:
            out.append(("n_engines", self.grid.n_engines[e]))
        if len(self.grid.n_batches) > 1:
            out.append(("n_batches", self.grid.n_batches[b]))
        if enc:
            t, h, r = enc
            if len(self.grid.gridtypes) > 1:
                out.append(("gridtype", self.grid.gridtypes[t]))
            if len(self.grid.log2_hashmap_sizes) > 1:
                out.append(
                    ("log2_hashmap_size", self.grid.log2_hashmap_sizes[h])
                )
            if len(self.grid.per_level_scales) > 1:
                out.append(("per_level_scale", self.grid.per_level_scales[r]))
        return tuple(out)

    def _design_point(self, state, flat) -> DesignPoint:
        """Build the exhaustive-identical payload for an evaluated cell."""
        k, c, g, e, b = (
            int(v) for v in np.unravel_index(flat, self._slice_shape)
        )
        speedups = {
            a: float(
                state["baseline"][i, k, c, g, e, b]
                / state["accelerated"][i, k, c, g, e, b]
            )
            for i, a in enumerate(self.grid.apps)
        }
        return DesignPoint(
            scale_factor=self.grid.scale_factors[k],
            area_overhead_pct=float(self._area4[k, c, g, e]),
            power_overhead_pct=float(self._power4[k, c, g, e]),
            speedups=speedups,
            config_axes=self._config_axes(c, g, e, b, state["enc"]),
        )

    # -- cheapest ------------------------------------------------------------
    def cheapest(
        self,
        app: str,
        fps: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> DesignPoint:
        """Adaptive :meth:`SweepResult.cheapest_point_meeting_fps`.

        Identical answer on feasible queries; an infeasible one raises
        :class:`~repro.errors.InfeasibleQueryError` (by which point the
        whole slice has necessarily been evaluated — nothing can be
        skipped when no feasible cost bounds the search).
        """
        if fps <= 0:
            raise ValueError("fps must be positive")
        budget_ms = 1000.0 / fps
        with self._lock:
            point = self._cheapest(
                app, lambda ms: ms <= budget_ms, n_pixels, scheme,
                self._encoding_index(
                    gridtype, log2_hashmap_size, per_level_scale
                ),
                infeasible_fps=fps,
            )
        return point

    def cheapest_train(
        self,
        app: str,
        steps_per_s: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> Optional[DesignPoint]:
        """Adaptive :meth:`SweepResult.cheapest_point_meeting_train_rate`.

        The search machinery is shared with :meth:`cheapest` — the
        derived training rate is monotone in ``1 / accelerated_ms``, so
        the batch-column bound and the ascending-cost walk both hold
        unchanged.  Mirrors the exhaustive method by returning ``None``
        when no grid point trains fast enough (proven only after the
        whole slice's feasibility has been probed).
        """
        if steps_per_s <= 0:
            raise ValueError("steps_per_s must be positive")
        from repro.apps.params import get_config
        from repro.apps.trainer import TrainerConfig
        from repro.gpu.kernels import samples_per_frame

        with self._lock:
            j = self._axis_index("scheme", scheme, self.grid.schemes)
            l = self._axis_index("n_pixels", n_pixels, self.grid.pixel_counts)
            samples = samples_per_frame(
                get_config(app, self.grid.schemes[j]),
                self.grid.pixel_counts[l],
            )
            batch = TrainerConfig().batch_size

            def feasible_of(acc_ms):
                # same expression (and evaluation order) as
                # train_steps_per_s_batch, for bit-identical boundaries
                rate = (samples / acc_ms) * 1000.0 / (
                    batch * TRAIN_STEP_FLOP_FACTOR
                )
                return rate >= steps_per_s

            return self._cheapest(
                app, feasible_of, n_pixels, scheme,
                self._encoding_index(
                    gridtype, log2_hashmap_size, per_level_scale
                ),
            )

    def _cheapest(self, app, feasible_of, n_pixels, scheme, enc,
                  infeasible_fps=None):
        i = self.grid.apps.index(app)
        j = self._axis_index("scheme", scheme, self.grid.schemes)
        l = self._axis_index("n_pixels", n_pixels, self.grid.pixel_counts)
        scheme_v = self.grid.schemes[j]
        pixels = self.grid.pixel_counts[l]
        state = self._slice_state(scheme_v, pixels, enc)
        acc_app = state["accelerated"][i]
        last_b = self._n_b - 1

        # cost is exact and emulation-free, so the search needs no value
        # bounds at all: walk the cells in ascending-cost order, probing
        # chunks of last-batch cells — a column is feasible iff its
        # last-batch cell is, accelerated time being monotone
        # non-increasing along the batch axis — until every cell at
        # least as cheap as the best feasible one found is probed.
        # Each chunk coalesces into few vectorized tasks, and cells
        # already evaluated by earlier queries re-dispatch nothing.
        area_flat = self._area4.ravel()
        order = np.argsort(area_flat, kind="stable")
        costs_sorted = area_flat[order]
        n_cells = order.size
        chunk = max(64 * self.leaf_cells, 512)
        c_star = np.inf
        pos = 0
        while pos < n_cells and costs_sorted[pos] <= c_star:
            self.stats.rounds += 1
            hi = min(pos + chunk, n_cells)
            if np.isfinite(c_star):
                hi = min(
                    hi,
                    int(np.searchsorted(costs_sorted, c_star, side="right")),
                )
            hi = max(hi, pos + 1)
            sub = order[pos:hi]
            cell_arr = np.stack(
                np.unravel_index(sub, self._area4.shape), axis=1
            )
            selections = [
                sel + (self._b_last,)
                for sel in self._coalesce_cell_array(cell_arr)
            ]
            self._run_tasks(
                state, scheme_v, pixels, [(i, s) for s in selections]
            )
            probed = acc_app[..., last_b].ravel()[sub]
            feasible = feasible_of(probed)  # NaN never feasible
            if feasible.any():
                c_star = min(c_star, float(costs_sorted[pos:hi][feasible].min()))
            pos = hi

        if not np.isfinite(c_star):
            if infeasible_fps is None:
                return None
            best_fps = float(1000.0 / np.nanmin(acc_app))
            raise infeasible_query(
                app, infeasible_fps, pixels, scheme_v, best_fps
            )
        # materialize the full batch columns of the cost-tied feasible
        # columns: the exhaustive argmin resolves ties by first flat
        # index, which may sit at an earlier batch cell
        tied = (self._area4 == c_star) & feasible_of(acc_app[..., last_b])
        tied_cols = sorted(
            tuple(int(v) for v in idx) for idx in zip(*np.nonzero(tied))
        )
        fills = [
            sel + (self._b_all,) for sel in self._coalesce_cells(tied_cols)
        ]
        self._run_tasks(state, scheme_v, pixels, [(i, s) for s in fills])
        for k, c, g, e in tied_cols:
            col = acc_app[k, c, g, e]
            if np.any(col < col[last_b]):
                # batch-axis monotonicity violated: the cheap feasibility
                # probes can no longer be trusted — evaluate everything
                self.stats.bound_violations += 1
                full = self._full_selection()
                self._run_tasks(state, scheme_v, pixels, [(i, full)])
                break
        # replicate the exhaustive argmin verbatim: every cell at least
        # as cheap as c_star is evaluated or provably infeasible,
        # costlier cells cannot win, and np.argmin's first-minimum rule
        # picks the same flat index
        feasible = feasible_of(acc_app)  # NaN compares False
        cost5 = np.broadcast_to(self._area4[..., None], acc_app.shape)
        flat = int(np.argmin(np.where(feasible, cost5, np.inf)))
        others = [x for x in range(len(self.grid.apps)) if x != i]
        if others:
            cell = tuple(
                (int(v),) for v in np.unravel_index(flat, self._slice_shape)
            )
            self._run_tasks(
                state, scheme_v, pixels, [(x, cell) for x in others]
            )
        return self._design_point(state, flat)

    # -- single point --------------------------------------------------------
    def point(
        self,
        app: str,
        scheme: str,
        scale_factor: int,
        n_pixels: int,
        clock_ghz: Optional[float] = None,
        grid_sram_kb: Optional[int] = None,
        n_engines: Optional[int] = None,
        n_batches: Optional[int] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> EmulationResult:
        """Adaptive :meth:`SweepResult.point`: evaluates one grid cell."""
        with self._lock:
            grid = self.grid
            try:
                i = grid.apps.index(app)
                grid.schemes.index(scheme)
                k = grid.scale_factors.index(scale_factor)
                l = grid.pixel_counts.index(n_pixels)
            except ValueError as exc:
                raise NotOnGridError(
                    f"({app}, {scheme}, {scale_factor}, {n_pixels}) "
                    f"not on the grid"
                ) from exc
            c = self._axis_index("clock_ghz", clock_ghz, grid.clocks_ghz)
            g = self._axis_index(
                "grid_sram_kb", grid_sram_kb, grid.grid_sram_kb
            )
            e = self._axis_index("n_engines", n_engines, grid.n_engines)
            b = self._axis_index("n_batches", n_batches, grid.n_batches)
            enc = self._encoding_index(
                gridtype, log2_hashmap_size, per_level_scale
            )
            pixels = grid.pixel_counts[l]
            sel = ((k,), (c,), (g,), (e,), (b,))
            # evaluate through the runner directly: the dense state only
            # keeps baseline/accelerated, a point needs every engine
            task = selection_task(grid, app, scheme, pixels, sel,
                                  encoding=enc or None)
            self.stats.blocks_total += 1
            ((block, cached),) = self.runner.evaluate([task])
            if cached:
                self.stats.blocks_cached += 1
            else:
                self.stats.blocks_evaluated += 1
            state = self._slice_state(scheme, pixels, enc)
            self._scatter(state, i, sel, block)
            idx = tuple(0 for _ in block["accelerated_ms"].shape)
            return EmulationResult(
                app=app,
                scheme=scheme,
                scale_factor=scale_factor,
                n_pixels=pixels,
                baseline_ms=float(block["baseline_ms"][idx]),
                accelerated_ms=float(block["accelerated_ms"][idx]),
                encoding_engine_ms=float(block["encoding_engine_ms"][idx]),
                mlp_engine_ms=float(block["mlp_engine_ms"][idx]),
                dma_ms=float(block["dma_ms"][idx]),
                fused_rest_ms=float(block["fused_rest_ms"][idx]),
                amdahl_bound=float(np.asarray(block["amdahl_bound"])),
            )
