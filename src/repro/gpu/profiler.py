"""Nsight-style profiler views of the GPU baseline.

Reproduces:

- Figure 5 — kernel-level breakdown (encoding / MLP / rest) per app and
  encoding scheme, plus the four-app averages;
- Figure 8 — op-level breakdown of the input-encoding kernels (top five
  operations by cycles);
- Table II — per-kernel launch geometry, utilization and call counts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.calibration import current, paper

# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------


def kernel_breakdown(app: str, scheme: str) -> Dict[str, float]:
    """Percent of application cycles per kernel class (Fig. 5 bars)."""
    fractions = current().kernel_fractions
    if (app, scheme) not in fractions:
        raise KeyError(f"no breakdown for ({app}, {scheme})")
    enc, mlp, rest = fractions[(app, scheme)]
    return {"encoding": enc * 100, "mlp": mlp * 100, "rest": rest * 100}


def kernel_breakdown_averages(scheme: str) -> Dict[str, float]:
    """Four-app averages of the Fig. 5 breakdown for ``scheme``."""
    if scheme not in ENCODING_SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}")
    rows = [kernel_breakdown(app, scheme) for app in APP_NAMES]
    return {
        key: sum(r[key] for r in rows) / len(rows)
        for key in ("encoding", "mlp", "rest")
    }


# ---------------------------------------------------------------------------
# Figure 8: op-level breakdown of the encoding kernel.
#
# Per-corner-lookup cost model (GPU cycles), from the Section IV analysis:
# grid lookups stall on the long scoreboard (global-memory latency), the
# integer modulo maps to the slow generic path, the hash only exists for
# the hashgrid scheme.
# ---------------------------------------------------------------------------

_OP_CYCLES: Dict[str, Dict[str, float]] = {
    "multi_res_hashgrid": {
        "grid_lookups": 60.0,
        "modulo": 15.0,
        "hash_function": 12.0,
        "interpolation": 8.0,
        "pos_fract_scale": 6.0,
    },
    "multi_res_densegrid": {
        "grid_lookups": 55.0,
        "modulo": 13.0,
        "hash_function": 0.0,
        "interpolation": 8.0,
        "pos_fract_scale": 6.0,
    },
    "low_res_densegrid": {
        "grid_lookups": 45.0,
        "modulo": 14.0,
        "hash_function": 0.0,
        "interpolation": 10.0,
        "pos_fract_scale": 6.0,
    },
}

OP_NAMES: Tuple[str, ...] = (
    "grid_lookups",
    "modulo",
    "hash_function",
    "interpolation",
    "pos_fract_scale",
)


def op_breakdown(scheme: str) -> Dict[str, float]:
    """Percent of encoding-kernel cycles per operation (Fig. 8).

    The hash function consumes zero cycles for the dense schemes (1:1
    mapping), matching the paper's observation.
    """
    if scheme not in _OP_CYCLES:
        raise KeyError(f"unknown scheme {scheme!r}")
    cycles = _OP_CYCLES[scheme]
    total = sum(cycles.values())
    return {op: 100.0 * c / total for op, c in cycles.items()}


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


def utilization_rows() -> List[dict]:
    """Table II as a list of row dicts, in the paper's order."""
    rows = []
    for (app, scheme, kernel), values in paper.TABLE2.items():
        grid, block, comp, mem, calls, comp_avg, mem_avg = values
        rows.append(
            {
                "app": app,
                "scheme": scheme,
                "kernel": kernel,
                "grid_size": grid,
                "block_size": block,
                "compute_util_pct": comp,
                "memory_util_pct": mem,
                "kernel_calls": calls,
                "compute_util_app_avg_pct": comp_avg,
                "memory_util_app_avg_pct": mem_avg,
            }
        )
    return rows


def memory_bound_fraction(scheme: str) -> float:
    """Fraction of Table II kernels whose memory util exceeds compute util.

    Section IV: "on average ... the memory utilization of the GPU is higher
    than compute utilization".
    """
    rows = [
        values
        for (app, s, kernel), values in paper.TABLE2.items()
        if s == scheme
    ]
    memory_bound = sum(1 for v in rows if v[3] > v[2])
    return memory_bound / len(rows)
