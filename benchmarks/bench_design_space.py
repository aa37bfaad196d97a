"""Design-space exploration: the architect's read of Figs. 12 + 15."""

from repro.analysis import format_table
from repro.api import Session, SweepGrid
from repro.calibration import paper
from repro.core.dse import cheapest_meeting_fps, efficiency_sweet_spot


def bench_design_space_pareto(benchmark):
    grid = SweepGrid(schemes=("multi_res_hashgrid",))
    points = benchmark(lambda: Session().sweep(grid).pareto())
    rows = [
        [f"NGPC-{p.scale_factor}", f"{p.area_overhead_pct:.2f}%",
         f"{p.average_speedup:.1f}x", f"{p.speedup_per_area_pct:.2f}"]
        for p in points
    ]
    print("\n" + format_table(
        ["config", "area", "avg speedup", "speedup / area %"],
        rows,
        title="NGPC design space (hashgrid)",
    ))
    # every scale trades more area for more speed: all Pareto-optimal
    assert [p.scale_factor for p in points] == [8, 16, 32, 64]
    # the marginal return shrinks: NGPC-8 is the efficiency sweet spot
    assert efficiency_sweet_spot(points).scale_factor == 8


def bench_smallest_scale_targets(benchmark):
    """What does each Fig. 14 capability actually cost?"""

    def smallest(app, res, fps):
        hit = cheapest_meeting_fps(app, fps, paper.RESOLUTIONS[res])
        return hit.scale_factor if hit else None

    def sweep():
        return {
            target: smallest(*target)
            for target in (
                ("nerf", "4k", 30), ("gia", "8k", 120),
                ("nvr", "8k", 120), ("nerf", "8k", 120),
            )
        }

    results = benchmark(sweep)
    print()
    for (app, res, fps), scale in results.items():
        label = f"NGPC-{scale}" if scale else "not achievable"
        print(f"  {app} {res}@{fps}: {label}")
    assert results[("nerf", "4k", 30)] is not None
    assert results[("gia", "8k", 120)] == 8  # GIA is cheap
    assert results[("nerf", "8k", 120)] is None  # matches Fig. 14
