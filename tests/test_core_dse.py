"""Design-space properties of the NGPC (Figs. 12 + 15), read off the
``repro.api`` Session and the :func:`cheapest_meeting_fps` query."""

import pytest

from repro.api import Session, SweepGrid
from repro.calibration import paper
from repro.core.dse import (
    DesignPoint,
    cheapest_meeting_fps,
    efficiency_sweet_spot,
    pareto_front,
)


@pytest.fixture(scope="module")
def sweep():
    return Session().sweep(SweepGrid(schemes=("multi_res_hashgrid",)))


@pytest.fixture(scope="module")
def points(sweep):
    """One design point per scale factor: cost (Fig. 15) x benefit (Fig. 12)."""
    out = []
    for k, scale in enumerate(sweep.grid.scale_factors):
        out.append(DesignPoint(
            scale_factor=scale,
            area_overhead_pct=float(sweep.result.area_overhead_pct[k, 0, 0, 0]),
            power_overhead_pct=float(sweep.result.power_overhead_pct[k, 0, 0, 0]),
            speedups={
                app: sweep.point(app=app, scale_factor=scale).speedup
                for app in sweep.grid.apps
            },
        ))
    return out


class TestDesignSpace:
    def test_four_points(self, points):
        assert [p.scale_factor for p in points] == [8, 16, 32, 64]

    def test_costs_and_benefits_grow(self, points):
        areas = [p.area_overhead_pct for p in points]
        speeds = [p.average_speedup for p in points]
        assert areas == sorted(areas)
        assert speeds == sorted(speeds)

    def test_per_app_speedups_present(self, points):
        for p in points:
            assert set(p.speedups) == {"nerf", "nsdf", "gia", "nvr"}

    def test_efficiency_declines_with_scale(self, points):
        """Speedup-per-area falls as the rest kernels start dominating."""
        ratios = [p.speedup_per_area_pct for p in points]
        assert ratios[0] == max(ratios)

    def test_sweet_spot_is_smallest_scale(self, points):
        assert efficiency_sweet_spot(points).scale_factor == 8

    def test_sweet_spot_validation(self):
        with pytest.raises(ValueError):
            efficiency_sweet_spot([])


class TestParetoFrontier:
    def test_all_scales_on_frontier(self, sweep, points):
        """Bigger always costs more AND helps more here, so none dominate."""
        front = sweep.pareto()
        assert [p.scale_factor for p in front] == [8, 16, 32, 64]
        assert [p.to_dict() for p in front] == [p.to_dict() for p in points]

    def test_dominated_point_removed(self):
        # (area, speedup): the second point costs more and helps less
        assert pareto_front([5.0, 10.0], [10.0, 8.0]) == [0]


class TestSmallestScale:
    def test_nerf_4k30_needs_more_than_minimum(self):
        """NGPC-8 cannot hit NeRF 4K@30; a mid-size cluster can."""
        hit = cheapest_meeting_fps("nerf", 30, paper.RESOLUTIONS["4k"])
        assert hit.scale_factor in (16, 32, 64)
        assert cheapest_meeting_fps(
            "nerf", 30, paper.RESOLUTIONS["4k"], scales=(8,)
        ) is None

    def test_gia_fhd_needs_smallest(self):
        hit = cheapest_meeting_fps("gia", 60, paper.RESOLUTIONS["fhd"])
        assert hit.scale_factor == 8

    def test_unreachable_target_returns_none(self):
        assert cheapest_meeting_fps("nerf", 240, paper.RESOLUTIONS["8k"]) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            cheapest_meeting_fps("nerf", 0, 10**6)
