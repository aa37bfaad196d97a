"""Tests for the occupancy model, interconnect model, evaluation harness
and sensitivity analysis."""

import numpy as np
import pytest

from repro.analysis.sensitivity import (
    overhead_sensitivity,
    perturbed_overheads,
    perturbed_rest_fractions,
    rest_fraction_sensitivity,
    sensitivity_sweep,
)
from repro.apps import GIAApp, NSDFApp, NVRApp, NeRFApp
from repro.apps.evaluation import evaluate
from repro.calibration import current
from repro.core.interconnect import interconnect_report, max_fps_within_port
from repro.gpu.occupancy_model import occupancy_report, table2_occupancy


class TestOccupancyModel:
    def test_table2_nerf_encoding_geometry(self):
        report = table2_occupancy("nerf", "multi_res_hashgrid", "encoding")
        assert report.threads_per_block == 512
        assert report.warps_per_block == 16
        assert report.total_blocks == 3853 * 16
        assert report.total_threads == 3853 * 16 * 512

    def test_512_thread_blocks_achieve_full_occupancy(self):
        """3 blocks x 512 threads = 1536 = the GA102 SM thread limit."""
        report = occupancy_report((100, 1, 1), (512, 1, 1))
        assert report.blocks_per_sm == 3
        assert report.achieved_occupancy == pytest.approx(1.0)

    def test_waves_scale_with_grid(self):
        small = occupancy_report((82 * 3, 1, 1), (512, 1, 1))
        big = occupancy_report((82 * 6, 1, 1), (512, 1, 1))
        assert small.waves == pytest.approx(1.0)
        assert big.waves == pytest.approx(2.0)

    def test_all_table2_kernels_fully_occupy(self):
        """Every Table II kernel uses 512-thread blocks -> 100 % occupancy."""
        from repro.calibration import paper

        for key in paper.TABLE2:
            report = table2_occupancy(*key)
            assert report.achieved_occupancy == pytest.approx(1.0)
            assert report.waves > 1.0  # many waves: the GPU stays busy

    def test_validation(self):
        with pytest.raises(ValueError):
            occupancy_report((1, 1, 1), (100, 1, 1))  # not warp aligned
        with pytest.raises(ValueError):
            occupancy_report((0, 1, 1), (512, 1, 1))
        with pytest.raises(ValueError):
            occupancy_report((1, 1, 1), (2048, 1, 1))  # too big for an SM
        with pytest.raises(KeyError):
            table2_occupancy("nerf", "fourier", "encoding")


class TestInterconnect:
    def test_no_app_saturates_the_port(self):
        """Table III's point: NGPC IO is a fraction of GPU bandwidth."""
        for app in ("nerf", "nsdf", "gia", "nvr"):
            report = interconnect_report(app)
            assert not report.saturated
            assert report.queueing_delay_factor < 3.0

    def test_nerf_heaviest(self):
        nerf = interconnect_report("nerf").utilization
        for app in ("nsdf", "gia", "nvr"):
            assert interconnect_report(app).utilization < nerf

    def test_queueing_grows_with_load(self):
        light = interconnect_report("gia")
        heavy = interconnect_report("nerf")
        assert heavy.queueing_delay_factor > light.queueing_delay_factor

    def test_max_fps_above_operating_points(self):
        """IO never limits the Fig. 14 targets (<= 120 FPS)."""
        for app in ("nerf", "nsdf", "gia", "nvr"):
            assert max_fps_within_port(app, 3840 * 2160) > 120.0


class TestEvaluationHarness:
    def test_gia_metrics(self):
        app = GIAApp(image_size=16, seed=0)
        app.train(steps=25, batch_size=512)
        metrics = evaluate(app)
        assert metrics["psnr_db"] > 15.0
        assert 0.0 < metrics["ssim"] <= 1.0

    def test_nsdf_metrics(self):
        app = NSDFApp(seed=0)
        app.train(steps=40, batch_size=1024)
        metrics = evaluate(app)
        assert metrics["volume_mae"] < 0.1
        assert 0.5 < metrics["silhouette_agreement"] <= 1.0
        assert metrics["eikonal_deviation"] >= 0.0

    def test_nerf_metrics(self):
        app = NeRFApp(seed=0)
        app.train(steps=50, batch_size=1024)
        metrics = evaluate(app)
        assert metrics["novel_view_psnr_db"] > 10.0
        assert -1.0 <= metrics["novel_view_ssim"] <= 1.0

    def test_nvr_metrics(self):
        app = NVRApp(seed=0)
        app.train(steps=50, batch_size=1024)
        metrics = evaluate(app)
        assert metrics["density_correlation"] > 0.3
        assert metrics["albedo_mse"] < 0.2

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            evaluate(object())


class TestSensitivity:
    def test_perturbation_context_restores(self):
        original = dict(current().dma_overheads)
        with perturbed_overheads(2.0):
            assert current().dma_overheads["nerf"] == pytest.approx(
                2 * original["nerf"]
            )
        assert current().dma_overheads == original

    def test_rest_fraction_perturbation_keeps_sum_one(self):
        with perturbed_rest_fractions(1.2):
            for fractions in current().kernel_fractions.values():
                assert sum(fractions) == pytest.approx(1.0)

    def test_larger_overheads_reduce_speedup(self):
        result = overhead_sensitivity(1.5)
        assert all(
            result.perturbed[s] < result.nominal[s] for s in result.nominal
        )

    def test_larger_rest_fraction_reduces_speedup(self):
        result = rest_fraction_sensitivity(1.3)
        assert all(
            result.perturbed[s] < result.nominal[s] for s in result.nominal
        )

    def test_20pct_perturbations_move_results_moderately(self):
        """The headline averages are robust: +/-20 % inputs < 40 % output."""
        for result in sensitivity_sweep(factors=(0.8, 1.2)):
            assert result.max_relative_shift < 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            with perturbed_overheads(0.0):
                pass
        with pytest.raises(ValueError):
            with perturbed_rest_fractions(-1.0):
                pass
