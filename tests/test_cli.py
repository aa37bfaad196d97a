"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestEmulateCommand:
    def test_basic(self, capsys):
        assert main(["emulate", "--app", "gia", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Amdahl" in out

    def test_rejects_bad_app(self):
        with pytest.raises(SystemExit):
            main(["emulate", "--app", "dlss"])

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["emulate", "--scale", "7"])


class TestSweepCommand:
    def test_prints_all_apps_and_paper_row(self, capsys):
        assert main(["sweep", "--scheme", "multi_res_densegrid"]) == 0
        out = capsys.readouterr().out
        for app in ("nerf", "nsdf", "gia", "nvr", "average", "paper avg"):
            assert app in out


class TestDseCommand:
    def test_grid_with_pareto_column(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        for scale in (8, 16, 32, 64):
            assert f"NGPC-{scale}" in out

    def test_fps_constraint_query(self, capsys):
        assert main(["dse", "--fps", "60", "--pixels", "8294400"]) == 0
        out = capsys.readouterr().out
        assert "cheapest configuration meeting 60 FPS" in out
        assert "NGPC-64" in out  # NeRF needs the largest cluster at 4K

    def test_scalar_engine(self, capsys):
        assert main(["dse", "--engine", "scalar"]) == 0
        assert "engine=scalar" in capsys.readouterr().out

    def test_rejects_bad_engine(self):
        # the removed pool engines are as unknown as a made-up one
        for engine in ("gpu", "process", "auto"):
            with pytest.raises(SystemExit):
                main(["dse", "--engine", engine])
            with pytest.raises(SystemExit):
                main(["serve", "--engine", engine])
        # --workers used to size the pool; it now only spawns cluster workers
        with pytest.raises(SystemExit, match="--engine cluster only"):
            main(["serve", "--workers", "2"])

    @pytest.mark.parametrize("fps", ("0", "-5"))
    def test_rejects_non_positive_fps(self, fps):
        with pytest.raises(SystemExit):
            main(["dse", "--fps", fps])


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "fusion"]) == 0
        out = capsys.readouterr().out
        assert "fusion" in out
        assert "paper=9.94" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiments", "fig99"])


class TestTrainCommand:
    def test_short_training_run(self, capsys):
        assert main(
            ["train", "--app", "gia", "--steps", "5", "--batch-size", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "loss" in out


class TestReportCommands:
    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "NGPC-64" in out

    def test_bandwidth(self, capsys):
        assert main(["bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "access ms" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
