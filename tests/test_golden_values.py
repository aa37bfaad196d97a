"""Golden-value regression net for the analytic models.

Freezes today's scalar-model outputs — the Fig. 12 end-to-end speedups,
the Fig. 13 kernel speedups, the Table III bandwidths and the Fig. 15
area/power bill — as constants at 1e-9 relative tolerance, so the
vectorized sweep engine (or any future refactor for speed) cannot
silently drift the reproduction.  Both the scalar and the batched paths
are checked against the same constants.

If a model change is *intentional*, regenerate the constants with
``PYTHONPATH=src python tools/freeze_golden_values.py`` and say why in
the commit message.
"""

import numpy as np
import pytest

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.area_power import ngpc_area_power, ngpc_area_power_batch
from repro.core.config import NGPCConfig, SCALE_FACTORS
from repro.core.emulator import emulate, emulate_batch
from repro.core.encoding_engine import encoding_kernel_speedup
from repro.core.mlp_engine import mlp_kernel_speedup
from repro.core.ngpc import bandwidth_model, bandwidth_model_batch

RTOL = 1e-9

# ---------------------------------------------------------------------------
# frozen constants (regenerate with tools/freeze_golden_values.py)
# ---------------------------------------------------------------------------

# (app, scale) -> per-frame emulator decomposition, hashgrid @ FHD
GOLDEN_EMULATE = {
    ('nerf', 8): {
        'baseline_ms': 231.0,
        'accelerated_ms': 10.656209859430747,
        'encoding_engine_ms': 1.2626929235196775,
        'mlp_engine_ms': 0.2716291255258016,
        'dma_ms': 8.874963828011376,
        'fused_rest_ms': 3.9507837179822536,
    },
    ('nerf', 16): {
        'baseline_ms': 231.0,
        'accelerated_ms': 6.497387123798791,
        'encoding_engine_ms': 0.6313535414058565,
        'mlp_engine_ms': 0.1358216424089185,
        'dma_ms': 5.483287957610125,
        'fused_rest_ms': 3.9507837179822536,
    },
    ('nerf', 32): {
        'baseline_ms': 231.0,
        'accelerated_ms': 4.186495231438562,
        'encoding_engine_ms': 0.31568385034894597,
        'mlp_engine_ms': 0.06791790085047694,
        'dma_ms': 3.387782464101518,
        'fused_rest_ms': 3.9507837179822536,
    },
    ('nerf', 64): {
        'baseline_ms': 231.0,
        'accelerated_ms': 4.093590907662987,
        'encoding_engine_ms': 0.1578490048204907,
        'mlp_engine_ms': 0.03396603007125617,
        'dma_ms': 2.0931,
        'fused_rest_ms': 3.9507837179822536,
    },
    ('nsdf', 8): {
        'baseline_ms': 27.87,
        'accelerated_ms': 1.782417377213176,
        'encoding_engine_ms': 0.47351869587740125,
        'mlp_engine_ms': 0.05660061059073669,
        'dma_ms': 1.2198782157177739,
        'fused_rest_ms': 0.518717680436226,
    },
    ('nsdf', 16): {
        'baseline_ms': 27.87,
        'accelerated_ms': 1.0511805173954367,
        'encoding_engine_ms': 0.23676642758471833,
        'mlp_engine_ms': 0.028307384941386043,
        'dma_ms': 0.7536868498420682,
        'fused_rest_ms': 0.518717680436226,
    },
    ('nsdf', 32): {
        'baseline_ms': 27.87,
        'accelerated_ms': 0.6306271314284683,
        'encoding_engine_ms': 0.11839029343837686,
        'mlp_engine_ms': 0.014160772116710721,
        'dma_ms': 0.46565621084611664,
        'fused_rest_ms': 0.518717680436226,
    },
    ('nsdf', 64): {
        'baseline_ms': 27.87,
        'accelerated_ms': 0.5408420361905747,
        'encoding_engine_ms': 0.059202226365206126,
        'mlp_engine_ms': 0.007087465704373059,
        'dma_ms': 0.2877,
        'fused_rest_ms': 0.518717680436226,
    },
    ('gia', 8): {
        'baseline_ms': 2.12,
        'accelerated_ms': 0.31125040664886755,
        'encoding_engine_ms': 0.07893158205626304,
        'mlp_engine_ms': 0.009445234508485613,
        'dma_ms': 0.2179413982895154,
        'fused_rest_ms': 0.07891506871365621,
    },
    ('gia', 16): {
        'baseline_ms': 2.12,
        'accelerated_ms': 0.1837871892678047,
        'encoding_engine_ms': 0.039472870674149216,
        'mlp_engine_ms': 0.004729696900260506,
        'dma_ms': 0.13465242989879148,
        'fused_rest_ms': 0.07891506871365621,
    },
    ('gia', 32): {
        'baseline_ms': 2.12,
        'accelerated_ms': 0.11024099336355665,
        'encoding_engine_ms': 0.01974351498309231,
        'mlp_engine_ms': 0.002371928096147952,
        'dma_ms': 0.08319335848971288,
        'fused_rest_ms': 0.07891506871365621,
    },
    ('gia', 64): {
        'baseline_ms': 2.12,
        'accelerated_ms': 0.08281956126563468,
        'encoding_engine_ms': 0.009878837137563854,
        'mlp_engine_ms': 0.0011930436940916752,
        'dma_ms': 0.0514,
        'fused_rest_ms': 0.07891506871365621,
    },
    ('nvr', 8): {
        'baseline_ms': 6.32,
        'accelerated_ms': 1.080884705722567,
        'encoding_engine_ms': 0.31568385034894597,
        'mlp_engine_ms': 0.03773846015783626,
        'dma_ms': 0.7123376442147585,
        'fused_rest_ms': 0.24199601601641885,
    },
    ('nvr', 16): {
        'baseline_ms': 6.32,
        'accelerated_ms': 0.6319591749432809,
        'encoding_engine_ms': 0.1578490048204907,
        'mlp_engine_ms': 0.018876309724935827,
        'dma_ms': 0.4401091093968282,
        'fused_rest_ms': 0.24199601601641885,
    },
    ('nvr', 32): {
        'baseline_ms': 6.32,
        'accelerated_ms': 0.3754176030963539,
        'encoding_engine_ms': 0.07893158205626304,
        'mlp_engine_ms': 0.009445234508485613,
        'dma_ms': 0.2719160355305791,
        'fused_rest_ms': 0.24199601601641885,
    },
    ('nvr', 64): {
        'baseline_ms': 6.32,
        'accelerated_ms': 0.2552586764898195,
        'encoding_engine_ms': 0.039472870674149216,
        'mlp_engine_ms': 0.004729696900260506,
        'dma_ms': 0.168,
        'fused_rest_ms': 0.24199601601641885,
    },
}

# scheme -> scale -> four-app average end-to-end speedup (Fig. 12)
GOLDEN_FIG12_AVERAGE = {
    'multi_res_hashgrid': {
        8: 12.492966894750651,
        16: 20.900381978079913,
        32: 33.85917578604029,
        64: 39.57936165708292,
    },
    'multi_res_densegrid': {
        8: 8.987633623971657,
        16: 14.581022960283942,
        32: 22.433716688374933,
        64: 24.34588293156978,
    },
    'low_res_densegrid': {
        8: 9.377525257256385,
        16: 15.043155533891234,
        32: 22.51666696815104,
        64: 24.006252714526198,
    },
}

# scheme -> four-app mean kernel speedups at scale 64 (Fig. 13)
GOLDEN_FIG13_AT_64 = {
    'multi_res_hashgrid': {'encoding': 245.93991063447604, 'mlp': 1229.3261820884532},
    'multi_res_densegrid': {'encoding': 378.1304820782806, 'mlp': 1065.414024232888},
    'low_res_densegrid': {'encoding': 2286.2113650872534, 'mlp': 1442.3095503757131},
}

# app -> NGPC IO bandwidth at 4K 60 FPS (Table III)
GOLDEN_BANDWIDTH = {
    'nerf': {
        'input_gbps': 69.585371136,
        'output_gbps': 46.390247424,
        'total_gbps': 231.95123712000003,
        'access_time_ms': 4.129303516342662,
    },
    'nsdf': {
        'input_gbps': 34.792685568,
        'output_gbps': 34.792685568,
        'total_gbps': 69.585371136,
        'access_time_ms': 1.2387910549027983,
    },
    'gia': {
        'input_gbps': 34.792685568,
        'output_gbps': 34.792685568,
        'total_gbps': 69.585371136,
        'access_time_ms': 1.2387910549027983,
    },
    'nvr': {
        'input_gbps': 34.792685568,
        'output_gbps': 34.792685568,
        'total_gbps': 69.585371136,
        'access_time_ms': 1.2387910549027983,
    },
}

# scale -> NGPC area/power at 7 nm (Fig. 15)
GOLDEN_AREA_POWER = {
    8: {'area_mm2_7nm': 28.539264767999995, 'power_w_7nm': 9.799813901158402},
    16: {'area_mm2_7nm': 57.07852953599999, 'power_w_7nm': 19.599627802316803},
    32: {'area_mm2_7nm': 114.15705907199998, 'power_w_7nm': 39.199255604633606},
    64: {'area_mm2_7nm': 228.31411814399996, 'power_w_7nm': 78.39851120926721},
}

# (clock GHz, grid SRAM KB, engines, batches) -> accelerated ms;
# NeRF hashgrid @ FHD, NGPC-8 (architecture-axis golden net)
GOLDEN_ARCH_GRID = {
    (1.2, 512, 16, 8): 14.211342318743213,
    (1.2, 512, 16, 16): 13.964418336369324,
    (1.2, 512, 32, 8): 11.981925125653783,
    (1.2, 512, 32, 16): 11.735001143279893,
    (1.2, 1024, 16, 8): 11.536041687035896,
    (1.2, 1024, 16, 16): 11.289117704662006,
    (1.2, 1024, 32, 8): 10.644274809800125,
    (1.2, 1024, 32, 16): 10.397350827426235,
    (1.695, 512, 16, 8): 12.7971519881461,
    (1.695, 512, 16, 16): 12.55022800577221,
    (1.695, 512, 32, 8): 11.218803532861546,
    (1.695, 512, 32, 16): 10.971879550487657,
    (1.695, 1024, 16, 8): 10.903133841804637,
    (1.695, 1024, 16, 16): 10.656209859430747,
    (1.695, 1024, 32, 8): 10.271794459690815,
    (1.695, 1024, 32, 16): 10.024870477316925,
}


# ---------------------------------------------------------------------------
# scalar path vs goldens
# ---------------------------------------------------------------------------


class TestScalarGoldens:
    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("scale", SCALE_FACTORS)
    def test_emulate_pinned(self, app, scale):
        result = emulate(app, "multi_res_hashgrid", scale)
        for name, golden in GOLDEN_EMULATE[(app, scale)].items():
            assert getattr(result, name) == pytest.approx(golden, rel=RTOL), name

    @pytest.mark.parametrize("scheme", ENCODING_SCHEMES)
    def test_fig12_averages_pinned(self, scheme):
        for scale, golden in GOLDEN_FIG12_AVERAGE[scheme].items():
            speedups = [emulate(a, scheme, scale).speedup for a in APP_NAMES]
            assert sum(speedups) / len(speedups) == pytest.approx(golden, rel=RTOL)

    @pytest.mark.parametrize("scheme", ENCODING_SCHEMES)
    def test_fig13_kernel_speedups_pinned(self, scheme):
        enc = sum(encoding_kernel_speedup(a, scheme, 64) for a in APP_NAMES) / 4
        mlp = sum(mlp_kernel_speedup(a, scheme, 64) for a in APP_NAMES) / 4
        assert enc == pytest.approx(GOLDEN_FIG13_AT_64[scheme]["encoding"], rel=RTOL)
        assert mlp == pytest.approx(GOLDEN_FIG13_AT_64[scheme]["mlp"], rel=RTOL)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_bandwidth_pinned(self, app):
        report = bandwidth_model(app)
        for name, golden in GOLDEN_BANDWIDTH[app].items():
            assert getattr(report, name) == pytest.approx(golden, rel=RTOL), name

    @pytest.mark.parametrize("scale", SCALE_FACTORS)
    def test_area_power_pinned(self, scale):
        report = ngpc_area_power(NGPCConfig(scale_factor=scale))
        golden = GOLDEN_AREA_POWER[scale]
        assert report.area_mm2_7nm == pytest.approx(golden["area_mm2_7nm"], rel=RTOL)
        assert report.power_w_7nm == pytest.approx(golden["power_w_7nm"], rel=RTOL)


# ---------------------------------------------------------------------------
# batched path vs the same goldens
# ---------------------------------------------------------------------------


class TestBatchedGoldens:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_emulate_batch_pinned(self, app):
        block = emulate_batch(app, "multi_res_hashgrid", SCALE_FACTORS)
        for k, scale in enumerate(SCALE_FACTORS):
            for name, golden in GOLDEN_EMULATE[(app, scale)].items():
                assert float(block[name][k, 0]) == pytest.approx(
                    golden, rel=RTOL
                ), (name, scale)

    @pytest.mark.parametrize("scheme", ENCODING_SCHEMES)
    def test_fig12_averages_batch_pinned(self, scheme):
        speedups = np.stack(
            [
                emulate_batch(app, scheme, SCALE_FACTORS)["speedup"][:, 0]
                for app in APP_NAMES
            ]
        )
        averages = speedups.mean(axis=0)
        for k, scale in enumerate(SCALE_FACTORS):
            assert averages[k] == pytest.approx(
                GOLDEN_FIG12_AVERAGE[scheme][scale], rel=RTOL
            )

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_bandwidth_batch_pinned(self, app):
        block = bandwidth_model_batch(app, 3840 * 2160, 60.0)
        for name, golden in GOLDEN_BANDWIDTH[app].items():
            key = "access_time_ms" if name == "access_time_ms" else name
            assert float(block[key]) == pytest.approx(golden, rel=RTOL), name

    def test_area_power_batch_pinned(self):
        block = ngpc_area_power_batch(np.asarray(SCALE_FACTORS))
        for k, scale in enumerate(SCALE_FACTORS):
            golden = GOLDEN_AREA_POWER[scale]
            assert float(block["area_mm2_7nm"][k]) == pytest.approx(
                golden["area_mm2_7nm"], rel=RTOL
            )
            assert float(block["power_w_7nm"][k]) == pytest.approx(
                golden["power_w_7nm"], rel=RTOL
            )


# ---------------------------------------------------------------------------
# architecture-axis grid vs the same goldens (scalar, batched and sweep)
# ---------------------------------------------------------------------------

_ARCH_CLOCKS = (1.2, 1.695)
_ARCH_SRAMS = (512, 1024)
_ARCH_ENGINES = (16, 32)
_ARCH_BATCHES = (8, 16)


class TestArchitectureGridGoldens:
    @pytest.mark.parametrize("point", sorted(GOLDEN_ARCH_GRID))
    def test_scalar_pinned(self, point):
        from repro.core.config import NFPConfig
        from repro.core.emulator import Emulator

        clock, sram, engines, batches = point
        config = NGPCConfig(
            scale_factor=8,
            nfp=NFPConfig(
                clock_ghz=clock,
                grid_sram_kb_per_engine=sram,
                n_encoding_engines=engines,
            ),
            n_pipeline_batches=batches,
        )
        result = Emulator(config).run("nerf", "multi_res_hashgrid")
        assert result.accelerated_ms == pytest.approx(
            GOLDEN_ARCH_GRID[point], rel=RTOL
        )

    def test_batched_pinned(self):
        block = emulate_batch(
            "nerf", "multi_res_hashgrid", (8,),
            clocks_ghz=_ARCH_CLOCKS, grid_sram_kb=_ARCH_SRAMS,
            n_engines=_ARCH_ENGINES, n_batches=_ARCH_BATCHES,
        )
        for c, clock in enumerate(_ARCH_CLOCKS):
            for g, sram in enumerate(_ARCH_SRAMS):
                for e, engines in enumerate(_ARCH_ENGINES):
                    for b, batches in enumerate(_ARCH_BATCHES):
                        golden = GOLDEN_ARCH_GRID[(clock, sram, engines, batches)]
                        assert float(
                            block["accelerated_ms"][0, 0, c, g, e, b]
                        ) == pytest.approx(golden, rel=RTOL), (clock, sram, engines, batches)

    @pytest.mark.parametrize(
        "engine", ("vectorized", "scalar", "windowed", "store")
    )
    def test_sweep_grid_pinned(self, engine, tmp_path):
        """Every way a grid is evaluated: both engines, a multi-block
        windowed plan through the inline runner (block assembly), and
        the store runner's plan (cold blocks persisted, then assembled)."""
        from repro.core.dse import (
            LocalBlockRunner,
            SweepGrid,
            run_plan,
            shard_plan,
            sweep_grid,
        )
        from repro.store import ResultStore, sweep_with_store

        grid = SweepGrid(
            apps=("nerf",),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8,),
            clocks_ghz=_ARCH_CLOCKS,
            grid_sram_kb=_ARCH_SRAMS,
            n_engines=_ARCH_ENGINES,
            n_batches=_ARCH_BATCHES,
        ).resolve()
        if engine == "windowed":
            plan = shard_plan(grid, 8)
            assert len(plan) >= 4
            result = run_plan(grid, plan, LocalBlockRunner(), engine)
        elif engine == "store":
            result = sweep_with_store(
                ResultStore(str(tmp_path)), grid, use_cache=False
            )
        else:
            result = sweep_grid(grid, engine=engine, use_cache=False)
        for (clock, sram, engines, batches), golden in GOLDEN_ARCH_GRID.items():
            point = result.point(
                "nerf", "multi_res_hashgrid", 8, 1920 * 1080,
                clock_ghz=clock, grid_sram_kb=sram,
                n_engines=engines, n_batches=batches,
            )
            assert point.accelerated_ms == pytest.approx(golden, rel=RTOL)
