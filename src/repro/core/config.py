"""Architecture configuration of the NFP and the NGPC cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.math import is_power_of_two

SCALE_FACTORS: Tuple[int, ...] = (8, 16, 32, 64)


# the range checks of the swept parameters, shared with the sweep-axis
# registry (repro.core.axes), which validates axis values with them
# without building a config per value


def check_scale_factor(scale: int) -> None:
    if scale < 1:
        raise ValueError("scale_factor must be >= 1")
    # NFPs are paired into power-of-two trees on the L2 interconnect;
    # every paper configuration (NGPC-8 ... NGPC-64) is a power of two
    if not is_power_of_two(scale):
        raise ValueError(
            f"scale_factor must be a power of two (got {scale}); "
            f"the paper evaluates {SCALE_FACTORS}"
        )


def check_clock(clock_ghz: float) -> None:
    if clock_ghz <= 0:
        raise ValueError("clock must be positive")


def check_grid_sram_kb(kb: int) -> None:
    if kb < 1:
        raise ValueError("SRAM sizes must be positive")
    # the encoding datapath indexes its SRAMs with shift/mask arithmetic
    # (Section V), so sizes must be powers of two — fail here with a
    # clear message instead of deep inside encoding_engine
    if not is_power_of_two(kb):
        raise ValueError(
            f"grid_sram_kb_per_engine must be a power of two (got {kb} KB)"
        )


def check_n_engines(n_engines: int) -> None:
    if n_engines < 1:
        raise ValueError("need at least one encoding engine")


def check_n_batches(n_batches: int) -> None:
    if n_batches < 1:
        raise ValueError("need at least one pipeline batch")


@dataclass(frozen=True)
class NFPConfig:
    """One Neural Fields Processor (Fig. 9).

    Defaults follow the paper: 16 input-encoding engines (one per hashgrid
    resolution level) each with a 1 MB grid SRAM, a 64x64 MAC MLP engine,
    and the GPU's boost clock as the operating frequency.
    """

    clock_ghz: float = 1.695
    n_encoding_engines: int = 16
    grid_sram_kb_per_engine: int = 1024
    mac_rows: int = 64
    mac_cols: int = 64
    activation_sram_kb: int = 64
    input_fifo_depth: int = 256
    pipeline_fill_cycles: int = 24

    def __post_init__(self):
        check_clock(self.clock_ghz)
        check_n_engines(self.n_encoding_engines)
        if self.activation_sram_kb < 1:
            raise ValueError("SRAM sizes must be positive")
        check_grid_sram_kb(self.grid_sram_kb_per_engine)
        if not is_power_of_two(self.activation_sram_kb):
            raise ValueError(
                f"activation_sram_kb must be a power of two "
                f"(got {self.activation_sram_kb} KB)"
            )
        if self.mac_rows < 1 or self.mac_cols < 1:
            raise ValueError("MAC array dims must be positive")
        if self.input_fifo_depth < 1 or self.pipeline_fill_cycles < 0:
            raise ValueError("invalid FIFO/pipeline parameters")

    @property
    def macs(self) -> int:
        return self.mac_rows * self.mac_cols

    @property
    def grid_sram_bytes_per_engine(self) -> int:
        return self.grid_sram_kb_per_engine * 1024

    @property
    def cycles_per_ms(self) -> float:
        return self.clock_ghz * 1e6


@dataclass(frozen=True)
class NGPCConfig:
    """An NGPC: ``scale_factor`` NFPs sharing the GPU L2 (Fig. 10).

    The paper evaluates scaling factors 8, 16, 32 and 64 (NGPC-8 ...
    NGPC-64), where the scaling factor is the number of NFP units.
    Batches are software-pipelined against the GPU's rest kernels; the
    default batch count matches the double-buffered command-buffer model.
    """

    scale_factor: int = 8
    nfp: NFPConfig = field(default_factory=NFPConfig)
    n_pipeline_batches: int = 16
    l2_spill_penalty: float = 3.0  # slowdown of lookups when a level spills

    def __post_init__(self):
        check_scale_factor(self.scale_factor)
        check_n_batches(self.n_pipeline_batches)
        if self.l2_spill_penalty < 1.0:
            raise ValueError("spill penalty must be >= 1 (a slowdown)")

    @property
    def n_nfps(self) -> int:
        return self.scale_factor
