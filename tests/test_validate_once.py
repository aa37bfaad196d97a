"""A small sweep pays its fixed costs once.

- The axis validators check ranges directly; each raises the message
  the matching ``NGPCConfig``/``NFPConfig`` construction raises.
- Values are validated where they enter the program: a block of a
  valid grid builds no configuration, and ``resolve()``/``normalized()``
  of a valid grid call no axis validator.  Counted, not timed.
- An unwatched service sweep builds no ``PartialSweep``; a stream that
  joins it still ends on the exact terminal events.
- The exported cost kernel, called once per sweep, still checks its
  own axes with its own messages.
"""

import asyncio
import threading

import numpy as np
import pytest

import repro.service.progress
from repro.core.area_power import (
    hashgrid_area_power_batch, ngpc_area_power_batch,
)
from repro.core.axes import AXES, axis
from repro.core.config import NFPConfig, NGPCConfig
from repro.core.dse import SweepGrid, evaluate_block, shard_plan
from repro.service import SweepService
from tests.test_stream import (
    GRID, SCHEME, SERVED_GRID, _terminal, _wire, kernel_calls,
)

#: each arch/workload validator and the config construction it mirrors
CONFIG_OF = {
    "scale_factors": lambda v: NGPCConfig(scale_factor=v),
    "clocks_ghz": lambda v: NFPConfig(clock_ghz=v),
    "grid_sram_kb": lambda v: NFPConfig(grid_sram_kb_per_engine=v),
    "n_engines": lambda v: NFPConfig(n_encoding_engines=v),
    "n_batches": lambda v: NGPCConfig(n_pipeline_batches=v),
}


def _raised(call, value):
    """The ValueError message ``call(value)`` raises, or None."""
    try:
        call(value)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", (0, -1, 3, -0.5))
@pytest.mark.parametrize("name", sorted(CONFIG_OF))
def test_validator_raises_its_config_message(name, value):
    assert _raised(axis(name).validate, value) == _raised(
        CONFIG_OF[name], value
    )


@pytest.mark.parametrize("kwargs, message", (
    (dict(scale_factors=np.array([3])), "scale_factor must be a power of two"),
    (dict(scale_factors=np.array([0])), "scale factors must be >= 1"),
    (dict(scale_factors=(8,), clocks_ghz=(0,)), "clock must be positive"),
    (dict(scale_factors=(8,), n_engines=(0,)), "need at least one encoding engine"),
    (dict(scale_factors=(8,), grid_sram_kb=(3,)), "must be a power of two"),
))
def test_cost_kernel_checks_its_axes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ngpc_area_power_batch(**kwargs)


def test_hashgrid_cost_kernel_keeps_its_messages():
    with pytest.raises(ValueError, match="scale factors must be >= 1"):
        hashgrid_area_power_batch((0,), (19,))


@pytest.fixture
def config_builds(monkeypatch):
    """Count every ``NGPCConfig``/``NFPConfig`` construction."""
    builds = []
    for cls in (NGPCConfig, NFPConfig):
        original = cls.__post_init__

        def counted(self, _original=original):
            builds.append(type(self).__name__)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return builds


@pytest.fixture
def validator_calls():
    """Count every axis validator call, registry-wide."""
    calls = []
    originals = {spec.name: spec.validate for spec in AXES}
    for spec in AXES:
        def counted(value, _name=spec.name):
            calls.append(_name)
            originals[_name](value)

        object.__setattr__(spec, "validate", counted)
    try:
        yield calls
    finally:
        for spec in AXES:
            object.__setattr__(spec, "validate", originals[spec.name])


def test_served_block_builds_no_config_beyond_the_base(config_builds):
    base = NGPCConfig()
    grid = SERVED_GRID.resolve(base)
    plan = shard_plan(grid, len(grid.apps) * len(grid.schemes))
    evaluate_block(plan[0][1], base)  # the one-off calibration fits
    del config_builds[:]
    for _, task in plan:
        evaluate_block(task, base)
        evaluate_block(task)
    assert config_builds == []


def test_resolve_and_normalize_call_no_validator(validator_calls, config_builds):
    grid = SweepGrid(
        schemes=(SCHEME,), scale_factors=(32, 8, 8),
        clocks_ghz=(1.2, 0.8), n_batches=(16, 4),
    )
    assert validator_calls  # the grid's values entered here
    del validator_calls[:]
    resolved = grid.resolve().normalized()
    assert validator_calls == []
    assert config_builds.count("NGPCConfig") <= 1  # the default base
    assert resolved.scale_factors == (8, 32)
    assert resolved.clocks_ghz == (0.8, 1.2)
    assert resolved.grid_sram_kb == (NFPConfig().grid_sram_kb_per_engine,)
    assert resolved == SweepGrid(**{
        spec.name: getattr(resolved, spec.name) for spec in AXES
    })
    # a grid received as JSON axes is validated, once
    del validator_calls[:]
    SweepGrid.from_dict(resolved.to_dict())
    assert len(validator_calls) == sum(
        len(values) for values in resolved.to_dict().values()
    )


def test_unwatched_sweep_builds_no_partial_and_a_joining_stream_ends_exact(
    monkeypatch,
):
    partials = []
    original = repro.service.progress.PartialSweep.__init__

    def counted(self, *args, **kwargs):
        partials.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(
        repro.service.progress.PartialSweep, "__init__", counted
    )
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        assert release.wait(timeout=60)

    kernel_calls(monkeypatch, gate=hold)

    async def joined():
        service = SweepService()
        unwatched = asyncio.ensure_future(service.sweep(GRID))
        assert await asyncio.to_thread(entered.wait, 60)
        events = []
        async for event in service.sweep_stream(GRID, scheme=SCHEME):
            events.append(event)
            release.set()  # the stream has joined
        await unwatched
        assert service.coalesced == 1 and service.evaluations == 1
        return events

    async def cold():
        return [e async for e in SweepService().sweep_stream(
            GRID, scheme=SCHEME
        )]

    events = asyncio.run(joined())
    assert partials == []
    assert [e["final"] for e in events if e["event"] == "front"] == [True]
    reference = asyncio.run(cold())
    assert partials  # a watched sweep still scatters its blocks
    assert _terminal([_wire(e) for e in events]) == _terminal(
        [_wire(e) for e in reference]
    )
