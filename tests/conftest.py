"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.physical.parameters import (
    AXI4_PROTOCOL,
    LIGHTWEIGHT_PROTOCOL,
    ArchitecturalParameters,
)
from repro.physical.technology import TECH_22NM
from repro.simulator.simulation import SimulationConfig
from repro.toolchain.predict import PredictionToolchain


def pytest_configure(config: pytest.Config) -> None:
    """Register the suite's custom markers (``-m "not slow"`` skips slow tests)."""
    config.addinivalue_line(
        "markers", "slow: runs a whole example script; takes several seconds"
    )


@pytest.fixture
def small_params() -> ArchitecturalParameters:
    """A small 4x4 architecture used by most physical-model and toolchain tests."""
    return ArchitecturalParameters(
        num_tiles=16,
        endpoint_area_ge=5e6,
        frequency_hz=1.0e9,
        link_bandwidth_bits=128,
        technology=TECH_22NM,
        protocol=AXI4_PROTOCOL,
        name="test-4x4",
    )


@pytest.fixture
def tiny_params() -> ArchitecturalParameters:
    """A tiny 2x3 architecture for fast exact tests."""
    return ArchitecturalParameters(
        num_tiles=6,
        endpoint_area_ge=1e6,
        frequency_hz=1.0e9,
        link_bandwidth_bits=64,
        technology=TECH_22NM,
        protocol=LIGHTWEIGHT_PROTOCOL,
        name="test-2x3",
    )


@pytest.fixture
def fast_sim_config() -> SimulationConfig:
    """Short simulation phases so that cycle-accurate tests stay quick."""
    return SimulationConfig(
        injection_rate=0.05,
        warmup_cycles=100,
        measurement_cycles=200,
        drain_max_cycles=1500,
        packet_size_flits=2,
        num_vcs=4,
        buffer_depth_flits=2,
        seed=11,
    )


@pytest.fixture
def small_toolchain(small_params: ArchitecturalParameters) -> PredictionToolchain:
    """Analytical toolchain bound to the small 4x4 architecture."""
    return PredictionToolchain(small_params)
