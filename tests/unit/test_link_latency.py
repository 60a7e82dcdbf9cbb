"""Unit tests for :mod:`repro.physical.link_latency`.

Pins the cycle-boundary behaviour of the round-up: a wire whose delay is an
exact number of cycles must get exactly that many cycles even when the float
product carries rounding noise (``3.0000000000004`` is 3 cycles, not 4),
while genuinely fractional delays still round up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.physical.link_latency import (
    CYCLE_BOUNDARY_REL_TOL,
    _ceil_with_tolerance,
    link_latency_cycles,
)


@dataclass
class _LinearDelayParams:
    """Stand-in for ArchitecturalParameters with a controllable delay function.

    ``f_mm_to_s`` is linear (``seconds_per_mm * distance``), so the test can
    place the delay-frequency product exactly on or near a cycle boundary.
    """

    seconds_per_mm: float
    frequency_hz: float = 1.0e9

    def f_mm_to_s(self, distance_mm: float) -> float:
        return self.seconds_per_mm * distance_mm


@dataclass
class _Grid:
    cell_width_mm: float = 1.0
    cell_height_mm: float = 1.0


def ceil_by_isclose(value: float) -> int:
    """Reference round-up: one scalar at a time, through :func:`math.isclose`."""
    nearest = round(value)
    tol = CYCLE_BOUNDARY_REL_TOL
    if math.isclose(value, nearest, rel_tol=tol, abs_tol=tol):
        return int(nearest)
    return math.ceil(value)


class TestCeilWithTolerance:
    def test_exact_integers_unchanged(self):
        for value in (1.0, 2.0, 3.0, 17.0):
            assert _ceil_with_tolerance(value) == int(value)

    def test_noise_above_boundary_snaps_down(self):
        # The motivating case: floating-point noise just above an integer.
        assert _ceil_with_tolerance(3.0000000000004) == 3
        assert _ceil_with_tolerance(1.0000000000001) == 1

    def test_noise_below_boundary_snaps_to_integer(self):
        assert _ceil_with_tolerance(2.9999999999998) == 3

    def test_real_fractions_still_round_up(self):
        assert _ceil_with_tolerance(3.001) == 4
        assert _ceil_with_tolerance(1.5) == 2
        assert _ceil_with_tolerance(0.25) == 1

    def test_tolerance_is_relative(self):
        # At magnitude 1e6, 1e-4 absolute is within the 1e-9 relative band.
        assert _ceil_with_tolerance(1.0e6 + 1.0e-4) == 1_000_000
        # But a same-magnitude excess far beyond the band still rounds up.
        assert _ceil_with_tolerance(1.0e6 + 10.0) == 1_000_010

    def test_elementwise_matches_scalar_isclose_reference(self):
        rng = np.random.default_rng(0)
        integers = rng.integers(0, 1000, size=4000).astype(float)
        # Offsets from far inside to far outside the tolerance band, both sides.
        offsets = rng.choice([-1.0, 1.0], size=4000) * 10.0 ** rng.uniform(-16, 0, size=4000)
        values = np.concatenate([integers, integers + offsets, integers * (1 + offsets * 1e-6)])
        assert _ceil_with_tolerance(values).tolist() == [
            ceil_by_isclose(v) for v in values.tolist()
        ]


class TestLinkLatencyCycles:
    def test_exact_boundary_is_not_bumped(self):
        # 1 ns/mm at 1 GHz: a 3 mm link is exactly 3 cycles.  The product
        # (3 * 1e-9) * 1e9 is not exactly 3.0 in binary floating point — this
        # is precisely the case the tolerant ceil exists for.
        params = _LinearDelayParams(seconds_per_mm=1.0e-9)
        assert link_latency_cycles(params, _Grid(), horizontal_cells=3, vertical_cells=0) == 3

    def test_every_integer_length_maps_to_its_cycle_count(self):
        params = _LinearDelayParams(seconds_per_mm=1.0e-9)
        for cells in range(1, 33):
            latency = link_latency_cycles(params, _Grid(), cells, 0)
            assert latency == cells, f"{cells} cells -> {latency} cycles"

    def test_fractional_delay_rounds_up(self):
        params = _LinearDelayParams(seconds_per_mm=1.5e-9)
        # 1 mm -> 1.5 cycles -> 2; 2 mm -> 3.0 cycles -> 3.
        assert link_latency_cycles(params, _Grid(), 1, 0) == 2
        assert link_latency_cycles(params, _Grid(), 2, 0) == 3

    def test_minimum_latency_is_one_cycle(self):
        params = _LinearDelayParams(seconds_per_mm=1.0e-12)
        assert link_latency_cycles(params, _Grid(), 1, 0) == 1
        assert link_latency_cycles(params, _Grid(), 0, 0) == 1

    def test_mixed_horizontal_vertical_lengths_add(self):
        params = _LinearDelayParams(seconds_per_mm=1.0e-9)
        grid = _Grid(cell_width_mm=2.0, cell_height_mm=1.0)
        # 2 * 2 mm + 3 * 1 mm = 7 mm -> exactly 7 cycles.
        assert link_latency_cycles(params, grid, 2, 3) == 7

    def test_arrays_of_cell_counts_match_the_per_link_formula(self, small_params):
        # Real parameters: ``f_mm_to_s`` validates one scalar distance.
        grid = _Grid(cell_width_mm=0.61, cell_height_mm=0.53)
        horizontal, vertical = np.meshgrid(np.arange(60), np.arange(60))
        horizontal, vertical = horizontal.ravel(), vertical.ravel()
        expected = []
        for h, v in zip(horizontal.tolist(), vertical.tolist()):
            length_mm = h * grid.cell_width_mm + v * grid.cell_height_mm
            cycles = small_params.f_mm_to_s(length_mm) * small_params.frequency_hz
            expected.append(max(1, ceil_by_isclose(cycles)))
        assert link_latency_cycles(small_params, grid, horizontal, vertical).tolist() == expected
