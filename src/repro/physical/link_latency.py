"""Link latency estimation (Section IV-B2d of the paper).

A link that crosses ``N^H_cell`` unit cells horizontally and ``N^V_cell``
vertically has a wire length of ``N^H_cell * W_C + N^V_cell * H_C``; the link
latency in clock cycles is that length converted to seconds through the
buffered-wire delay function and multiplied by the clock frequency:

    ``L = f_mm->s(N^H_cell * W_C + N^V_cell * H_C) * F``

Whenever a link is too long to be traversed in one cycle, pipeline registers
are inserted (Section II-A), so the latency is rounded up to an integer number
of cycles with a minimum of one cycle.  The round-up tolerates floating-point
noise: a delay-frequency product that is an integer up to relative error
(e.g. ``3.0000000000004``) counts as that integer, not the next one — a bare
``ceil`` would silently add a cycle to every link sitting exactly on a cycle
boundary.
"""

from __future__ import annotations

import math

from repro.physical.detailed_routing import DetailedRoutingResult
from repro.physical.parameters import ArchitecturalParameters
from repro.physical.unit_cells import UnitCellGrid
from repro.topologies.base import Link

#: Relative tolerance of the cycle-boundary round-up.  Wire delays and clock
#: frequencies carry a handful of multiplications, so accumulated relative
#: error is within a few ULP (~1e-16); 1e-9 is far above that noise floor yet
#: far below any physically meaningful fraction of a clock cycle.
CYCLE_BOUNDARY_REL_TOL = 1e-9


def _ceil_with_tolerance(value: float) -> int:
    """``ceil(value)``, snapping values within relative tolerance of an integer."""
    nearest = round(value)
    if math.isclose(value, nearest, rel_tol=CYCLE_BOUNDARY_REL_TOL, abs_tol=CYCLE_BOUNDARY_REL_TOL):
        return int(nearest)
    return int(math.ceil(value))


def link_latency_cycles(
    params: ArchitecturalParameters,
    grid: UnitCellGrid,
    horizontal_cells: int,
    vertical_cells: int,
) -> int:
    """Latency in cycles of a link crossing the given number of unit cells."""
    length_mm = horizontal_cells * grid.cell_width_mm + vertical_cells * grid.cell_height_mm
    latency_cycles = params.f_mm_to_s(length_mm) * params.frequency_hz
    return max(1, _ceil_with_tolerance(latency_cycles))


def estimate_link_latencies(
    params: ArchitecturalParameters,
    grid: UnitCellGrid,
    detailed: DetailedRoutingResult,
) -> dict[Link, int]:
    """Latency (in clock cycles) of every router-to-router link.

    This is the "topology with link latency estimates" output of Figure 3/4
    that parameterises the cycle-accurate simulation.
    """
    links = detailed.routing.topology.links
    cells = list(zip(detailed.horizontal_cells.tolist(), detailed.vertical_cells.tolist()))
    # Links with equal cell counts have equal latencies: compute each once.
    cycles = {pair: link_latency_cycles(params, grid, *pair) for pair in set(cells)}
    return {links[index]: cycles[cells[index]] for index in detailed.routing.order.tolist()}
