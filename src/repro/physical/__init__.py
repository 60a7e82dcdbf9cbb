"""Physical cost model: area, power, and link-latency prediction (Section IV-B).

The model follows the five steps of Figure 4/5 of the paper:

1. tile area estimation and placement in an ``R x C`` grid,
2. global routing of links in the grid of tiles (greedy, congestion-aware),
3. estimation of the spacing between rows and columns of tiles,
4. discretization of the chip into same-sized unit-cells,
5. detailed routing in the grid of unit-cells.

From the routed design the model derives the NoC area overhead, the power
consumption, and the latency (in clock cycles) of every router-to-router link.
The link latencies are what make the downstream cycle-accurate simulation
accurate (Section IV-A).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.physical.area": ("AreaEstimate", "estimate_area"),
    "repro.physical.detailed_routing": (
        "DetailedRoute",
        "DetailedRoutingResult",
        "detailed_route",
    ),
    "repro.physical.floorplan": ("Floorplan", "PortSide", "build_floorplan"),
    "repro.physical.global_routing": (
        "GlobalRoute",
        "GlobalRoutingResult",
        "global_route",
    ),
    "repro.physical.link_latency": ("estimate_link_latencies",),
    "repro.physical.model": ("NoCPhysicalModel", "PhysicalModelResult"),
    "repro.physical.parameters": (
        "ArchitecturalParameters",
        "TransportProtocolModel",
        "AXI4_PROTOCOL",
        "LIGHTWEIGHT_PROTOCOL",
    ),
    "repro.physical.power": ("PowerEstimate", "estimate_power"),
    "repro.physical.technology": (
        "TechnologyModel",
        "TECH_22NM",
        "TECH_GF22FDX",
        "TECHNOLOGY_PRESETS",
    ),
    "repro.physical.tile": ("TileGeometry", "estimate_tile_geometry"),
    "repro.physical.unit_cells": ("UnitCellGrid", "discretize_chip"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "TechnologyModel",
    "TECH_22NM",
    "TECH_GF22FDX",
    "TECHNOLOGY_PRESETS",
    "ArchitecturalParameters",
    "TransportProtocolModel",
    "AXI4_PROTOCOL",
    "LIGHTWEIGHT_PROTOCOL",
    "TileGeometry",
    "estimate_tile_geometry",
    "Floorplan",
    "PortSide",
    "build_floorplan",
    "GlobalRoute",
    "GlobalRoutingResult",
    "global_route",
    "UnitCellGrid",
    "discretize_chip",
    "DetailedRoute",
    "DetailedRoutingResult",
    "detailed_route",
    "AreaEstimate",
    "estimate_area",
    "PowerEstimate",
    "estimate_power",
    "estimate_link_latencies",
    "NoCPhysicalModel",
    "PhysicalModelResult",
]
