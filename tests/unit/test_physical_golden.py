"""Golden differential test of the physical model (floorplan to link latencies).

``tests/fixtures/physical_model_golden.json`` pins, bit for bit, what
:class:`~repro.physical.model.NoCPhysicalModel` produces for every registered
topology family applicable to 4x4, 8x8, 8x16 and 16x16 grids (under the KNC
scenario ``a`` parameters scaled to the grid), plus the dense 8x16 sparse
Hamming graph configurations of the scenario ``c`` design-space campaign.
Per case it stores:

* the side and ``offset_fraction`` of every ``(tile, link)`` port;
* the global routes (in routing order) and both channel-load arrays;
* the detailed routes (in routing order): tracks, wire lengths, cell counts,
  plus ``collisions`` and ``tracks_per_channel`` both as routed and with
  every channel capped at half its tracks, so the overflow path is pinned;
* tile geometry, unit cells, area, power and the per-link latencies.

Floats are stored as ``float.hex``; per-port and per-link lists are stored as
sha256 digests so the fixture stays small.  Any change to a port order, a
tie-break, a track assignment or a summation order shows up here.
Regenerate it only for an intentional change of model output::

    PYTHONPATH=src python tests/unit/test_physical_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import design_space_campaign
from repro.arch.knc import KNC_SCENARIOS
from repro.physical.detailed_routing import DetailedRoutingResult, detailed_route
from repro.physical.model import NoCPhysicalModel, PhysicalModelResult
from repro.topologies.registry import applicable_topologies, available_topologies, make_topology

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "physical_model_golden.json"
GRIDS = ((4, 4), (8, 8), (8, 16), (16, 16))
FAMILIES = tuple(available_topologies())


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _scalars(record) -> dict:
    """Every field of a flat result dataclass, floats as hex."""
    out = {}
    for item in fields(record):
        value = getattr(record, item.name)
        out[item.name] = float.hex(value) if isinstance(value, float) else value
    return out


def _detailed(detailed: DetailedRoutingResult) -> dict:
    return {
        "routes": _digest(
            [
                [
                    link.src,
                    link.dst,
                    float.hex(route.horizontal_mm),
                    float.hex(route.vertical_mm),
                    route.horizontal_cells,
                    route.vertical_cells,
                    [list(track) for track in route.tracks],
                ]
                for link, route in detailed.routes.items()
            ]
        ),
        "collisions": detailed.collisions,
        "tracks_per_channel": [
            [orientation, channel, used]
            for (orientation, channel), used in detailed.tracks_per_channel.items()
        ],
    }


def _case(result: PhysicalModelResult) -> dict:
    floorplan = result.floorplan
    routing = result.global_routing
    grid = result.unit_cells
    half_capacity = {
        key: max(1, used // 2) for key, used in result.detailed_routing.tracks_per_channel.items()
    }
    return {
        "ports": _digest(
            sorted(
                [tile, link.src, link.dst, port.side.value, float.hex(port.offset_fraction)]
                for (tile, link), port in floorplan.ports.items()
            )
        ),
        "global_routes": _digest(
            [
                [
                    link.src,
                    link.dst,
                    route.is_direct,
                    [[s.orientation, s.channel, s.start, s.stop] for s in route.segments],
                ]
                for link, route in routing.routes.items()
            ]
        ),
        "horizontal_loads": _digest(routing.horizontal_loads.tolist()),
        "vertical_loads": _digest(routing.vertical_loads.tolist()),
        "tile": _scalars(result.tile_geometry),
        "unit_cells": {
            "cell_width_mm": float.hex(grid.cell_width_mm),
            "cell_height_mm": float.hex(grid.cell_height_mm),
            "chip_width_mm": float.hex(grid.chip_width_mm),
            "chip_height_mm": float.hex(grid.chip_height_mm),
            "total_cells": grid.total_cells,
            "logic_cells": grid.logic_cells,
            "tile_origins": _digest([float.hex(v) for v in grid.tile_origins.ravel().tolist()]),
        },
        "detailed": _detailed(result.detailed_routing),
        "constrained": _detailed(detailed_route(grid, routing, capacity_override=half_capacity)),
        "area": _scalars(result.area),
        "power": _scalars(result.power),
        "latencies": _digest(
            [[link.src, link.dst, cycles] for link, cycles in result.link_latencies.items()]
        ),
    }


def golden_cases():
    """``(key, params, topology)`` of every golden case."""
    base = KNC_SCENARIOS["a"].parameters()
    for rows, cols in GRIDS:
        params = base.scaled(num_tiles=rows * cols)
        for name in applicable_topologies(rows, cols, FAMILIES):
            yield f"{rows}x{cols}/{name}", params, make_topology(name, rows, cols)
    for spec in design_space_campaign(8, 16, scenario="c", max_configurations=5).specs:
        s_r = ",".join(map(str, spec.topology_kwargs["s_r"]))
        s_c = ",".join(map(str, spec.topology_kwargs["s_c"]))
        key = f"8x16/sparse_hamming/c/s_r={s_r}/s_c={s_c}"
        yield key, spec.build_parameters(), spec.build_topology()


def compute_golden() -> dict:
    """Physical-model outputs of every golden case, keyed by case name."""
    return {
        key: _case(NoCPhysicalModel(params).evaluate(topology))
        for key, params, topology in golden_cases()
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_family_and_dense_configuration(expected):
    assert sorted(expected) == sorted(key for key, _, _ in golden_cases())
    assert any(key.startswith("8x16/slimnoc") for key in expected)
    assert sum("/c/" in key for key in expected) == 5


@pytest.mark.parametrize(
    "part",
    [
        "ports",
        "global_routes",
        "horizontal_loads",
        "vertical_loads",
        "tile",
        "unit_cells",
        "detailed",
        "constrained",
        "area",
        "power",
        "latencies",
    ],
)
def test_physical_model_matches_golden(computed, expected, part):
    assert {key: case[part] for key, case in computed.items()} == {
        key: case[part] for key, case in expected.items()
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_physical_golden.py --write")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
