"""Unit tests for the five steps of the physical model (tile, floorplan,
global routing, unit cells, detailed routing)."""

import pytest

from repro.core.sparse_hamming import SparseHammingGraph
from repro.physical.floorplan import PortSide, build_floorplan, preferred_port_side
from repro.physical.global_routing import global_route
from repro.physical.detailed_routing import detailed_route
from repro.physical.tile import estimate_tile_geometry
from repro.physical.unit_cells import discretize_chip
from repro.topologies.base import Link
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology
from repro.topologies.flattened_butterfly import FlattenedButterflyTopology
from repro.utils.validation import ValidationError


class TestTileGeometry:
    def test_tile_area_is_endpoint_plus_router(self, small_params):
        topo = MeshTopology(4, 4)
        geometry = estimate_tile_geometry(small_params, topo)
        assert geometry.tile_area_ge == pytest.approx(
            geometry.endpoint_area_ge + geometry.router_area_ge
        )
        assert geometry.router_area_fraction < 0.5

    def test_square_tiles_for_unit_aspect_ratio(self, small_params):
        geometry = estimate_tile_geometry(small_params, MeshTopology(4, 4))
        assert geometry.width_mm == pytest.approx(geometry.height_mm)
        assert geometry.width_mm * geometry.height_mm == pytest.approx(geometry.tile_area_mm2)

    def test_aspect_ratio_changes_shape_not_area(self, small_params):
        tall = small_params.scaled(tile_aspect_ratio=2.0)
        geometry = estimate_tile_geometry(tall, MeshTopology(4, 4))
        assert geometry.height_mm == pytest.approx(2 * geometry.width_mm)

    def test_higher_radix_topology_has_bigger_router(self, small_params):
        mesh = estimate_tile_geometry(small_params, MeshTopology(4, 4))
        butterfly = estimate_tile_geometry(small_params, FlattenedButterflyTopology(4, 4))
        assert butterfly.router_area_ge > mesh.router_area_ge
        assert butterfly.router_ports == 7


class TestFloorplan:
    def test_every_link_has_two_ports(self, small_params):
        topo = SparseHammingGraph(4, 4, s_r={2}, s_c={3})
        floorplan = build_floorplan(topo, estimate_tile_geometry(small_params, topo))
        assert len(floorplan.ports) == 2 * topo.num_links
        for link in topo.links:
            assert floorplan.port(link.src, link).side in PortSide
            assert floorplan.port(link.dst, link).side in PortSide

    def test_port_side_follows_link_direction(self):
        topo = MeshTopology(3, 3)
        # Tile 4 is the centre; its east neighbour is 5, west 3, north 1, south 7.
        assert preferred_port_side(topo, 4, Link(4, 5)) is PortSide.EAST
        assert preferred_port_side(topo, 4, Link(3, 4)) is PortSide.WEST
        assert preferred_port_side(topo, 4, Link(1, 4)) is PortSide.NORTH
        assert preferred_port_side(topo, 4, Link(4, 7)) is PortSide.SOUTH

    def test_port_offsets_within_face_are_distinct(self, small_params):
        topo = FlattenedButterflyTopology(4, 4)
        floorplan = build_floorplan(topo, estimate_tile_geometry(small_params, topo))
        for tile in topo.tiles():
            for side in PortSide:
                offsets = [
                    p.offset_fraction
                    for (t, _), p in floorplan.ports.items()
                    if t == tile and p.side == side
                ]
                assert len(offsets) == len(set(offsets))
                assert all(0 < o < 1 for o in offsets)

    def test_unknown_port_rejected(self, small_params):
        topo = MeshTopology(2, 2)
        floorplan = build_floorplan(topo, estimate_tile_geometry(small_params, topo))
        with pytest.raises(ValidationError):
            floorplan.port(0, Link(0, 3))

    def test_mesh_max_one_port_per_side(self, small_params):
        topo = MeshTopology(4, 4)
        floorplan = build_floorplan(topo, estimate_tile_geometry(small_params, topo))
        assert floorplan.max_ports_per_side() == 1


class TestGlobalRouting:
    def test_mesh_links_are_direct_and_channels_empty(self):
        topo = MeshTopology(4, 4)
        result = global_route(topo)
        assert all(route.is_direct for route in result.routes.values())
        assert result.horizontal_loads.max() == 0
        assert result.vertical_loads.max() == 0

    def test_skip_links_occupy_channels(self):
        topo = SparseHammingGraph(4, 4, s_r={3})
        result = global_route(topo)
        # Every row has one skip link of length 3 -> some horizontal channel is used.
        assert result.horizontal_loads.max() >= 1
        assert result.vertical_loads.max() == 0

    def test_torus_wraparound_links_use_channels(self):
        result = global_route(TorusTopology(4, 4))
        assert result.horizontal_loads.max() >= 1
        assert result.vertical_loads.max() >= 1

    def test_congestion_spreads_over_parallel_channels(self):
        topo = FlattenedButterflyTopology(6, 6)
        result = global_route(topo)
        # The greedy router balances: the peak channel load should be well below
        # the total number of long row links in a row (which is 10 per row).
        assert result.horizontal_loads.max() <= 10

    def test_every_link_routed_exactly_once(self):
        topo = SparseHammingGraph(5, 5, s_r={2, 4}, s_c={3})
        result = global_route(topo)
        assert set(result.routes.keys()) == set(topo.links)

    def test_route_lengths_nonnegative(self):
        result = global_route(SparseHammingGraph(4, 6, s_r={2}, s_c={2}))
        assert all(route.grid_length >= 0 for route in result.routes.values())
        assert result.total_channel_length() >= 0


class TestUnitCellsAndDetailedRouting:
    @pytest.fixture
    def model_artifacts(self, small_params):
        topo = SparseHammingGraph(4, 4, s_r={2, 3}, s_c={2})
        geometry = estimate_tile_geometry(small_params, topo)
        floorplan = build_floorplan(topo, geometry)
        routing = global_route(topo, floorplan)
        grid = discretize_chip(small_params, floorplan, routing)
        return topo, floorplan, routing, grid

    def test_cell_dimensions_match_table2_functions(self, small_params, model_artifacts):
        _, _, _, grid = model_artifacts
        wires = small_params.f_bw_to_wires()
        assert grid.cell_height_mm == pytest.approx(small_params.f_h_wires_to_mm(wires))
        assert grid.cell_width_mm == pytest.approx(small_params.f_v_wires_to_mm(wires))

    def test_spacing_proportional_to_channel_load(self, small_params, model_artifacts):
        _, _, routing, grid = model_artifacts
        for channel in range(routing.horizontal_loads.shape[0]):
            load = routing.max_horizontal_load(channel)
            expected = small_params.f_h_wires_to_mm(load * small_params.f_bw_to_wires())
            assert grid.horizontal_spacings_mm[channel] == pytest.approx(expected)

    def test_chip_dimensions_are_tiles_plus_spacings(self, model_artifacts):
        topo, floorplan, _, grid = model_artifacts
        tile = floorplan.tile_geometry
        expected_width = topo.cols * tile.width_mm + grid.vertical_spacings_mm.sum()
        expected_height = topo.rows * tile.height_mm + grid.horizontal_spacings_mm.sum()
        assert grid.chip_width_mm == pytest.approx(expected_width)
        assert grid.chip_height_mm == pytest.approx(expected_height)

    def test_tile_origins_monotonic(self, model_artifacts):
        topo, _, _, grid = model_artifacts
        for row in range(topo.rows):
            xs = [grid.tile_origin(row, col).x for col in range(topo.cols)]
            assert xs == sorted(xs)
        for col in range(topo.cols):
            ys = [grid.tile_origin(row, col).y for row in range(topo.rows)]
            assert ys == sorted(ys)

    def test_port_positions_on_tile_boundary(self, model_artifacts):
        topo, floorplan, _, grid = model_artifacts
        tile = floorplan.tile_geometry
        for link in topo.links:
            for endpoint in (link.src, link.dst):
                port = grid.port_position(endpoint, link)
                origin = grid.tile_origin(*_coord(topo, endpoint))
                assert origin.x - 1e-9 <= port.x <= origin.x + tile.width_mm + 1e-9
                assert origin.y - 1e-9 <= port.y <= origin.y + tile.height_mm + 1e-9

    def test_detailed_routing_covers_all_links_without_collisions(self, model_artifacts):
        _, _, routing, grid = model_artifacts
        detailed = detailed_route(grid, routing)
        assert set(detailed.routes) == set(routing.routes)
        assert detailed.collisions == 0
        assert detailed.total_wire_length_mm() > 0

    def test_detailed_route_lengths_at_least_port_distance(self, model_artifacts):
        topo, _, routing, grid = model_artifacts
        detailed = detailed_route(grid, routing)
        for link, route in detailed.routes.items():
            src = grid.port_position(link.src, link)
            dst = grid.port_position(link.dst, link)
            manhattan = abs(src.x - dst.x) + abs(src.y - dst.y)
            assert route.total_length_mm >= manhattan - 1e-9

    def test_capacity_override_produces_collisions(self, model_artifacts):
        _, _, routing, grid = model_artifacts
        # Cap every channel at a single track: parallel links must now collide.
        caps = {}
        for link, route in routing.routes.items():
            for segment in route.segments:
                caps[(segment.orientation, segment.channel)] = 1
        constrained = detailed_route(grid, routing, capacity_override=caps)
        unconstrained = detailed_route(grid, routing)
        assert constrained.collisions >= unconstrained.collisions


def _coord(topology, tile):
    coord = topology.coord(tile)
    return coord.row, coord.col
