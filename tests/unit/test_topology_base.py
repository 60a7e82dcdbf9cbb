"""Unit tests for the Topology base class and Link."""

import pytest

from repro.topologies.base import Link, TileCoord, Topology
from repro.utils.validation import ValidationError


class TestLink:
    def test_canonical_orders_endpoints(self):
        assert Link.canonical(5, 2) == Link(2, 5)

    def test_rejects_self_link(self):
        with pytest.raises(ValidationError):
            Link.canonical(3, 3)

    def test_rejects_unordered_construction(self):
        with pytest.raises(ValidationError):
            Link(5, 2)

    def test_other_endpoint(self):
        link = Link(2, 5)
        assert link.other(2) == 5
        assert link.other(5) == 2

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValidationError):
            Link(2, 5).other(3)

    def test_links_are_hashable_and_ordered(self):
        links = {Link(0, 1), Link(0, 1), Link(1, 2)}
        assert len(links) == 2
        assert sorted(links) == [Link(0, 1), Link(1, 2)]


class TestTopologyConstruction:
    def test_basic_construction(self):
        topo = Topology(2, 3, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)], "test")
        assert topo.rows == 2
        assert topo.cols == 3
        assert topo.num_tiles == 6
        assert topo.num_links == 7

    def test_duplicate_links_collapse(self):
        topo = Topology(1, 2, [(0, 1), (1, 0), Link(0, 1)], "dup")
        assert topo.num_links == 1

    def test_rejects_out_of_range_link(self):
        with pytest.raises(ValidationError):
            Topology(2, 2, [(0, 4)], "bad")

    @pytest.mark.parametrize("link", [Link(0, 4), Link(-1, 2), Link(True, 2), Link(0.0, 2)])
    def test_rejects_bad_link_endpoint(self, link):
        with pytest.raises(ValidationError):
            Topology(2, 2, [(0, 1), link], "bad")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            Topology(0, 3, [], "bad")

    def test_rejects_single_tile(self):
        with pytest.raises(ValidationError):
            Topology(1, 1, [], "bad")

    def test_rejects_bad_endpoints_per_tile(self):
        with pytest.raises(ValidationError):
            Topology(2, 2, [(0, 1)], "bad", endpoints_per_tile=0)


class TestTopologyIndexing:
    @pytest.fixture
    def topo(self) -> Topology:
        return Topology(3, 4, [(i, i + 1) for i in range(11)], "line")

    def test_tile_index_row_major(self, topo):
        assert topo.tile_index(0, 0) == 0
        assert topo.tile_index(0, 3) == 3
        assert topo.tile_index(2, 3) == 11

    def test_coord_inverse_of_tile_index(self, topo):
        for tile in topo.tiles():
            coord = topo.coord(tile)
            assert topo.tile_index(coord.row, coord.col) == tile

    def test_coord_returns_tilecoord(self, topo):
        assert topo.coord(5) == TileCoord(1, 1)

    def test_tile_index_out_of_range(self, topo):
        with pytest.raises(ValidationError):
            topo.tile_index(3, 0)
        with pytest.raises(ValidationError):
            topo.coord(12)

    @pytest.mark.parametrize("tile", [-1, 12, True, 1.0])
    def test_coord_validates_its_argument(self, topo, tile):
        with pytest.raises(ValidationError):
            topo.coord(tile)

    def test_link_queries_validate_their_arguments(self, topo):
        with pytest.raises(ValidationError):
            topo.has_link(0, 12)
        with pytest.raises(ValidationError):
            topo.link_grid_length(Link(0, 12))


class TestTopologyArrays:
    @pytest.fixture
    def topo(self) -> Topology:
        return Topology(3, 4, [(0, 1), (0, 11), (5, 9), (2, 3), (1, 9)], "mixed")

    def test_tile_arrays_match_coord(self, topo):
        assert [TileCoord(int(r), int(c)) for r, c in zip(topo.tile_rows, topo.tile_cols)] == [
            topo.coord(tile) for tile in topo.tiles()
        ]

    def test_link_arrays_follow_link_order(self, topo):
        assert [tuple(ends) for ends in topo.link_ends.tolist()] == [
            (link.src, link.dst) for link in topo.links
        ]
        assert topo.link_lengths.tolist() == [topo.link_grid_length(link) for link in topo.links]
        assert [topo.link_index[link] for link in topo.links] == list(range(topo.num_links))

    def test_arrays_are_read_only(self, topo):
        arrays = (
            topo.tile_rows,
            topo.tile_cols,
            topo.link_ends,
            topo.link_lengths,
            topo.degrees,
            topo.neighbor_array,
            *topo.hop_minimal_paths,
        )
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_arrays_of_topology_without_links(self):
        topo = Topology(1, 2, [], "empty")
        assert topo.link_ends.shape == (0, 2)
        assert topo.link_lengths.shape == (0,)
        assert topo.degrees.tolist() == [0, 0]
        assert topo.neighbor_array.shape == (3, 0)
        assert topo.max_degree() == 0
        assert topo.hop_minimal_paths.next_hop.tolist() == [[0, -1], [-1, 1]]
        assert not topo.is_connected()

    def test_neighbor_array_lists_ascending_neighbors_then_padding(self, topo):
        assert topo.degrees.tolist() == [2, 2, 1, 1, 0, 1, 0, 0, 0, 2, 0, 1]
        assert topo.neighbor_array.shape == (13, 2)
        assert topo.neighbor_array[[0, 1, 2, 4, 9, 12]].tolist() == [
            [1, 11], [0, 9], [3, 12], [12, 12], [1, 5], [12, 12]
        ]
        assert [topo.neighbors(tile) for tile in (0, 9, 4)] == [[1, 11], [1, 5], []]

    def test_hop_minimal_paths_mark_unreachable_pairs(self, topo):
        paths = topo.hop_minimal_paths
        # 0 -> 5 runs 0-1-9-5: lengths 1 + 2 + 1.
        assert (paths.next_hop[0, 5], paths.hop_distance[0, 5]) == (1, 3)
        assert paths.hop_minimal_length[0, 5] == 4
        # Tile 4 has no links at all.
        for array in paths:
            assert array[0, 4] == array[4, 0] == -1
        assert paths.next_hop.diagonal().tolist() == list(topo.tiles())

    def test_hop_minimal_paths_prefer_the_physically_shorter_next_hop(self):
        # 4 -> 8 in two hops via 1 (lengths 1 + 3) or via 5 (lengths 1 + 1):
        # the physically shorter continuation wins over the lower index.
        topo = Topology(3, 3, [(4, 5), (5, 8), (1, 4), (1, 8)], "detour")
        paths = topo.hop_minimal_paths
        assert paths.next_hop[4, 8] == 5
        assert paths.hop_distance[4, 8] == 2
        assert paths.hop_minimal_length[4, 8] == 2


class TestTopologyGraph:
    @pytest.fixture
    def square(self) -> Topology:
        # 2x2 grid connected as a cycle 0-1-3-2-0.
        return Topology(2, 2, [(0, 1), (1, 3), (2, 3), (0, 2)], "square")

    def test_neighbors(self, square):
        assert square.neighbors(0) == [1, 2]
        assert square.neighbors(3) == [1, 2]

    def test_degree_and_radix(self, square):
        assert square.degree(0) == 2
        assert square.router_radix(0) == 3
        assert square.router_radix() == 3

    def test_radix_with_more_endpoints(self):
        topo = Topology(2, 2, [(0, 1), (1, 3), (2, 3), (0, 2)], "sq", endpoints_per_tile=2)
        assert topo.router_radix() == 4

    def test_has_link(self, square):
        assert square.has_link(0, 1)
        assert square.has_link(1, 0)
        assert not square.has_link(0, 3)
        assert not square.has_link(2, 2)

    def test_diameter_and_average_hops(self, square):
        assert square.diameter() == 2
        assert square.average_hop_count() == pytest.approx(4 / 3)

    def test_disconnected_topology_detected(self):
        topo = Topology(2, 2, [(0, 1)], "disconnected")
        assert not topo.is_connected()
        with pytest.raises(ValidationError):
            topo.validate_connected()
        with pytest.raises(ValidationError):
            topo.diameter()

    def test_link_alignment_and_length(self, square):
        assert square.link_is_aligned(Link(0, 1))
        assert square.link_grid_length(Link(0, 1)) == 1
        diag = Topology(2, 2, [(0, 3), (0, 1), (1, 3), (2, 3)], "diag")
        assert not diag.link_is_aligned(Link(0, 3))
        assert diag.link_grid_length(Link(0, 3)) == 2

    def test_equality_and_hash(self):
        a = Topology(2, 2, [(0, 1), (1, 3), (2, 3), (0, 2)], "a")
        b = Topology(2, 2, [(0, 2), (2, 3), (1, 3), (0, 1)], "b")
        assert a == b  # names do not participate in equality
        assert hash(a) == hash(b)

    def test_repr_mentions_grid(self, square):
        assert "2x2" in repr(square)
