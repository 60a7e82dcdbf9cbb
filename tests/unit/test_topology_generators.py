"""Unit tests for the established topology generators (Figure 1 / Table I)."""

import inspect

import pytest

from repro.topologies import (
    FlattenedButterflyTopology,
    FoldedTorusTopology,
    HypercubeTopology,
    MeshTopology,
    RingTopology,
    RucheTopology,
    TorusTopology,
)
from repro.topologies.folded_torus import folded_cycle_links
from repro.topologies.hypercube import gray_code, hypercube_applicable
from repro.topologies.registry import (
    TOPOLOGY_FACTORIES,
    available_topologies,
    is_applicable,
    make_topology,
)
from repro.topologies.ring import ring_order
from repro.utils.validation import ValidationError


class TestMesh:
    def test_link_count(self):
        # R*(C-1) + C*(R-1) links.
        topo = MeshTopology(4, 5)
        assert topo.num_links == 4 * 4 + 5 * 3

    def test_diameter_matches_table1(self):
        for rows, cols in [(2, 2), (3, 5), (8, 8)]:
            topo = MeshTopology(rows, cols)
            assert topo.diameter() == topo.expected_diameter() == rows + cols - 2

    def test_radix_is_four_plus_endpoints(self):
        assert MeshTopology(4, 4).router_radix() == 5
        assert MeshTopology(4, 4, endpoints_per_tile=2).router_radix() == 6

    def test_all_links_adjacent(self):
        topo = MeshTopology(5, 5)
        assert all(topo.link_grid_length(link) == 1 for link in topo.links)

    def test_connected(self):
        assert MeshTopology(3, 7).is_connected()


class TestRing:
    def test_is_a_single_cycle(self):
        topo = RingTopology(4, 4)
        assert topo.num_links == topo.num_tiles
        assert all(topo.degree(t) == 2 for t in topo.tiles())
        assert topo.is_connected()

    def test_diameter_matches_table1(self):
        topo = RingTopology(4, 4)
        assert topo.diameter() == topo.expected_diameter() == 8

    def test_ring_order_visits_every_tile_once(self):
        order = ring_order(3, 4)
        assert sorted(order) == list(range(12))

    def test_snake_keeps_most_links_short(self):
        topo = RingTopology(4, 4)
        long_links = [l for l in topo.links if topo.link_grid_length(l) > 1]
        # Only the closing link of the cycle is long.
        assert len(long_links) <= 1

    def test_rejects_two_tiles(self):
        with pytest.raises(ValidationError):
            RingTopology(1, 2)


class TestTorus:
    def test_degree_is_four(self):
        topo = TorusTopology(4, 4)
        assert all(topo.degree(t) == 4 for t in topo.tiles())

    def test_diameter_matches_table1(self):
        for rows, cols in [(4, 4), (8, 8), (4, 8)]:
            topo = TorusTopology(rows, cols)
            assert topo.diameter() == topo.expected_diameter() == rows // 2 + cols // 2

    def test_contains_mesh_links(self):
        torus = TorusTopology(4, 4)
        mesh = MeshTopology(4, 4)
        assert set(mesh.links).issubset(set(torus.links))

    def test_has_wraparound_links(self):
        topo = TorusTopology(4, 4)
        assert topo.has_link(0, 3)  # row wrap
        assert topo.has_link(0, 12)  # column wrap


class TestFoldedTorus:
    def test_folded_cycle_is_single_cycle(self):
        for n in [3, 4, 5, 8]:
            links = folded_cycle_links(n)
            assert len(links) == n
            degree = {i: 0 for i in range(n)}
            for a, b in links:
                degree[a] += 1
                degree[b] += 1
            assert all(d == 2 for d in degree.values())

    def test_no_link_longer_than_two(self):
        topo = FoldedTorusTopology(8, 8)
        assert topo.max_degree() == 4
        assert max(topo.link_grid_length(l) for l in topo.links) == 2

    def test_diameter_matches_torus(self):
        folded = FoldedTorusTopology(8, 8)
        torus = TorusTopology(8, 8)
        assert folded.diameter() == torus.diameter() == folded.expected_diameter()

    def test_small_dimensions(self):
        topo = FoldedTorusTopology(2, 3)
        assert topo.is_connected()


class TestHypercube:
    def test_applicability(self):
        assert hypercube_applicable(4, 4)
        assert hypercube_applicable(8, 16)
        assert not hypercube_applicable(3, 4)
        assert not hypercube_applicable(6, 6)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            HypercubeTopology(3, 4)

    def test_gray_code_neighbours_differ_in_one_bit(self):
        for i in range(15):
            assert bin(gray_code(i) ^ gray_code(i + 1)).count("1") == 1

    def test_degree_is_log2_n(self):
        topo = HypercubeTopology(4, 4)
        assert all(topo.degree(t) == 4 for t in topo.tiles())

    def test_diameter_is_log2_n(self):
        for rows, cols in [(2, 4), (4, 4), (4, 8), (8, 8)]:
            topo = HypercubeTopology(rows, cols)
            assert topo.diameter() == topo.expected_diameter()

    def test_contains_mesh_links_via_gray_code(self):
        cube = HypercubeTopology(4, 4)
        mesh = MeshTopology(4, 4)
        assert set(mesh.links).issubset(set(cube.links))

    def test_all_links_aligned(self):
        topo = HypercubeTopology(4, 8)
        assert all(topo.link_is_aligned(l) for l in topo.links)


class TestFlattenedButterfly:
    def test_link_count(self):
        rows, cols = 4, 4
        topo = FlattenedButterflyTopology(rows, cols)
        expected = rows * cols * (cols - 1) // 2 + cols * rows * (rows - 1) // 2
        assert topo.num_links == expected

    def test_diameter_is_two(self):
        topo = FlattenedButterflyTopology(4, 6)
        assert topo.diameter() == topo.expected_diameter() == 2

    def test_radix_matches_table1(self):
        topo = FlattenedButterflyTopology(8, 8)
        assert topo.router_radix() == topo.expected_radix() == 8 + 8 - 2 + 1

    def test_rows_and_columns_fully_connected(self):
        topo = FlattenedButterflyTopology(3, 4)
        assert topo.has_link(0, 3)       # same row, far apart
        assert topo.has_link(1, 9)       # same column, two rows apart
        assert not topo.has_link(0, 5)   # different row and column

    def test_single_row_degenerates_to_clique(self):
        topo = FlattenedButterflyTopology(1, 5)
        assert topo.diameter() == 1


class TestRuche:
    def test_is_mesh_plus_skip_links(self):
        ruche = RucheTopology(4, 8, row_skip=3, col_skip=0)
        mesh = MeshTopology(4, 8)
        extra = set(ruche.links) - set(mesh.links)
        assert all(ruche.link_grid_length(l) == 3 for l in extra)
        assert len(extra) == 4 * (8 - 3)

    def test_skip_zero_disables_direction(self):
        ruche = RucheTopology(4, 4, row_skip=0, col_skip=2)
        mesh = MeshTopology(4, 4)
        extra = set(ruche.links) - set(mesh.links)
        assert all(not ruche.link_is_aligned(l) or ruche.coord(l.src).col == ruche.coord(l.dst).col for l in extra)

    def test_rejects_skip_of_one(self):
        with pytest.raises(ValidationError):
            RucheTopology(4, 4, row_skip=1, col_skip=2)

    def test_rejects_skip_wider_than_grid(self):
        with pytest.raises(ValidationError):
            RucheTopology(4, 4, row_skip=4, col_skip=2)

    def test_is_subset_of_sparse_hamming(self):
        from repro.core.sparse_hamming import SparseHammingGraph

        ruche = RucheTopology(5, 6, row_skip=3, col_skip=2)
        shg = SparseHammingGraph(5, 6, s_r={3}, s_c={2})
        assert set(ruche.links) == set(shg.links)


class TestRegistryKwargs:
    """``make_topology`` is the one place that rejects generator kwargs."""

    @staticmethod
    def grid(key):
        return next(grid for grid in ((4, 4), (3, 6)) if is_applicable(key, *grid))

    @pytest.mark.parametrize("key", available_topologies())
    def test_rejects_unknown_kwargs(self, key):
        with pytest.raises(ValidationError, match=f"invalid topology kwargs for '{key}'"):
            make_topology(key, *self.grid(key), bogus=1)

    @pytest.mark.parametrize("key", available_topologies())
    def test_factory_signature_matches_the_built_class(self, key):
        # Kwargs are checked against the registered factory's signature, so
        # a wrapper must declare exactly the parameters of its class.
        topology = make_topology(key, *self.grid(key))
        assert list(inspect.signature(TOPOLOGY_FACTORIES[key]).parameters) == list(
            inspect.signature(type(topology)).parameters
        )

    def test_type_errors_inside_a_generator_propagate(self, monkeypatch):
        def broken(rows, cols, endpoints_per_tile=1):
            raise TypeError("bug inside the generator")

        monkeypatch.setitem(TOPOLOGY_FACTORIES, "mesh", broken)
        with pytest.raises(TypeError, match="bug inside the generator"):
            make_topology("mesh", 4, 4)
