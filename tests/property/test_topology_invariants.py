"""Property-based tests (hypothesis) on topology generators and their invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.config_space import configuration_count
from repro.core.sparse_hamming import SparseHammingGraph
from repro.topologies.base import Link, Topology
from repro.topologies.flattened_butterfly import FlattenedButterflyTopology
from repro.topologies.folded_torus import FoldedTorusTopology
from repro.topologies.mesh import MeshTopology
from repro.topologies.properties import _physical_distances, analyze_topology
from repro.topologies.ring import RingTopology
from repro.topologies.torus import TorusTopology

# Grid dimensions large enough to be interesting, small enough to stay fast.
grid_dims = st.tuples(st.integers(2, 7), st.integers(2, 7))


@st.composite
def sparse_hamming_configs(draw):
    """Random (rows, cols, S_R, S_C) tuples with valid skip sets."""
    rows = draw(st.integers(2, 7))
    cols = draw(st.integers(2, 7))
    s_r = draw(st.sets(st.integers(2, max(2, cols - 1)) if cols > 2 else st.nothing()))
    s_c = draw(st.sets(st.integers(2, max(2, rows - 1)) if rows > 2 else st.nothing()))
    s_r = {x for x in s_r if 2 <= x < cols}
    s_c = {x for x in s_c if 2 <= x < rows}
    return rows, cols, frozenset(s_r), frozenset(s_c)


class TestSparseHammingInvariants:
    @given(config=sparse_hamming_configs())
    @settings(max_examples=60, deadline=None)
    def test_always_connected(self, config):
        rows, cols, s_r, s_c = config
        assert SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c).is_connected()

    @given(config=sparse_hamming_configs())
    @settings(max_examples=60, deadline=None)
    def test_contains_mesh_and_subset_of_butterfly(self, config):
        rows, cols, s_r, s_c = config
        shg = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        mesh = MeshTopology(rows, cols)
        butterfly = FlattenedButterflyTopology(rows, cols)
        assert set(mesh.links).issubset(set(shg.links))
        assert set(shg.links).issubset(set(butterfly.links))

    @given(config=sparse_hamming_configs())
    @settings(max_examples=60, deadline=None)
    def test_all_links_aligned(self, config):
        rows, cols, s_r, s_c = config
        shg = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        assert all(shg.link_is_aligned(link) for link in shg.links)

    @given(config=sparse_hamming_configs())
    @settings(max_examples=40, deadline=None)
    def test_expected_diameter_and_radix_match_graph(self, config):
        rows, cols, s_r, s_c = config
        shg = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        assert shg.expected_diameter() == shg.diameter()
        assert shg.expected_radix() == shg.router_radix()

    @given(config=sparse_hamming_configs())
    @settings(max_examples=40, deadline=None)
    def test_diameter_bounded_by_mesh_and_butterfly(self, config):
        rows, cols, s_r, s_c = config
        shg = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        mesh_diameter = rows + cols - 2
        butterfly_diameter = 2 if (rows > 1 and cols > 1) else 1
        assert butterfly_diameter <= shg.diameter() <= mesh_diameter

    @given(config=sparse_hamming_configs())
    @settings(max_examples=40, deadline=None)
    def test_link_count_formula(self, config):
        rows, cols, s_r, s_c = config
        shg = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        expected = rows * (cols - 1) + cols * (rows - 1)
        expected += sum(rows * (cols - x) for x in s_r)
        expected += sum(cols * (rows - x) for x in s_c)
        assert shg.num_links == expected

    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_configuration_count_formula(self, dims):
        rows, cols = dims
        assert configuration_count(rows, cols) == 2 ** (max(cols - 2, 0) + max(rows - 2, 0))


class TestEstablishedTopologyInvariants:
    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_mesh_diameter_formula(self, dims):
        rows, cols = dims
        assert MeshTopology(rows, cols).diameter() == rows + cols - 2

    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_torus_diameter_formula(self, dims):
        rows, cols = dims
        assert TorusTopology(rows, cols).diameter() == rows // 2 + cols // 2

    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_folded_torus_isomorphic_diameter(self, dims):
        rows, cols = dims
        assert FoldedTorusTopology(rows, cols).diameter() == TorusTopology(rows, cols).diameter()

    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_ring_is_two_regular_cycle(self, dims):
        rows, cols = dims
        if rows * cols < 3:
            return
        ring = RingTopology(rows, cols)
        assert ring.num_links == ring.num_tiles
        assert all(ring.degree(t) == 2 for t in ring.tiles())
        assert ring.is_connected()

    @given(dims=grid_dims)
    @settings(max_examples=30, deadline=None)
    def test_flattened_butterfly_radix_formula(self, dims):
        rows, cols = dims
        topo = FlattenedButterflyTopology(rows, cols)
        assert topo.router_radix() == rows + cols - 2 + 1


@st.composite
def connected_link_sets(draw):
    """A random connected topology: a chain through a shuffled tile order plus
    random extra links, so links are often long and not aligned."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(2, 5))
    tiles = rows * cols
    order = draw(st.permutations(range(tiles)))
    pair = st.tuples(st.integers(0, tiles - 1), st.integers(0, tiles - 1))
    extra = [(a, b) for a, b in draw(st.lists(pair, max_size=2 * tiles)) if a != b]
    links = list(zip(order, order[1:])) + extra
    return Topology(rows, cols, links, "random")


class TestGraphQueriesMatchNetworkx:
    """networkx is the independent reference for the array-based graph queries."""

    @given(topology=connected_link_sets())
    @settings(max_examples=60, deadline=None)
    def test_hop_queries(self, topology):
        import networkx as nx

        graph = nx.Graph([(link.src, link.dst) for link in topology.links])
        assert topology.is_connected()
        assert topology.diameter() == nx.diameter(graph)
        # Bit-equal, not approximately equal: both divide one exact sum.
        assert topology.average_hop_count() == nx.average_shortest_path_length(graph)
        assert [topology.degree(tile) for tile in topology.tiles()] == [
            graph.degree[tile] for tile in topology.tiles()
        ]

    @given(topology=connected_link_sets())
    @settings(max_examples=60, deadline=None)
    def test_physical_lengths_and_table1_columns(self, topology):
        import networkx as nx

        graph = nx.Graph()
        for link in topology.links:
            graph.add_edge(link.src, link.dst, length=topology.link_grid_length(link))
        physical = dict(nx.all_pairs_dijkstra_path_length(graph, weight="length"))
        distances = _physical_distances(topology)
        paths = topology.hop_minimal_paths
        present = used = True
        for src in topology.tiles():
            for dst in topology.tiles():
                hop_minimal = min(
                    nx.path_weight(graph, path, "length")
                    for path in nx.all_shortest_paths(graph, src, dst)
                )
                assert paths.hop_minimal_length[src, dst] == hop_minimal
                assert distances[src, dst] == physical[src][dst]
                a, b = topology.coord(src), topology.coord(dst)
                manhattan = abs(a.row - b.row) + abs(a.col - b.col)
                present &= physical[src][dst] == manhattan
                used &= hop_minimal == manhattan
        properties = analyze_topology(topology)
        assert properties.minimal_paths_present == present
        assert properties.minimal_paths_used == (present and used)

    @given(topology=connected_link_sets())
    @settings(max_examples=60, deadline=None)
    def test_next_hop_is_the_physically_shortest_then_lowest_neighbor(self, topology):
        paths = topology.hop_minimal_paths
        for node in topology.tiles():
            for dst in topology.tiles():
                if node == dst:
                    continue
                candidates = [
                    (
                        topology.link_grid_length(Link.canonical(node, n))
                        + int(paths.hop_minimal_length[n, dst]),
                        n,
                    )
                    for n in topology.neighbors(node)
                    if paths.hop_distance[n, dst] == paths.hop_distance[node, dst] - 1
                ]
                chosen = (int(paths.hop_minimal_length[node, dst]), int(paths.next_hop[node, dst]))
                assert chosen == min(candidates)
