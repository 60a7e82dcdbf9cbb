"""Property-based tests on routing tables, the physical model and the analytical model."""

from hypothesis import given, settings, strategies as st

from repro.core.sparse_hamming import SparseHammingGraph
from repro.physical.model import NoCPhysicalModel
from repro.physical.parameters import ArchitecturalParameters
from repro.simulator.routing_tables import build_routing_tables
from repro.toolchain.analytical import analytical_performance
from repro.topologies.mesh import MeshTopology
from repro.topologies.registry import applicable_topologies, make_topology


@st.composite
def small_sparse_hamming(draw):
    rows = draw(st.integers(3, 6))
    cols = draw(st.integers(3, 6))
    s_r = {x for x in draw(st.sets(st.integers(2, cols - 1), max_size=3))}
    s_c = {x for x in draw(st.sets(st.integers(2, rows - 1), max_size=3))}
    return SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)


class TestRoutingTableInvariants:
    @given(topology=small_sparse_hamming())
    @settings(max_examples=25, deadline=None)
    def test_minimal_routes_terminate_and_are_minimal(self, topology):
        import networkx as nx

        tables = build_routing_tables(topology)
        graph = nx.Graph([(link.src, link.dst) for link in topology.links])
        shortest = dict(nx.all_pairs_shortest_path_length(graph))
        nodes = list(topology.tiles())
        for source in nodes[:: max(1, len(nodes) // 6)]:
            for destination in nodes[:: max(1, len(nodes) // 6)]:
                if source == destination:
                    continue
                path = tables.path(source, destination)
                assert path[0] == source and path[-1] == destination
                assert len(path) - 1 == shortest[source][destination]

    @given(topology=small_sparse_hamming())
    @settings(max_examples=25, deadline=None)
    def test_escape_routes_follow_tree_without_cycles(self, topology):
        tables = build_routing_tables(topology)
        parent = tables.tree_parent
        nodes = list(topology.tiles())
        for source in nodes[:: max(1, len(nodes) // 5)]:
            for destination in nodes[:: max(1, len(nodes) // 5)]:
                if source == destination:
                    continue
                path = tables.path(source, destination, escape=True)
                assert len(path) == len(set(path))  # no node repeated
                gone_down = False
                for a, b in zip(path[:-1], path[1:]):
                    if parent[a] == b:
                        assert not gone_down
                    else:
                        gone_down = True


class TestPhysicalModelInvariants:
    @given(
        topology=small_sparse_hamming(),
        endpoint_mge=st.floats(1.0, 40.0),
        bandwidth=st.sampled_from([64.0, 128.0, 256.0, 512.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_estimates_are_finite_and_consistent(self, topology, endpoint_mge, bandwidth):
        params = ArchitecturalParameters(
            num_tiles=topology.num_tiles,
            endpoint_area_ge=endpoint_mge * 1e6,
            link_bandwidth_bits=bandwidth,
            name="prop-test",
        )
        result = NoCPhysicalModel(params).evaluate(topology)
        assert 0.0 <= result.area_overhead < 1.0
        assert result.area.total_area_mm2 >= result.area.logic_only_area_mm2 > 0
        assert result.noc_power_w >= 0.0
        assert result.power.total_power_w >= result.power.logic_only_power_w
        assert set(result.link_latencies) == set(topology.links)
        assert all(latency >= 1 for latency in result.link_latencies.values())
        assert result.detailed_routing.collisions == 0

    @given(topology=small_sparse_hamming())
    @settings(max_examples=15, deadline=None)
    def test_adding_links_never_reduces_cost(self, topology):
        params = ArchitecturalParameters(
            num_tiles=topology.num_tiles,
            endpoint_area_ge=10e6,
            link_bandwidth_bits=256.0,
            name="prop-test",
        )
        model = NoCPhysicalModel(params)
        mesh = model.evaluate(SparseHammingGraph(topology.rows, topology.cols))
        current = model.evaluate(topology)
        assert current.area.total_area_mm2 >= mesh.area.total_area_mm2 - 1e-9


class TestAnalyticalModelInvariants:
    @given(topology=small_sparse_hamming())
    @settings(max_examples=25, deadline=None)
    def test_performance_estimates_bounded(self, topology):
        perf = analytical_performance(topology)
        assert perf.zero_load_latency_cycles > 0
        assert 0 < perf.saturation_throughput <= 1.0
        assert 1.0 <= perf.average_hops <= topology.diameter()

    @given(dims=st.tuples(st.integers(2, 5), st.integers(2, 5)))
    @settings(max_examples=15, deadline=None)
    def test_every_applicable_topology_analysable(self, dims):
        rows, cols = dims
        for name in applicable_topologies(rows, cols):
            kwargs = {"s_r": set(), "s_c": set()} if name == "sparse_hamming" else {}
            topology = make_topology(name, rows, cols, **kwargs)
            perf = analytical_performance(topology)
            assert perf.saturation_throughput > 0

    @given(
        packet_size=st.integers(1, 8),
        pipeline=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_latency_monotone_in_packet_size_and_pipeline(self, packet_size, pipeline):
        topology = MeshTopology(4, 4)
        base = analytical_performance(topology, packet_size_flits=1, router_pipeline_cycles=1)
        larger = analytical_performance(
            topology, packet_size_flits=packet_size, router_pipeline_cycles=pipeline
        )
        assert larger.zero_load_latency_cycles >= base.zero_load_latency_cycles
