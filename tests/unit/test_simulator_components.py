"""Unit tests for simulator building blocks: flits, traffic, routing tables, network."""

import numpy as np
import pytest

from repro.simulator.flit import Flit, Packet, packet_to_flits
from repro.simulator.network import NetworkConfig, build_network
from repro.simulator.routing_tables import build_routing_tables
from repro.simulator.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    InjectionProcess,
    NeighborTraffic,
    TornadoTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic_pattern,
)
from repro.topologies.base import Link
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology
from repro.topologies.slimnoc import SlimNoCTopology
from repro.topologies.torus import TorusTopology
from repro.core.sparse_hamming import SparseHammingGraph
from repro.utils.validation import ValidationError


class TestPacketAndFlit:
    def test_packet_segmentation(self):
        packet = Packet(1, 0, 5, 4, creation_cycle=10)
        flits = packet_to_flits(packet)
        assert len(flits) == 4
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(f.destination == 5 for f in flits)

    def test_single_flit_packet_is_head_and_tail(self):
        flits = packet_to_flits(Packet(1, 0, 1, 1, creation_cycle=0))
        assert flits[0].is_head and flits[0].is_tail

    def test_latency_accessors(self):
        packet = Packet(1, 0, 5, 2, creation_cycle=10)
        assert packet.total_latency is None
        packet.injection_cycle = 12
        packet.arrival_cycle = 30
        assert packet.total_latency == 20
        assert packet.network_latency == 18

    def test_rejects_self_traffic_and_empty_packets(self):
        with pytest.raises(ValidationError):
            Packet(1, 3, 3, 4, creation_cycle=0)
        with pytest.raises(ValidationError):
            Packet(1, 0, 1, 0, creation_cycle=0)


class TestTrafficPatterns:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_uniform_never_sends_to_self(self):
        pattern = UniformRandomTraffic(16)
        for source in range(16):
            for _ in range(50):
                assert pattern.destination(source, self.rng) != source

    def test_uniform_covers_all_destinations(self):
        pattern = UniformRandomTraffic(8)
        seen = {pattern.destination(0, self.rng) for _ in range(500)}
        assert seen == set(range(1, 8))

    def test_transpose_swaps_row_and_column(self):
        pattern = TransposeTraffic(16, 4, 4)
        # tile (1, 2) = 6 -> tile (2, 1) = 9
        assert pattern.destination(6, self.rng) == 9

    def test_transpose_requires_square_grid(self):
        with pytest.raises(ValidationError):
            TransposeTraffic(8, 2, 4)

    def test_bit_complement(self):
        pattern = BitComplementTraffic(16)
        assert pattern.destination(0, self.rng) == 15
        assert pattern.destination(5, self.rng) == 10

    def test_tornado_offset(self):
        pattern = TornadoTraffic(16)
        assert pattern.destination(0, self.rng) == 7
        assert pattern.destination(10, self.rng) == (10 + 7) % 16

    def test_neighbor(self):
        pattern = NeighborTraffic(16)
        assert pattern.destination(3, self.rng) == 4
        assert pattern.destination(15, self.rng) == 0

    def test_hotspot_prefers_hotspots(self):
        pattern = HotspotTraffic(16, hotspots=(5,), hotspot_fraction=1.0)
        destinations = {pattern.destination(0, self.rng) for _ in range(20)}
        assert destinations == {5}

    def test_hotspot_validation(self):
        with pytest.raises(ValidationError):
            HotspotTraffic(16, hotspots=())
        with pytest.raises(ValidationError):
            HotspotTraffic(16, hotspots=(99,))

    def test_factory_by_name(self):
        topo = MeshTopology(4, 4)
        for name in ("uniform", "transpose", "bit_complement", "tornado", "neighbor", "hotspot"):
            pattern = make_traffic_pattern(name, topo)
            destination = pattern.destination(0, self.rng)
            assert 0 <= destination < 16

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValidationError):
            make_traffic_pattern("nonsense", MeshTopology(4, 4))


class TestInjectionProcess:
    def test_zero_rate_creates_no_packets(self):
        process = InjectionProcess(UniformRandomTraffic(16), 0.0, 4, seed=1)
        assert process.packets_for_cycle(0) == []

    def test_rate_controls_expected_packet_count(self):
        process = InjectionProcess(UniformRandomTraffic(64), 0.4, 4, seed=2)
        total = sum(len(process.packets_for_cycle(c)) for c in range(500))
        expected = 0.4 / 4 * 64 * 500
        assert abs(total - expected) / expected < 0.15

    def test_reproducible_with_seed(self):
        a = InjectionProcess(UniformRandomTraffic(16), 0.5, 2, seed=7)
        b = InjectionProcess(UniformRandomTraffic(16), 0.5, 2, seed=7)
        assert [a.packets_for_cycle(c) for c in range(20)] == [
            b.packets_for_cycle(c) for c in range(20)
        ]

    def test_rejects_invalid_rate(self):
        with pytest.raises(ValidationError):
            InjectionProcess(UniformRandomTraffic(16), 1.5, 4)


class TestRoutingTables:
    @pytest.mark.parametrize(
        "topology",
        [
            MeshTopology(4, 4),
            TorusTopology(4, 4),
            RingTopology(3, 3),
            SparseHammingGraph(4, 6, s_r={3}, s_c={2}),
            SlimNoCTopology(5, 10),
        ],
        ids=lambda t: t.name,
    )
    def test_minimal_routes_are_hop_minimal(self, topology):
        import networkx as nx

        tables = build_routing_tables(topology)
        graph = nx.Graph([(link.src, link.dst) for link in topology.links])
        shortest = dict(nx.all_pairs_shortest_path_length(graph))
        for source in topology.tiles():
            for destination in topology.tiles():
                if source == destination:
                    continue
                path = tables.path(source, destination)
                assert len(path) - 1 == shortest[source][destination]

    def test_escape_routes_reach_destination(self):
        topology = TorusTopology(4, 4)
        tables = build_routing_tables(topology)
        for source in topology.tiles():
            for destination in topology.tiles():
                if source == destination:
                    continue
                path = tables.path(source, destination, escape=True)
                assert path[0] == source and path[-1] == destination

    def test_escape_routes_follow_spanning_tree(self):
        topology = MeshTopology(4, 4)
        tables = build_routing_tables(topology)
        tree_edges = {
            tuple(sorted((node, parent)))
            for node, parent in enumerate(tables.tree_parent)
            if parent >= 0
        }
        for source in topology.tiles():
            for destination in topology.tiles():
                if source == destination:
                    continue
                path = tables.path(source, destination, escape=True)
                for a, b in zip(path[:-1], path[1:]):
                    assert tuple(sorted((a, b))) in tree_edges

    def test_escape_channel_dependencies_are_acyclic(self):
        # Up*/down* on a tree: a path never takes an "up" move after a "down"
        # move, where "up" means moving to the tree parent.
        topology = TorusTopology(4, 4)
        tables = build_routing_tables(topology)
        parent = tables.tree_parent
        for source in topology.tiles():
            for destination in topology.tiles():
                if source == destination:
                    continue
                path = tables.path(source, destination, escape=True)
                gone_down = False
                for a, b in zip(path[:-1], path[1:]):
                    moving_up = parent[a] == b
                    if moving_up:
                        assert not gone_down
                    else:
                        gone_down = True

    def test_average_minimal_hops_matches_graph_metric(self):
        topology = MeshTopology(4, 4)
        tables = build_routing_tables(topology)
        num = topology.num_tiles
        average_minimal_hops = sum(
            tables.hop_distance[src][dst]
            for src in range(num)
            for dst in range(num)
            if src != dst
        ) / (num * (num - 1))
        assert average_minimal_hops == pytest.approx(
            topology.average_hop_count()
        )

    def test_disconnected_topology_rejected(self):
        from repro.topologies.base import Topology

        disconnected = Topology(2, 2, [(0, 1)], "broken")
        with pytest.raises(ValidationError):
            build_routing_tables(disconnected)


class TestNetworkConstruction:
    def test_two_channels_per_link(self):
        topology = MeshTopology(3, 3)
        network = build_network(topology)
        assert len(network.channels) == 2 * topology.num_links
        assert network.channel(0, 1).destination == 1
        assert network.channel(1, 0).destination == 0

    def test_link_latencies_applied_to_both_directions(self):
        topology = TorusTopology(4, 4)
        latencies = {link: 3 for link in topology.links}
        network = build_network(topology, link_latencies=latencies)
        assert all(channel.latency_cycles == 3 for channel in network.channels)

    def test_default_latency_is_one(self):
        network = build_network(MeshTopology(2, 2))
        assert all(channel.latency_cycles == 1 for channel in network.channels)

    def test_missing_channel_rejected(self):
        network = build_network(MeshTopology(2, 2))
        with pytest.raises(ValidationError):
            network.channel(0, 3)

    def test_network_config_validation(self):
        with pytest.raises(ValidationError):
            NetworkConfig(num_vcs=0)
        with pytest.raises(ValidationError):
            NetworkConfig(buffer_depth_flits=0)
        config = NetworkConfig(num_vcs=4)
        assert config.escape_vc == 0
        assert config.adaptive_vcs == (1, 2, 3)

    def test_single_vc_has_no_adaptive_layer(self):
        assert NetworkConfig(num_vcs=1).adaptive_vcs == ()
