"""Unit tests for the cycle-accurate simulation kernel and load sweeps."""

import pytest

from repro.core.sparse_hamming import SparseHammingGraph
from repro.simulator.simulation import SimulationConfig, Simulator
from repro.simulator.sweep import (
    find_saturation_throughput,
    run_load_sweep,
)
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError


class TestSimulationConfig:
    def test_defaults_match_paper_setup(self):
        config = SimulationConfig()
        assert config.num_vcs == 8
        assert config.num_vcs * config.buffer_depth_flits == 32  # 32-flit buffers
        assert config.traffic == "uniform"

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(injection_rate=1.5)
        with pytest.raises(ValidationError):
            SimulationConfig(measurement_cycles=0)

    def test_network_config_derivation(self):
        config = SimulationConfig(num_vcs=4, buffer_depth_flits=8, packet_size_flits=2)
        network_config = config.network_config()
        assert network_config.num_vcs == 4
        assert network_config.buffer_depth_flits == 8
        assert network_config.packet_size_flits == 2


class TestBasicSimulation:
    def test_all_measured_packets_delivered_at_low_load(self, fast_sim_config):
        simulator = Simulator(MeshTopology(4, 4), fast_sim_config)
        stats = simulator.run()
        assert stats.drained
        assert stats.packets_measured > 0
        assert stats.packets_delivered <= stats.packets_created
        assert stats.average_packet_latency > 0

    def test_latency_at_least_analytical_minimum(self, fast_sim_config):
        # Every packet needs at least (hops * pipeline + hops * link + serialization).
        stats = Simulator(MeshTopology(4, 4), fast_sim_config).run()
        minimum = fast_sim_config.packet_size_flits - 1 + fast_sim_config.router_pipeline_cycles
        assert stats.average_packet_latency >= minimum

    def test_accepted_load_tracks_offered_at_low_load(self, fast_sim_config):
        stats = Simulator(MeshTopology(4, 4), fast_sim_config).run()
        assert stats.accepted_load == pytest.approx(stats.offered_load, rel=0.35)

    def test_hops_consistent_with_topology(self, fast_sim_config):
        topology = MeshTopology(4, 4)
        stats = Simulator(topology, fast_sim_config).run()
        assert 1.0 <= stats.average_hops <= topology.diameter()

    def test_deterministic_given_seed(self, fast_sim_config):
        a = Simulator(MeshTopology(3, 3), fast_sim_config).run()
        b = Simulator(MeshTopology(3, 3), fast_sim_config).run()
        assert a.average_packet_latency == b.average_packet_latency
        assert a.packets_created == b.packets_created

    def test_zero_injection_rate(self):
        config = SimulationConfig(
            injection_rate=0.0, warmup_cycles=10, measurement_cycles=50, drain_max_cycles=50
        )
        stats = Simulator(MeshTopology(3, 3), config).run()
        assert stats.packets_created == 0
        assert stats.average_packet_latency == 0.0

    def test_multi_cycle_links_increase_latency(self, fast_sim_config):
        topology = MeshTopology(4, 4)
        slow_links = {link: 4 for link in topology.links}
        fast = Simulator(topology, fast_sim_config).run()
        slow = Simulator(topology, fast_sim_config, link_latencies=slow_links).run()
        assert slow.average_packet_latency > fast.average_packet_latency + 2

    def test_torus_wraparound_reduces_latency_vs_mesh(self, fast_sim_config):
        mesh = Simulator(MeshTopology(5, 5), fast_sim_config).run()
        torus = Simulator(TorusTopology(5, 5), fast_sim_config).run()
        assert torus.average_packet_latency < mesh.average_packet_latency

    def test_single_vc_network_works_via_escape_layer(self):
        config = SimulationConfig(
            injection_rate=0.03,
            num_vcs=1,
            buffer_depth_flits=4,
            packet_size_flits=2,
            warmup_cycles=100,
            measurement_cycles=200,
            drain_max_cycles=2000,
            seed=5,
        )
        stats = Simulator(TorusTopology(4, 4), config).run()
        assert stats.drained
        assert stats.escape_fraction == 1.0  # every packet uses the escape layer

    def test_escape_layer_rarely_used_at_low_load(self, fast_sim_config):
        stats = Simulator(MeshTopology(4, 4), fast_sim_config).run()
        assert stats.escape_fraction <= 0.2

    def test_different_traffic_patterns_run(self):
        for traffic in ("transpose", "tornado", "neighbor", "bit_complement"):
            config = SimulationConfig(
                injection_rate=0.05,
                traffic=traffic,
                warmup_cycles=50,
                measurement_cycles=150,
                drain_max_cycles=1000,
                packet_size_flits=2,
                num_vcs=4,
                buffer_depth_flits=2,
                seed=3,
            )
            stats = Simulator(MeshTopology(4, 4), config).run()
            assert stats.drained
            assert stats.packets_measured > 0


class TestSaturationBehaviour:
    def test_high_load_saturates_ring(self):
        config = SimulationConfig(
            injection_rate=0.6,
            warmup_cycles=100,
            measurement_cycles=300,
            drain_max_cycles=600,
            packet_size_flits=2,
            num_vcs=4,
            buffer_depth_flits=2,
            seed=2,
        )
        stats = Simulator(RingTopology(4, 4), config).run()
        assert stats.saturated
        assert stats.accepted_load < 0.6

    def test_flit_conservation(self, fast_sim_config):
        stats = Simulator(MeshTopology(4, 4), fast_sim_config).run()
        # Every delivered packet contributed all of its flits; no flit is lost.
        assert stats.packets_delivered * fast_sim_config.packet_size_flits >= (
            stats.flits_delivered_measurement
        ) - fast_sim_config.packet_size_flits * stats.num_tiles


class TestSweeps:
    def test_zero_load_latency_probe(self, fast_sim_config):
        ((_, stats),) = run_load_sweep(MeshTopology(4, 4), [0.01], fast_sim_config)
        assert stats.offered_load == pytest.approx(0.01)
        assert stats.average_packet_latency > 0

    def test_run_load_sweep_returns_point_per_rate(self, fast_sim_config):
        rates = [0.02, 0.05, 0.1]
        points = run_load_sweep(MeshTopology(3, 3), rates, config=fast_sim_config)
        assert [rate for rate, _ in points] == rates

    def test_find_saturation_orders_topologies_correctly(self):
        config = SimulationConfig(
            warmup_cycles=150,
            measurement_cycles=250,
            drain_max_cycles=1200,
            packet_size_flits=2,
            num_vcs=4,
            buffer_depth_flits=2,
            seed=4,
        )
        ring = find_saturation_throughput(RingTopology(4, 4), config, coarse_steps=4, refine_steps=1)
        shg = find_saturation_throughput(
            SparseHammingGraph(4, 4, s_r={2, 3}, s_c={2, 3}), config, coarse_steps=4, refine_steps=1
        )
        assert shg.saturation_throughput > ring.saturation_throughput
        assert shg.zero_load_latency < ring.zero_load_latency

    def test_sweep_points_recorded(self, fast_sim_config):
        result = find_saturation_throughput(
            MeshTopology(3, 3), fast_sim_config, coarse_steps=3, refine_steps=1
        )
        assert len(result.points) >= 3
        assert 0 < result.saturation_throughput <= 1.0
