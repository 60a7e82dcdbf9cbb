"""Unit tests for the prediction toolchain (analytical model + predict API)."""

import pytest

from repro.core.sparse_hamming import SparseHammingGraph
from repro.simulator.simulation import SimulationConfig
from repro.toolchain.analytical import analytical_performance
from repro.toolchain.predict import PredictionToolchain, predict
from repro.toolchain.results import PredictionResult
from repro.topologies.flattened_butterfly import FlattenedButterflyTopology
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError


class TestAnalyticalPerformance:
    def test_zero_load_latency_components(self):
        topo = MeshTopology(4, 4)
        perf = analytical_performance(
            topo, packet_size_flits=1, router_pipeline_cycles=1, injection_ejection_cycles=0
        )
        # With unit links, single-flit packets and 1-cycle routers the latency
        # equals twice the average hop count (one router + one link per hop).
        assert perf.zero_load_latency_cycles == pytest.approx(2 * topo.average_hop_count())

    def test_latency_grows_with_packet_size_and_pipeline(self):
        topo = MeshTopology(4, 4)
        small = analytical_performance(topo, packet_size_flits=1, router_pipeline_cycles=1)
        large = analytical_performance(topo, packet_size_flits=8, router_pipeline_cycles=3)
        assert large.zero_load_latency_cycles > small.zero_load_latency_cycles

    def test_link_latencies_increase_latency(self):
        topo = MeshTopology(4, 4)
        slow = analytical_performance(topo, link_latencies={l: 5 for l in topo.links})
        fast = analytical_performance(topo)
        assert slow.zero_load_latency_cycles > fast.zero_load_latency_cycles

    def test_saturation_ordering_ring_mesh_butterfly(self):
        ring = analytical_performance(RingTopology(4, 4))
        mesh = analytical_performance(MeshTopology(4, 4))
        butterfly = analytical_performance(FlattenedButterflyTopology(4, 4))
        assert ring.saturation_throughput < mesh.saturation_throughput
        assert mesh.saturation_throughput < butterfly.saturation_throughput

    def test_saturation_bounded_by_capacity(self):
        perf = analytical_performance(FlattenedButterflyTopology(4, 4))
        assert 0 < perf.saturation_throughput <= 1.0

    def test_average_hops_matches_graph(self):
        topo = TorusTopology(4, 4)
        perf = analytical_performance(topo)
        assert perf.average_hops == pytest.approx(topo.average_hop_count())

    def test_non_uniform_traffic_supported(self):
        perf = analytical_performance(MeshTopology(4, 4), traffic="tornado")
        assert perf.saturation_throughput > 0

    def test_efficiency_factor_bounds_validated(self):
        with pytest.raises(ValidationError):
            analytical_performance(MeshTopology(4, 4), flow_control_efficiency=0.0)


class TestPredictionToolchain:
    def test_prediction_result_fields(self, small_toolchain):
        result = small_toolchain.predict(MeshTopology(4, 4))
        assert isinstance(result, PredictionResult)
        assert result.topology_name == "2D Mesh"
        assert 0 <= result.area_overhead < 1
        assert result.noc_power_w >= 0
        assert result.zero_load_latency_cycles > 0
        assert 0 < result.saturation_throughput <= 1
        assert result.performance_mode == "analytical"
        assert result.physical is not None

    def test_percent_helpers_and_row(self, small_toolchain):
        result = small_toolchain.predict(MeshTopology(4, 4))
        assert result.area_overhead_percent == pytest.approx(100 * result.area_overhead)
        row = result.as_row()
        assert row["Topology"] == "2D Mesh"
        assert "Saturation Throughput [%]" in row

    def test_rejects_unknown_mode(self, small_params):
        with pytest.raises(ValidationError):
            PredictionToolchain(small_params, performance_mode="magic")

    def test_predict_convenience_function(self, small_params):
        result = predict(MeshTopology(4, 4), small_params)
        assert result.performance_mode == "analytical"

    def test_simulation_mode_on_small_network(self, small_params, fast_sim_config):
        toolchain = PredictionToolchain(
            small_params, performance_mode="simulation", simulation_config=fast_sim_config
        )
        result = toolchain.predict(MeshTopology(4, 4))
        assert result.performance_mode == "simulation"
        assert result.zero_load_latency_cycles > 0
        assert 0 < result.saturation_throughput <= 1
        assert "sweep_points" in result.details

    def test_shg_better_performance_than_mesh_at_higher_cost(self, small_toolchain):
        mesh = small_toolchain.predict(MeshTopology(4, 4))
        shg = small_toolchain.predict(SparseHammingGraph(4, 4, s_r={2, 3}, s_c={2, 3}))
        assert shg.saturation_throughput >= mesh.saturation_throughput
        assert shg.zero_load_latency_cycles <= mesh.zero_load_latency_cycles
        assert shg.area_overhead >= mesh.area_overhead
