"""Cross-validation of the two performance paths of the toolchain.

The analytical model is the fast path used for large sweeps; the cycle-accurate
simulator is the faithful path mirroring the paper's BookSim2 usage.  On small
networks the two must agree on orderings and be within a reasonable band of
each other — this is the calibration evidence referenced in the analytical
model's docstring.
"""

import pytest

from repro.core.sparse_hamming import SparseHammingGraph
from repro.simulator.routing_tables import build_routing_tables
from repro.simulator.simulation import SimulationConfig
from repro.simulator.sweep import find_saturation_throughput, run_load_sweep
from repro.toolchain.analytical import analytical_performance
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology
from repro.topologies.torus import TorusTopology


SIM_CONFIG = SimulationConfig(
    warmup_cycles=200,
    measurement_cycles=400,
    drain_max_cycles=2500,
    packet_size_flits=4,
    num_vcs=8,
    buffer_depth_flits=4,
    router_pipeline_cycles=2,
    seed=13,
)

TOPOLOGIES = {
    "ring": RingTopology(4, 4),
    "mesh": MeshTopology(4, 4),
    "torus": TorusTopology(4, 4),
    "shg": SparseHammingGraph(4, 4, s_r={2, 3}, s_c={2, 3}),
}


@pytest.fixture(scope="module")
def measurements():
    results = {}
    for name, topology in TOPOLOGIES.items():
        routing = build_routing_tables(topology)
        analytical = analytical_performance(
            topology,
            routing=routing,
            packet_size_flits=SIM_CONFIG.packet_size_flits,
            router_pipeline_cycles=SIM_CONFIG.router_pipeline_cycles,
        )
        ((_, zero_load),) = run_load_sweep(topology, [0.01], SIM_CONFIG, routing=routing)
        sweep = find_saturation_throughput(
            topology, SIM_CONFIG, routing=routing, coarse_steps=4, refine_steps=1
        )
        results[name] = (analytical, zero_load, sweep)
    return results


class TestZeroLoadLatencyConsistency:
    def test_within_forty_percent(self, measurements):
        for name, (analytical, zero_load, _) in measurements.items():
            simulated = zero_load.average_packet_latency
            predicted = analytical.zero_load_latency_cycles
            assert abs(simulated - predicted) / simulated < 0.4, name

    def test_ordering_preserved(self, measurements):
        analytical_order = sorted(
            measurements, key=lambda n: measurements[n][0].zero_load_latency_cycles
        )
        simulated_order = sorted(
            measurements, key=lambda n: measurements[n][1].average_packet_latency
        )
        # The fastest and slowest topologies must agree between the two models.
        assert analytical_order[0] == simulated_order[0]
        assert analytical_order[-1] == simulated_order[-1]


class TestSaturationConsistency:
    def test_within_factor_of_two(self, measurements):
        for name, (analytical, _, sweep) in measurements.items():
            ratio = analytical.saturation_throughput / max(sweep.saturation_throughput, 1e-6)
            assert 0.5 < ratio < 2.0, (name, ratio)

    def test_ring_saturates_first_in_both_models(self, measurements):
        analytical_worst = min(
            measurements, key=lambda n: measurements[n][0].saturation_throughput
        )
        simulated_worst = min(
            measurements, key=lambda n: measurements[n][2].saturation_throughput
        )
        assert analytical_worst == simulated_worst == "ring"

    def test_sparse_hamming_near_the_top_in_both_models(self, measurements):
        analytical_best = max(
            measurements, key=lambda n: measurements[n][0].saturation_throughput
        )
        assert analytical_best == "shg"
        # The load sweep has a finite bracket resolution, so in simulation we
        # only require the dense sparse Hamming graph to be within 15% of the
        # best simulated saturation throughput.
        best_simulated = max(m[2].saturation_throughput for m in measurements.values())
        shg_simulated = measurements["shg"][2].saturation_throughput
        assert shg_simulated >= 0.85 * best_simulated
