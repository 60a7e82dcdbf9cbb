"""Integration tests: full toolchain runs, customization, and paper claims
on reduced-size problem instances."""

import pytest

from repro.analysis.pareto import best_within_area_budget, latency_rank
from repro.arch.knc import scenario
from repro.core.sparse_hamming import SparseHammingGraph
from repro.experiments.spec import ExperimentSpec
from repro.optimize.greedy import CustomizationGoal, customize_sparse_hamming
from repro.toolchain.predict import PredictionToolchain
from repro.topologies.registry import applicable_topologies, make_topology


@pytest.fixture(scope="module")
def scenario_a_toolchain() -> PredictionToolchain:
    return PredictionToolchain(scenario("a").parameters())


@pytest.fixture(scope="module")
def scenario_a_predictions(scenario_a_toolchain):
    target = scenario("a")
    predictions = {}
    for name in applicable_topologies(target.rows, target.cols):
        kwargs = {"s_r": target.paper_s_r, "s_c": target.paper_s_c} if name == "sparse_hamming" else {}
        topology = make_topology(
            name, target.rows, target.cols, endpoints_per_tile=target.cores_per_tile, **kwargs
        )
        predictions[name] = scenario_a_toolchain.predict(topology)
    return predictions


class TestScenarioAFigure6Claims:
    """Qualitative checks of Figure 6a with the paper's own SHG configuration."""

    def test_all_paper_topologies_evaluated(self, scenario_a_predictions):
        assert set(scenario_a_predictions) == {
            "ring",
            "mesh",
            "torus",
            "folded_torus",
            "hypercube",
            "flattened_butterfly",
            "sparse_hamming",
        }

    def test_cost_ordering(self, scenario_a_predictions):
        p = scenario_a_predictions
        assert p["mesh"].area_overhead <= p["torus"].area_overhead
        assert p["torus"].area_overhead <= p["flattened_butterfly"].area_overhead
        assert p["sparse_hamming"].area_overhead <= p["flattened_butterfly"].area_overhead

    def test_flattened_butterfly_exceeds_area_budget(self, scenario_a_predictions):
        assert scenario_a_predictions["flattened_butterfly"].area_overhead > 0.40

    def test_sparse_hamming_within_budget(self, scenario_a_predictions):
        assert scenario_a_predictions["sparse_hamming"].area_overhead <= 0.40

    def test_sparse_hamming_best_within_budget(self, scenario_a_predictions):
        best = best_within_area_budget(list(scenario_a_predictions.values()), 0.40)
        assert best is not None
        assert best.topology_name == "Sparse Hamming Graph"

    def test_sparse_hamming_latency_rank_at_most_two(self, scenario_a_predictions):
        rank = latency_rank(list(scenario_a_predictions.values()), "Sparse Hamming Graph")
        assert rank <= 2

    def test_performance_ordering(self, scenario_a_predictions):
        p = scenario_a_predictions
        assert p["ring"].zero_load_latency_cycles > p["mesh"].zero_load_latency_cycles
        assert p["mesh"].zero_load_latency_cycles > p["flattened_butterfly"].zero_load_latency_cycles
        assert p["ring"].saturation_throughput < p["sparse_hamming"].saturation_throughput


class TestCustomizationEndToEnd:
    BASE = ExperimentSpec(
        topology="sparse_hamming",
        rows=6,
        cols=6,
        arch={"endpoint_area_ge": 20e6, "link_bandwidth_bits": 512, "name": "custom-6x6"},
    )

    def test_customization_on_small_architecture(self):
        result = customize_sparse_hamming(
            self.BASE, goal=CustomizationGoal(max_area_overhead=0.40), max_iterations=8
        )
        mesh_step = result.steps[0]
        assert result.prediction.area_overhead <= 0.40
        assert result.prediction.saturation_throughput >= mesh_step.saturation_throughput
        assert not result.topology.is_mesh()

    def test_customized_beats_mesh_and_stays_cheaper_than_butterfly(self):
        result = customize_sparse_hamming(self.BASE, max_iterations=8)
        butterfly = self.BASE.with_overrides(topology="flattened_butterfly").run()
        mesh = self.BASE.with_overrides(topology="mesh").run()
        assert result.prediction.saturation_throughput > mesh.saturation_throughput
        assert result.prediction.area_overhead < butterfly.area_overhead


class TestSparseHammingSpansDesignSpace:
    def test_mesh_and_butterfly_are_configurations(self, scenario_a_toolchain):
        mesh_config = SparseHammingGraph(8, 8)
        butterfly_config = SparseHammingGraph(8, 8, s_r=range(2, 8), s_c=range(2, 8))
        mesh = scenario_a_toolchain.predict(make_topology("mesh", 8, 8))
        butterfly = scenario_a_toolchain.predict(make_topology("flattened_butterfly", 8, 8))
        as_mesh = scenario_a_toolchain.predict(mesh_config)
        as_butterfly = scenario_a_toolchain.predict(butterfly_config)
        assert as_mesh.area_overhead == pytest.approx(mesh.area_overhead, rel=1e-6)
        assert as_butterfly.area_overhead == pytest.approx(butterfly.area_overhead, rel=1e-6)
        assert as_mesh.saturation_throughput == pytest.approx(mesh.saturation_throughput, rel=1e-6)
        assert as_butterfly.zero_load_latency_cycles == pytest.approx(
            butterfly.zero_load_latency_cycles, rel=1e-6
        )

    def test_intermediate_configuration_lies_between_endpoints(self, scenario_a_toolchain):
        mesh = scenario_a_toolchain.predict(SparseHammingGraph(8, 8))
        mid = scenario_a_toolchain.predict(SparseHammingGraph(8, 8, s_r={4}, s_c={4}))
        butterfly = scenario_a_toolchain.predict(
            SparseHammingGraph(8, 8, s_r=range(2, 8), s_c=range(2, 8))
        )
        assert mesh.area_overhead <= mid.area_overhead <= butterfly.area_overhead
        assert (
            butterfly.zero_load_latency_cycles
            <= mid.zero_load_latency_cycles
            <= mesh.zero_load_latency_cycles
        )
