"""Unit tests for the analysis helpers (Table I, Pareto, design space) and viz."""

import pytest

from repro.analysis.compliance import compliance_table, format_compliance_table
from repro.analysis.design_space import (
    DesignSpaceSample,
    design_space_campaign,
    select_configurations,
    sweep_design_space,
    trade_off_curve,
)
from repro.analysis.pareto import ParetoPoint, best_within_area_budget, latency_rank, pareto_front
from repro.core.sparse_hamming import SparseHammingGraph
from repro.experiments.runner import ExperimentResult, ResultSet
from repro.physical.model import NoCPhysicalModel
from repro.toolchain.results import PredictionResult
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError
from repro.viz.ascii_art import render_sparse_hamming_construction, render_topology
from repro.viz.floorplan_viz import render_channel_loads, render_floorplan


def _make_prediction(name, area, power, latency, throughput) -> PredictionResult:
    return PredictionResult(
        topology_name=name,
        area_overhead=area,
        total_area_mm2=100.0,
        noc_power_w=power,
        zero_load_latency_cycles=latency,
        saturation_throughput=throughput,
        performance_mode="analytical",
    )


class TestComplianceTable:
    def test_scenario_a_grid_excludes_slimnoc(self):
        table = compliance_table(8, 8)
        names = [row.topology_name for row in table]
        assert "SlimNoC" not in names
        assert "Sparse Hamming Graph" in names
        assert "2D Mesh" in names

    def test_scenario_c_grid_includes_slimnoc(self):
        table = compliance_table(8, 16, topology_names=("slimnoc", "mesh"))
        assert [row.topology_name for row in table] == ["SlimNoC", "2D Mesh"]

    def test_configuration_counts_match_table1(self):
        table = compliance_table(8, 8)
        by_name = {row.topology_name: row for row in table}
        assert by_name["2D Mesh"].configurations == 1
        assert by_name["Sparse Hamming Graph"].configurations == 2 ** (8 + 8 - 4)

    def test_formatting_contains_all_rows(self):
        table = compliance_table(4, 4)
        text = format_compliance_table(table)
        for row in table:
            assert row.topology_name in text

    def test_empty_table_formatting(self):
        assert "no applicable" in format_compliance_table([])


class TestPareto:
    def test_dominates(self):
        good = ParetoPoint("good", 0.1, 1.0, 10.0, 0.8)
        bad = ParetoPoint("bad", 0.2, 2.0, 20.0, 0.5)
        assert good.dominates(bad)
        assert not bad.dominates(good)

    def test_incomparable_points_both_on_front(self):
        cheap = ParetoPoint("cheap", 0.05, 1.0, 30.0, 0.2)
        fast = ParetoPoint("fast", 0.5, 10.0, 10.0, 0.9)
        front = pareto_front([cheap, fast])
        assert {p.name for p in front} == {"cheap", "fast"}

    def test_dominated_point_removed(self):
        a = ParetoPoint("a", 0.1, 1.0, 10.0, 0.8)
        b = ParetoPoint("b", 0.2, 2.0, 20.0, 0.5)
        c = ParetoPoint("c", 0.05, 0.5, 40.0, 0.1)
        front = pareto_front([a, b, c])
        assert {p.name for p in front} == {"a", "c"}

    def test_from_prediction(self):
        prediction = _make_prediction("x", 0.3, 5.0, 12.0, 0.6)
        point = ParetoPoint.from_prediction(prediction)
        assert point.name == "x"
        assert point.saturation_throughput == 0.6

    def test_best_within_budget_prefers_throughput_then_latency(self):
        predictions = [
            _make_prediction("cheap-slow", 0.10, 1.0, 30.0, 0.3),
            _make_prediction("good", 0.35, 5.0, 15.0, 0.7),
            _make_prediction("good-lower-latency", 0.39, 6.0, 12.0, 0.7),
            _make_prediction("too-expensive", 0.55, 9.0, 8.0, 0.9),
        ]
        best = best_within_area_budget(predictions, max_area_overhead=0.40)
        assert best is not None
        assert best.topology_name == "good-lower-latency"

    def test_best_within_budget_none_if_all_exceed(self):
        predictions = [_make_prediction("huge", 0.9, 1.0, 1.0, 1.0)]
        assert best_within_area_budget(predictions) is None

    def test_latency_rank(self):
        predictions = [
            _make_prediction("a", 0.1, 1, 30.0, 0.3),
            _make_prediction("b", 0.1, 1, 10.0, 0.3),
            _make_prediction("c", 0.1, 1, 20.0, 0.3),
        ]
        assert latency_rank(predictions, "b") == 1
        assert latency_rank(predictions, "c") == 2
        assert latency_rank(predictions, "a") == 3
        with pytest.raises(ValueError):
            latency_rank(predictions, "missing")


class TestDesignSpaceSweep:
    @staticmethod
    def _configurations(specs) -> set[tuple[frozenset[int], frozenset[int]]]:
        return {
            (frozenset(spec.topology_kwargs["s_r"]), frozenset(spec.topology_kwargs["s_c"]))
            for spec in specs
        }

    @staticmethod
    def _sample(s_r, s_c) -> DesignSpaceSample:
        """A hand-built sample whose metrics grow with the link count."""
        links = SparseHammingGraph(3, 4, s_r=s_r, s_c=s_c).num_links
        prediction = _make_prediction(
            "shg",
            area=links / 400.0,
            power=links * 0.01,
            latency=30.0 - links * 0.02,
            throughput=min(1.0, links / 300.0),
        )
        return DesignSpaceSample(
            s_r=frozenset(s_r), s_c=frozenset(s_c), num_links=links, prediction=prediction
        )

    def test_exhaustive_sweep_small_grid(self):
        specs = design_space_campaign(3, 4).specs
        assert len(specs) == 2 ** (3 + 4 - 4)
        configurations = self._configurations(specs)
        assert len(configurations) == len(specs)
        assert (frozenset(), frozenset()) in configurations

    def test_sampled_sweep_includes_endpoints(self):
        specs = design_space_campaign(8, 8, max_configurations=10, seed=3).specs
        assert len(specs) == 10
        configurations = self._configurations(specs)
        assert len(configurations) == 10
        assert (frozenset(), frozenset()) in configurations
        assert (frozenset(range(2, 8)), frozenset(range(2, 8))) in configurations

    def test_sweep_rejects_too_small_budget(self):
        with pytest.raises(ValidationError):
            design_space_campaign(8, 8, max_configurations=1)

    def test_sweep_turns_runner_results_into_samples(self):
        class LinkCountRunner:
            """Stand-in runner predicting from the link count of each spec."""

            def run(self, experiments, parallel=None):
                return ResultSet(
                    ExperimentResult(spec, self.predict(spec)) for spec in experiments
                )

            @staticmethod
            def predict(spec):
                links = spec.build_topology().num_links
                return _make_prediction("shg", links / 400.0, 1.0, 30.0, links / 300.0)

        samples = sweep_design_space(3, 4, runner=LinkCountRunner())
        specs = design_space_campaign(3, 4).specs
        assert len(samples) == len(specs) == 8
        for sample, spec in zip(samples, specs):
            assert sample.s_r == frozenset(spec.topology_kwargs["s_r"])
            assert sample.s_c == frozenset(spec.topology_kwargs["s_c"])
            assert sample.num_links == spec.build_topology().num_links
            assert sample.prediction.area_overhead == sample.num_links / 400.0

    def test_trade_off_curve_is_monotone(self):
        samples = [self._sample(s_r, s_c) for s_r, s_c in select_configurations(3, 4)]
        frontier = trade_off_curve(samples)
        assert frontier
        areas = [s.area_overhead for s in frontier]
        throughputs = [s.saturation_throughput for s in frontier]
        assert areas == sorted(areas)
        assert throughputs == sorted(throughputs)


class TestViz:
    def test_render_topology_contains_grid_cells(self):
        text = render_topology(MeshTopology(3, 3))
        assert "[0,0]" in text and "[2,2]" in text
        assert "2D Mesh" in text

    def test_render_topology_lists_long_links(self):
        text = render_topology(TorusTopology(4, 4))
        assert "long links" in text

    def test_render_construction_steps(self):
        text = render_sparse_hamming_construction(4, 5, {3}, {2})
        assert "step 1" in text
        assert "row links of length 3" in text
        assert "column links of length 2" in text

    def test_render_floorplan_and_channel_loads(self, small_params):
        result = NoCPhysicalModel(small_params).evaluate(TorusTopology(4, 4))
        floorplan_text = render_floorplan(result)
        assert "area overhead" in floorplan_text
        assert "chip:" in floorplan_text
        channel_text = render_channel_loads(result.global_routing)
        assert "H 0" in channel_text and "V 0" in channel_text
