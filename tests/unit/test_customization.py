"""Unit tests for the customization strategy (Section V-a)."""

import pytest

from repro.experiments.runner import ExperimentResult, ExperimentRunner, ResultSet
from repro.experiments.spec import ExperimentSpec
from repro.optimize.greedy import CustomizationGoal, customize_sparse_hamming
from repro.toolchain.results import PredictionResult
from repro.utils.validation import ValidationError


def fake_prediction(area, power, latency, throughput) -> PredictionResult:
    return PredictionResult(
        topology_name="fake",
        area_overhead=area,
        total_area_mm2=100.0,
        noc_power_w=power,
        zero_load_latency_cycles=latency,
        saturation_throughput=throughput,
        performance_mode="analytical",
    )


class LinkCountRunner:
    """A deterministic stand-in for the experiment runner.

    Cost (area) grows linearly with the number of links; throughput grows but
    saturates; latency falls with the diameter.  This captures the qualitative
    shape of the real toolchain while keeping tests instantaneous.  ``calls``
    records the specs of every ``run``.
    """

    def __init__(self, budget_links: int = 400) -> None:
        self.budget_links = budget_links
        self.calls: list[list[ExperimentSpec]] = []

    def run(self, specs) -> ResultSet:
        self.calls.append(list(specs))
        return ResultSet(ExperimentResult(spec, self._predict(spec)) for spec in specs)

    def _predict(self, spec: ExperimentSpec) -> PredictionResult:
        topology = spec.build_topology()
        links = topology.num_links
        return fake_prediction(
            area=links / self.budget_links,
            power=links * 0.05,
            latency=5.0 + 2.0 * topology.diameter(),
            throughput=min(1.0, 0.1 + links / 500.0),
        )


def shg(rows: int, cols: int, **fields) -> ExperimentSpec:
    return ExperimentSpec(topology="sparse_hamming", rows=rows, cols=cols, **fields)


def customize(base: ExperimentSpec, budget_links: int = 400, **kwargs):
    return customize_sparse_hamming(base, runner=LinkCountRunner(budget_links), **kwargs)


#: A 4x4 chip whose mesh fits the 40% budget with room for skip links.
SMALL_ARCH = {"endpoint_area_ge": 20e6, "link_bandwidth_bits": 512}


class TestCustomizationGoal:
    def test_defaults_match_paper(self):
        goal = CustomizationGoal()
        assert goal.max_area_overhead == pytest.approx(0.40)

    def test_feasibility(self):
        goal = CustomizationGoal(max_area_overhead=0.4)
        assert goal.is_feasible(fake_prediction(0.39, 1, 1, 1))
        assert not goal.is_feasible(fake_prediction(0.41, 1, 1, 1))

    def test_improvement_prefers_throughput(self):
        goal = CustomizationGoal()
        old = fake_prediction(0.1, 1, 20.0, 0.30)
        better_throughput = fake_prediction(0.2, 2, 25.0, 0.40)
        assert goal.is_improvement(old, better_throughput)

    def test_improvement_ties_broken_by_latency(self):
        goal = CustomizationGoal()
        old = fake_prediction(0.1, 1, 20.0, 0.300)
        same_throughput_lower_latency = fake_prediction(0.2, 2, 15.0, 0.301)
        same_throughput_higher_latency = fake_prediction(0.2, 2, 25.0, 0.301)
        assert goal.is_improvement(old, same_throughput_lower_latency)
        assert not goal.is_improvement(old, same_throughput_higher_latency)

    def test_rejects_invalid_budget(self):
        with pytest.raises(ValidationError):
            CustomizationGoal(max_area_overhead=1.5)


class TestCustomizeSparseHamming:
    def test_starts_from_mesh(self):
        result = customize(shg(6, 6), max_iterations=1)
        assert result.steps[0].action == "start (mesh)"
        assert result.steps[0].s_r == frozenset()
        assert result.steps[0].s_c == frozenset()

    def test_never_exceeds_area_budget(self):
        goal = CustomizationGoal(max_area_overhead=0.40)
        result = customize(shg(8, 8), budget_links=500, goal=goal, max_iterations=20)
        assert result.prediction.area_overhead <= 0.40
        for step in result.steps:
            assert step.area_overhead <= 0.40

    def test_improves_over_mesh(self):
        result = customize(shg(8, 8), max_iterations=10)
        start = result.steps[0]
        final = result.steps[-1]
        assert final.saturation_throughput >= start.saturation_throughput
        assert final.zero_load_latency_cycles <= start.zero_load_latency_cycles

    def test_stops_when_no_improvement_possible(self):
        # With a tiny budget no link can ever be added.
        goal = CustomizationGoal(max_area_overhead=0.05)
        result = customize(shg(8, 8), budget_links=500, goal=goal, max_iterations=10)
        # Mesh has 112 links -> area 0.224 > 0.05: even the mesh is infeasible,
        # so the search reports the mesh itself.
        assert result.topology.is_mesh()
        assert len(result.steps) == 1

    def test_respects_max_iterations(self):
        result = customize(shg(8, 8), budget_links=2000, max_iterations=3)
        # One start step plus at most three accepted changes.
        assert len(result.steps) <= 4

    def test_rejects_bad_max_iterations(self):
        with pytest.raises(ValidationError):
            customize(shg(4, 4), max_iterations=0)

    def test_evaluation_count_reported(self):
        result = customize(shg(6, 6), max_iterations=2)
        assert result.evaluations >= len(result.steps)

    def test_each_step_is_one_runner_call(self):
        runner = LinkCountRunner()
        result = customize_sparse_hamming(shg(6, 6), runner=runner, max_iterations=2)
        # The mesh, then one call per iteration with the 8 moves of a 6x6 grid;
        # the second iteration's removal move returns to the mesh, which the
        # first call already evaluated.
        mesh, first, second = runner.calls
        assert (len(mesh), len(first), len(second)) == (1, 8, 7)
        assert result.evaluations == 1 + 8 + 8
        assert all(spec.topology == "sparse_hamming" for specs in runner.calls for spec in specs)

    def test_no_configuration_reaches_the_runner_twice(self):
        runner = LinkCountRunner()
        result = customize_sparse_hamming(shg(8, 8), runner=runner, max_iterations=12)
        spec_ids = [spec.spec_id for specs in runner.calls for spec in specs]
        assert len(spec_ids) == len(set(spec_ids))
        # Removal moves did revisit configurations: evaluations count moves.
        assert result.evaluations > len(spec_ids)

    def test_endpoints_per_tile_propagated(self):
        base = shg(4, 4, topology_kwargs={"endpoints_per_tile": 2})
        result = customize(base, max_iterations=1)
        assert result.topology.endpoints_per_tile == 2

    def test_step_describe_is_readable(self):
        result = customize(shg(6, 6), max_iterations=2)
        text = result.steps[-1].describe()
        assert "S_R=" in text and "area=" in text and "thr=" in text

    def test_result_exposes_final_parameters(self):
        result = customize(shg(6, 6), max_iterations=5)
        assert result.s_r == result.topology.s_r
        assert result.s_c == result.topology.s_c
        assert (result.s_r, result.s_c) == (result.steps[-1].s_r, result.steps[-1].s_c)

    def test_rejects_other_topologies(self):
        with pytest.raises(ValidationError, match="sparse_hamming"):
            customize(ExperimentSpec(topology="mesh", rows=4, cols=4))

    @pytest.mark.parametrize("kwargs", [{"s_r": [2]}, {"s_c": []}])
    def test_rejects_a_base_configuration(self, kwargs):
        with pytest.raises(ValidationError, match="mesh"):
            customize(shg(4, 4, topology_kwargs=kwargs))


class TestCustomizationOnTheRunner:
    def test_analytical_run_reaches_a_skip_link(self):
        result = customize_sparse_hamming(shg(4, 4, arch=SMALL_ARCH), max_iterations=4)
        assert not result.topology.is_mesh()
        assert result.prediction.area_overhead <= 0.40
        assert result.prediction.performance_mode == "analytical"

    def test_second_run_is_served_from_the_store(self, tmp_path):
        class RecordingRunner(ExperimentRunner):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.results = []

            def run(self, experiments, **kwargs):
                results = super().run(experiments, **kwargs)
                self.results.append(results)
                return results

        base = shg(4, 4, arch=SMALL_ARCH)
        runs = []
        for _ in range(2):
            runner = RecordingRunner(store=tmp_path / "results.sqlite")
            runs.append((customize_sparse_hamming(base, max_iterations=4, runner=runner), runner))
        (first, first_runner), (second, second_runner) = runs
        assert first_runner.results[0].num_cached == 0
        # Every step of the second run comes from the store: nothing is computed.
        assert all(results.num_cached == len(results) for results in second_runner.results)
        assert second.evaluations == first.evaluations
        assert [len(results) for results in second_runner.results] == [
            len(results) for results in first_runner.results
        ]
        assert second.steps == first.steps
