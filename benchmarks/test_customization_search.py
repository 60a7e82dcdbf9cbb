"""Benchmark: the customization strategy of Section V-a.

Runs the automated five-step customization loop (greedy search over ``S_R`` /
``S_C`` under the 40% area budget) for scenario (a) and checks that it does
what the paper describes: it starts from the mesh, monotonically trades area
for performance, never exceeds the budget, and ends with a configuration that
clearly outperforms the mesh while remaining far cheaper than the flattened
butterfly.
"""

from repro.arch.knc import scenario
from repro.experiments.spec import ExperimentSpec
from repro.optimize.greedy import CustomizationGoal, customize_sparse_hamming
from repro.topologies.registry import make_topology

from conftest import BENCH_SIM_OVERRIDES, performance_mode, scenario_toolchain


def _run_customization():
    target = scenario("a")
    toolchain = scenario_toolchain(target)
    base = ExperimentSpec(
        topology="sparse_hamming",
        rows=target.rows,
        cols=target.cols,
        topology_kwargs={"endpoints_per_tile": target.cores_per_tile},
        scenario=target.key,
        performance_mode=performance_mode(),
        sim=BENCH_SIM_OVERRIDES,
    )
    result = customize_sparse_hamming(
        base, goal=CustomizationGoal(max_area_overhead=0.40), max_iterations=12
    )
    butterfly = toolchain.predict(
        make_topology("flattened_butterfly", target.rows, target.cols,
                      endpoints_per_tile=target.cores_per_tile)
    )
    return result, butterfly


def test_customization_scenario_a(benchmark, record_rows):
    result, butterfly = benchmark.pedantic(_run_customization, rounds=1, iterations=1)
    record_rows(
        "Customization strategy — scenario a (Section V-a)",
        [
            {
                "iteration": step.iteration,
                "action": step.action,
                "S_R": str(sorted(step.s_r)),
                "S_C": str(sorted(step.s_c)),
                "area overhead [%]": round(100 * step.area_overhead, 2),
                "power [W]": round(step.noc_power_w, 2),
                "latency [cycles]": round(step.zero_load_latency_cycles, 2),
                "throughput [%]": round(100 * step.saturation_throughput, 2),
            }
            for step in result.steps
        ],
    )

    start = result.steps[0]
    final = result.steps[-1]
    # Step 1 of the strategy: start with the mesh.
    assert start.s_r == frozenset() and start.s_c == frozenset()
    # The budget is respected at every accepted step.
    assert all(step.area_overhead <= 0.40 for step in result.steps)
    # The search improves throughput (priority 1) and latency (priority 2).
    assert final.saturation_throughput > start.saturation_throughput
    assert final.zero_load_latency_cycles < start.zero_load_latency_cycles
    # The customized topology is much cheaper than the flattened butterfly.
    assert final.area_overhead < butterfly.area_overhead
    # The customized configuration reaches at least the throughput the paper's
    # hand-picked configuration achieves (it explores the same space).
    toolchain = scenario_toolchain(scenario("a"))
    paper_config = toolchain.predict(
        make_topology("sparse_hamming", 8, 8, s_r={4}, s_c={2, 5})
    )
    assert final.saturation_throughput >= paper_config.saturation_throughput - 0.01
