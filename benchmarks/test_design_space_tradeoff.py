"""Benchmark: the sparse-Hamming-graph design space spans mesh -> flattened butterfly.

Section III of the paper argues that the sparse Hamming graph spans the design
space between the 2D mesh (low cost) and the flattened butterfly (high
performance), with `2^(R+C-4)` configurations in between.  This benchmark
samples the configuration space of scenario (a), computes the cost/performance
trade-off frontier, and checks that (i) the mesh and the flattened butterfly
are its end points and (ii) the frontier is monotone: spending more area never
reduces the achievable saturation throughput.
"""

from repro.analysis.design_space import sweep_design_space, trade_off_curve
from repro.arch.knc import scenario

from conftest import BENCH_SIM_OVERRIDES, performance_mode


def _sweep():
    target = scenario("a")
    samples = sweep_design_space(
        target.rows,
        target.cols,
        scenario=target.key,
        sim=BENCH_SIM_OVERRIDES,
        performance_mode=performance_mode(),
        endpoints_per_tile=target.cores_per_tile,
        max_configurations=24,
        seed=7,
    )
    return samples, trade_off_curve(samples)


def test_design_space_tradeoff(benchmark, record_rows):
    samples, frontier = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_rows(
        "Design-space sweep — scenario a (24 sampled configurations, frontier only)",
        [
            {
                "S_R": str(sorted(sample.s_r)),
                "S_C": str(sorted(sample.s_c)),
                "links": sample.num_links,
                "area overhead [%]": round(100 * sample.area_overhead, 2),
                "latency [cycles]": round(sample.prediction.zero_load_latency_cycles, 2),
                "throughput [%]": round(100 * sample.saturation_throughput, 2),
            }
            for sample in frontier
        ],
    )

    # The sampled sweep always contains the two end points of the design space.
    configurations = {(s.s_r, s.s_c) for s in samples}
    mesh = (frozenset(), frozenset())
    butterfly = (frozenset(range(2, 8)), frozenset(range(2, 8)))
    assert mesh in configurations and butterfly in configurations

    # The frontier is monotone: more area never buys less throughput.
    areas = [s.area_overhead for s in frontier]
    throughputs = [s.saturation_throughput for s in frontier]
    assert areas == sorted(areas)
    assert throughputs == sorted(throughputs)

    # The cheapest frontier point is the mesh; the densest configurations reach
    # the flattened butterfly's throughput level.
    assert frontier[0].s_r == frozenset() and frontier[0].s_c == frozenset()
    assert frontier[-1].saturation_throughput >= 0.7
