#!/usr/bin/env python3
"""Customize a sparse Hamming graph for a target architecture (Section V-a).

This example runs the paper's five-step customization strategy for one of the
four KNC-like evaluation scenarios: starting from the mesh, skip links are
added greedily as long as they improve throughput (then latency) and the NoC
area overhead stays below 40%.  The architecture is an experiment spec; each
step of the search runs every candidate change as one batch of derived specs
through the experiment runner.

Run with:  python examples/customize_noc.py [scenario]      (default: a)
"""

import sys

from repro import (
    CustomizationGoal,
    ExperimentRunner,
    ExperimentSpec,
    customize_sparse_hamming,
)
from repro.arch import scenario


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "a"
    target = scenario(key)
    print(f"scenario {target.key}: {target.description}")
    print(f"paper's chosen configuration: S_R={sorted(target.paper_s_r)}, S_C={sorted(target.paper_s_c)}")
    print()

    # The base spec names the architecture and evaluation; the search fills
    # in S_R/S_C, starting from the mesh.
    base = ExperimentSpec(
        topology="sparse_hamming",
        rows=target.rows,
        cols=target.cols,
        scenario=key,
        topology_kwargs={"endpoints_per_tile": target.cores_per_tile},
    )
    goal = CustomizationGoal(max_area_overhead=0.40)
    result = customize_sparse_hamming(base, goal=goal, max_iterations=16)

    print("customization trace (each line = one accepted change):")
    for step in result.steps:
        print("  " + step.describe())
    print()
    print(f"final configuration: {result.topology.describe_configuration()}")
    print(f"  area overhead:          {result.prediction.area_overhead * 100:.1f}% (budget 40%)")
    print(f"  NoC power:              {result.prediction.noc_power_w:.2f} W")
    print(f"  zero-load latency:      {result.prediction.zero_load_latency_cycles:.1f} cycles")
    print(f"  saturation throughput:  {result.prediction.saturation_throughput * 100:.1f}%")
    print(f"  toolchain evaluations:  {result.evaluations}")

    # Cross-check against the configuration the paper reports, expressed as a
    # declarative experiment spec (scenario specs default to the paper's
    # S_R/S_C, so the spec body stays empty).
    paper_spec = ExperimentSpec(
        topology="sparse_hamming", rows=target.rows, cols=target.cols, scenario=key
    )
    paper = ExperimentRunner().run(paper_spec)[0].prediction
    print()
    print(f"paper's configuration (spec {paper_spec.spec_id}):")
    print(f"  area overhead:          {paper.area_overhead * 100:.1f}%")
    print(f"  saturation throughput:  {paper.saturation_throughput * 100:.1f}%")


if __name__ == "__main__":
    main()
