"""Integration tests of campaign execution and memoization in the store.

The acceptance criteria of the experiment API: a campaign reproduces the
same prediction values as direct ``PredictionToolchain.predict`` calls, and a
second run of the same campaign is served entirely from the result store.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    Campaign,
    ExperimentRunner,
    ExperimentSpec,
    figure6_campaign,
)
from repro.physical.parameters import ArchitecturalParameters
from repro.toolchain.predict import PredictionToolchain
from repro.topologies.registry import make_topology

METRICS = (
    "area_overhead",
    "total_area_mm2",
    "noc_power_w",
    "zero_load_latency_cycles",
    "saturation_throughput",
)


def small_campaign() -> Campaign:
    return Campaign.grid(
        topologies=("mesh", "torus", "hypercube", "sparse_hamming"),
        sizes=((4, 4),),
        traffics=("uniform", "tornado"),
        topology_kwargs={"sparse_hamming": {"s_r": [2], "s_c": [2]}},
        arch={"endpoint_area_ge": 5e6},
        name="small",
    )


def test_campaign_matches_direct_toolchain_calls():
    campaign = small_campaign()
    results = ExperimentRunner().run(campaign)
    assert len(results) == len(campaign)

    params = ArchitecturalParameters(num_tiles=16, endpoint_area_ge=5e6, name="experiment")
    for result in results:
        spec = result.spec
        kwargs = {}
        if spec.topology == "sparse_hamming":
            kwargs = {"s_r": {2}, "s_c": {2}}
        topology = make_topology(spec.topology, spec.rows, spec.cols, **kwargs)
        direct = PredictionToolchain(params, traffic=spec.traffic).predict(topology)
        for metric in METRICS:
            assert getattr(result.prediction, metric) == pytest.approx(
                getattr(direct, metric)
            ), (spec.describe(), metric)


def test_second_run_hits_on_disk_cache(tmp_path):
    campaign = small_campaign()
    runner = ExperimentRunner(store=tmp_path / "results.sqlite")

    first = runner.run(campaign)
    assert first.num_cached == 0
    assert len(runner.store) == len(campaign)

    second = runner.run(campaign)
    assert second.num_cached == len(campaign)
    for a, b in zip(first, second):
        assert a.spec.spec_id == b.spec.spec_id
        for metric in METRICS:
            assert getattr(a.prediction, metric) == pytest.approx(
                getattr(b.prediction, metric)
            )


def test_cache_is_shared_between_runner_instances(tmp_path):
    spec = ExperimentSpec(
        topology="mesh", rows=4, cols=4, arch={"endpoint_area_ge": 5e6}
    )
    first = ExperimentRunner(store=tmp_path / "results.sqlite").run(spec)
    assert not first[0].cached
    second = ExperimentRunner(store=tmp_path / "results.sqlite").run(spec)
    assert second[0].cached


def test_parallel_run_matches_serial(tmp_path):
    campaign = Campaign.grid(
        topologies=("mesh", "torus", "sparse_hamming"),
        sizes=((4, 4),),
        topology_kwargs={"sparse_hamming": {"s_r": [2], "s_c": [2]}},
        arch={"endpoint_area_ge": 5e6},
    )
    serial = ExperimentRunner().run(campaign)
    parallel = ExperimentRunner(store=tmp_path / "results.sqlite").run(
        campaign, parallel=2
    )
    for a, b in zip(serial, parallel):
        assert a.spec == b.spec
        for metric in METRICS:
            assert getattr(a.prediction, metric) == pytest.approx(
                getattr(b.prediction, metric)
            )


def test_duplicate_specs_run_once(tmp_path):
    spec = ExperimentSpec(topology="mesh", rows=4, cols=4, arch={"endpoint_area_ge": 5e6})
    runner = ExperimentRunner(store=tmp_path / "results.sqlite")
    results = runner.run([spec, spec.with_overrides(label="twin")])
    assert len(results) == 2
    assert results[0].prediction.area_overhead == results[1].prediction.area_overhead
    assert len(runner.store) == 1


def test_figure6_campaign_reproduces_benchmark_claims(tmp_path):
    # The Figure 6a panel through the declarative path: the paper's headline
    # claim (best topology within the 40% budget is the SHG) must hold.
    results = ExperimentRunner(store=tmp_path / "results.sqlite").run(
        figure6_campaign("a")
    )
    best = results.best_within_area_budget(0.40)
    assert best is not None
    assert best.topology_name == "Sparse Hamming Graph"
    rerun = ExperimentRunner(store=tmp_path / "results.sqlite").run(
        figure6_campaign("a")
    )
    assert rerun.num_cached == len(rerun)
