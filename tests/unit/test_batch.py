"""Batched simulation: ``run_batch`` and ``run_plans`` vs sequential runs.

The vec engine's batch axis fuses many (seed, load-point) runs of one
compiled network into a single kernel.  Batching must be *purely* a
scheduling change: every lane's :class:`SimulationStats` must be identical,
field for field, to the same configuration run alone — through the vec
engine and therefore (by the differential suite) through every engine.
These tests pin that contract, the sweep fast paths that rely on it, and
the batch-construction validation.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.simulator.sweep as sweep_module
from repro.simulator.engine import vec as vec_module
from repro.simulator.network import build_network
from repro.simulator.simulation import SimulationConfig, Simulator
from repro.simulator.sweep import (
    find_saturation_throughput,
    replay_trace,
    run_batch,
    run_load_sweep,
)
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError
from repro.workloads import make_workload_trace


def _stats_dict(stats):
    return dataclasses.asdict(stats)


@pytest.fixture
def kernel_lanes(monkeypatch):
    """The lanes of every ``run_batched`` kernel, one list per kernel."""
    kernels = []
    original = sweep_module.run_batched

    def recording(engines, pending=(), on_finish=None):
        kernels.append(list(engines) + list(pending))
        return original(engines, pending=pending, on_finish=on_finish)

    monkeypatch.setattr(sweep_module, "run_batched", recording)
    return kernels


@pytest.fixture
def kernel_widths(monkeypatch):
    """The batch width of every ``_VecKernel`` built."""
    widths = []
    original = vec_module._VecKernel.__init__

    def recording(self, network, lanes):
        widths.append(len(lanes))
        original(self, network, lanes)

    monkeypatch.setattr(vec_module._VecKernel, "__init__", recording)
    return widths


def _config(**overrides):
    base = dict(
        injection_rate=0.08,
        warmup_cycles=40,
        measurement_cycles=120,
        drain_max_cycles=600,
        num_vcs=4,
        buffer_depth_flits=2,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_batched_lanes_match_sequential_runs():
    # Mixed rates x seeds x traffic in one batch: every lane must equal its
    # solo vec run (and, transitively, its solo run under any engine).
    topology = MeshTopology(4, 4)
    configs = [
        _config(injection_rate=rate, seed=seed, traffic=traffic)
        for rate, seed, traffic in [
            (0.02, 1, "uniform"),
            (0.10, 2, "transpose"),
            (0.30, 3, "uniform"),
            (0.10, 2, "tornado"),
        ]
    ]
    batched = run_batch(topology, configs)
    assert len(batched) == len(configs)
    for config, stats in zip(configs, batched):
        solo = Simulator(topology, dataclasses.replace(config, engine="vec")).run()
        assert _stats_dict(stats) == _stats_dict(solo), f"lane {config} diverged"


def test_batched_lanes_match_reference_engine():
    topology = TorusTopology(3, 3)
    configs = [_config(injection_rate=r, seed=s) for r, s in [(0.05, 1), (0.2, 9)]]
    batched = run_batch(topology, configs)
    for config, stats in zip(configs, batched):
        solo = Simulator(topology, dataclasses.replace(config, engine="reference")).run()
        assert _stats_dict(stats) == _stats_dict(solo)


def test_batch_mixes_trace_and_synthetic_lanes():
    topology = MeshTopology(4, 4)
    trace = make_workload_trace(
        "stencil2d", 4, 4, seed=5, iterations=2, iteration_window=20
    )
    replay_config = SimulationConfig(
        num_vcs=4, buffer_depth_flits=2, drain_max_cycles=2000, seed=1
    )
    synth_config = _config(injection_rate=0.06, seed=11)
    batched = run_batch(
        topology,
        [replay_config, synth_config],
        traces=[trace, None],
    )
    solo_replay = replay_trace(
        topology, trace, config=dataclasses.replace(replay_config, engine="vec")
    )
    solo_synth = Simulator(
        topology, dataclasses.replace(synth_config, engine="vec")
    ).run()
    assert _stats_dict(batched[0]) == _stats_dict(solo_replay)
    assert _stats_dict(batched[1]) == _stats_dict(solo_synth)
    # The trace lane carries per-phase statistics through the batch too.
    assert batched[0].phases


def test_batch_ignores_lane_engine_field(kernel_lanes):
    # The fused kernel is the vec engine; lanes asking for other (bit-
    # identical) engines are batched anyway.
    topology = MeshTopology(3, 3)
    configs = [_config(engine="reference"), _config(engine="soa", seed=8)]
    batched = run_batch(topology, configs)
    (lanes,) = kernel_lanes
    assert all(lane.config.engine == "vec" for lane in lanes)
    for config, stats in zip(configs, batched):
        assert _stats_dict(stats) == _stats_dict(Simulator(topology, config).run())


def test_batch_shares_prebuilt_network(kernel_lanes):
    topology = MeshTopology(3, 3)
    config = _config()
    network = build_network(topology, config=config.network_config())
    run_batch(topology, [config, _config(seed=2)], network=network)
    (lanes,) = kernel_lanes
    assert len(lanes) == 2
    assert all(lane.network is network for lane in lanes)


def test_batch_rejects_empty_and_mismatched_inputs():
    topology = MeshTopology(3, 3)
    with pytest.raises(ValidationError):
        run_batch(topology, [])
    with pytest.raises(ValidationError, match="router/network parameters"):
        run_batch(topology, [_config(num_vcs=4), _config(num_vcs=2)])
    with pytest.raises(ValidationError, match="parallel"):
        run_batch(topology, [_config()], traces=[None, None])


def test_run_load_sweep_vec_fast_path_matches_sequential():
    topology = MeshTopology(4, 4)
    rates = [0.02, 0.08, 0.14]
    base = _config()
    sequential = run_load_sweep(
        topology, rates, config=dataclasses.replace(base, engine="reference")
    )
    batched = run_load_sweep(
        topology, rates, config=dataclasses.replace(base, engine="vec")
    )
    assert [rate for rate, _ in batched] == rates
    for (rate_a, stats_a), (rate_b, stats_b) in zip(sequential, batched):
        assert rate_a == rate_b
        assert _stats_dict(stats_a) == _stats_dict(stats_b)


def test_find_saturation_vec_fast_path_matches_sequential():
    # The batched coarse stage trims to the points the sequential loop
    # visited, so the whole LoadSweepResult — saturation estimate, probe
    # latency and the points list — must be identical across engines.
    topology = MeshTopology(4, 4)
    base = _config(measurement_cycles=100, drain_max_cycles=400)
    sequential = find_saturation_throughput(
        topology,
        config=dataclasses.replace(base, engine="reference"),
        coarse_steps=4,
        refine_steps=2,
    )
    batched = find_saturation_throughput(
        topology,
        config=dataclasses.replace(base, engine="vec"),
        coarse_steps=4,
        refine_steps=2,
    )
    assert batched.saturation_throughput == sequential.saturation_throughput
    assert batched.zero_load_latency == sequential.zero_load_latency
    assert [rate for rate, _ in batched.points] == [
        rate for rate, _ in sequential.points
    ]
    for (_, stats_a), (_, stats_b) in zip(sequential.points, batched.points):
        assert _stats_dict(stats_a) == _stats_dict(stats_b)


def test_solo_vec_search_runs_coarse_round_in_one_six_lane_kernel(kernel_widths):
    # The probe runs alone; once it drains, the whole coarse round starts a
    # new kernel six lanes wide instead of queueing behind a one-lane one.
    topology = MeshTopology(4, 4)
    base = _config(engine="vec", measurement_cycles=100, drain_max_cycles=400)
    find_saturation_throughput(topology, config=base, coarse_steps=6, refine_steps=3)
    # probe, coarse round, three bisection midpoints
    assert kernel_widths == [1, 6, 1, 1, 1]
