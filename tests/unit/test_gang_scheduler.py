"""Gang scheduler: grouping, fused-kernel bit-identity, runner integration.

The gang scheduler's contract is that fusing a campaign into batched vec
kernels is *invisible* in the results: every per-spec prediction — sweep
points, replay statistics, phase breakdowns, cached payload bytes — matches
the sequential path exactly.  These tests pin that contract from the
scheduler primitives up through ``ExperimentRunner.run``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import (
    DEFAULT_MAX_WIDTH,
    UNFUSABLE_ENGINES,
    gang_key,
    gang_key_id,
    plan_gangs,
    run_gang_detailed,
)
from repro.experiments.serialization import prediction_to_dict
from repro.experiments.spec import ExperimentSpec
from repro.utils.validation import ValidationError

#: Cycle counts small enough for unit tests, large enough to exercise the
#: warmup/measurement/drain phase machinery on every lane.
FAST_SIM = {"warmup_cycles": 40, "measurement_cycles": 120, "drain_max_cycles": 400}


def sim_spec(seed: int, engine: str = "vec", topology: str = "mesh",
             workload=None, **extra) -> ExperimentSpec:
    sim = {"engine": engine, "seed": seed, **FAST_SIM, **extra}
    return ExperimentSpec(
        topology=topology, rows=4, cols=4, performance_mode="simulation",
        sim=sim, workload=workload, label=f"s{seed}",
    )


def analytical_spec() -> ExperimentSpec:
    return ExperimentSpec(topology="mesh", rows=4, cols=4,
                          performance_mode="analytical")


def payload(prediction) -> str:
    return json.dumps(prediction_to_dict(prediction), sort_keys=True)


# --------------------------------------------------------------- grouping

def test_gang_key_groups_network_compatible_specs():
    a, b = sim_spec(1), sim_spec(2)
    assert gang_key(a) is not None
    assert gang_key(a) == gang_key(b)
    # A different router configuration compiles a different network.
    assert gang_key(sim_spec(3, num_vcs=2)) != gang_key(a)
    # A different topology never shares a compiled network.
    assert gang_key(sim_spec(4, topology="torus")) != gang_key(a)


def test_gang_key_excludes_unfusable_specs():
    assert gang_key(analytical_spec()) is None
    assert "sanitizer" in UNFUSABLE_ENGINES
    assert gang_key(sim_spec(1, engine="sanitizer")) is None


def test_gang_key_id_is_stable_and_none_for_unfusable():
    a, b = sim_spec(1), sim_spec(2)
    assert gang_key_id(a) == gang_key_id(b)
    assert gang_key_id(a).startswith("gang-")
    assert gang_key_id(analytical_spec()) is None
    assert gang_key_id(sim_spec(3, topology="torus")) != gang_key_id(a)


def test_plan_gangs_filters_engines_and_singletons():
    mesh = [sim_spec(i) for i in range(1, 4)]
    torus = [sim_spec(9, topology="torus")]  # singleton: not worth fusing
    soa = [sim_spec(5, engine="soa"), sim_spec(6, engine="soa")]
    gangs = plan_gangs(mesh + torus + soa + [analytical_spec()])
    assert gangs == [mesh]


# --------------------------------------------------------- fused execution

def test_run_gang_matches_sequential_bit_for_bit():
    specs = [
        sim_spec(1),
        sim_spec(2),
        sim_spec(3, workload={"name": "onoff", "seed": 5}),
    ]
    fused, _ = run_gang_detailed(specs)
    sequential = [spec.run() for spec in specs]
    for spec, got, want in zip(specs, fused, sequential):
        assert payload(got) == payload(want), spec.label
    # The live statistics objects agree too, phase breakdowns included.
    for (_, got_stats), (_, want_stats) in zip(
        fused[0].details["sweep_points"], sequential[0].details["sweep_points"]
    ):
        assert asdict(got_stats) == asdict(want_stats)
    assert asdict(fused[2].details["replay"]) == asdict(
        sequential[2].details["replay"]
    )


def test_run_gang_rejects_incompatible_specs():
    with pytest.raises(ValidationError):
        run_gang_detailed([sim_spec(1), sim_spec(2, topology="torus")])
    with pytest.raises(ValidationError):
        run_gang_detailed([analytical_spec()])


def test_run_gang_lane_recycling_is_width_invariant():
    """A narrow kernel drains lanes in a different order; results must not move."""
    specs = [sim_spec(seed) for seed in (11, 7, 23)]
    wide, wide_lanes = run_gang_detailed(specs, max_width=DEFAULT_MAX_WIDTH)
    # 3 probes + 3 six-lane coarse rounds + 9 bisection midpoints.
    assert wide_lanes == 30
    for width in (1, 2, 3):
        narrow, narrow_lanes = run_gang_detailed(specs, max_width=width)
        assert narrow_lanes == wide_lanes == 30
        for spec, got, want in zip(specs, narrow, wide):
            assert payload(got) == payload(want), (width, spec.label)


# ------------------------------------------------------ runner integration

def test_runner_gang_cache_files_are_byte_identical(tmp_path):
    """vec-ganged campaign writes the same cache bytes as vec-sequential."""
    specs = [sim_spec(seed) for seed in (1, 2, 3)]

    seq_dir, gang_dir = tmp_path / "seq", tmp_path / "gang"
    seq_runner = ExperimentRunner(cache_dir=seq_dir)
    for spec in specs:  # one spec per call: no gang forms
        seq_runner.run([spec])
    ExperimentRunner(cache_dir=gang_dir).run(specs)

    seq_files = sorted(p.name for p in seq_dir.glob("exp-*.json"))
    gang_files = sorted(p.name for p in gang_dir.glob("exp-*.json"))
    assert seq_files == gang_files and len(seq_files) == len(specs)
    for name in seq_files:
        assert (seq_dir / name).read_bytes() == (gang_dir / name).read_bytes()


def test_runner_gang_cache_serves_other_engines(tmp_path):
    """Ganged vec results hit the cache for engine-distinct twins of the specs."""
    vec_specs = [sim_spec(seed) for seed in (1, 2, 3)]
    soa_specs = [spec.with_overrides(sim={**spec.sim, "engine": "soa"})
                 for spec in vec_specs]
    runner = ExperimentRunner(cache_dir=tmp_path / "cache")
    batch = runner.run(vec_specs)
    assert batch.num_cached == 0
    again = runner.run(soa_specs)
    assert again.num_cached == len(soa_specs)
    for got, want in zip(again.results, batch.results):
        assert payload(got.prediction) == payload(want.prediction)


def test_runner_parallel_gangs_match_serial(tmp_path):
    specs = [sim_spec(seed) for seed in (1, 2)] + [
        sim_spec(9, topology="torus"),  # singleton: runs solo
        analytical_spec(),
    ]
    serial = ExperimentRunner(cache_dir=tmp_path / "a").run(specs)
    parallel = ExperimentRunner(cache_dir=tmp_path / "b").run(specs, parallel=2)
    for spec, got, want in zip(specs, parallel.results, serial.results):
        assert payload(got.prediction) == payload(want.prediction), spec.label
