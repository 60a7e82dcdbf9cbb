"""Build scope: every derived artifact is built once per entry-point call.

A prediction's artifacts — topology, physical-model result, routing tables
and workload trace — are derived from the spec's content.
:class:`~repro.experiments.scheduler.SharedBuilds` builds each of them once
per content key for the specs of one call (one ``runner.run``, one
``run_search``) and drops it after its last user.  These tests count the
builders' calls through every module that imported them, and pin that the
scope changes no result byte.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import weakref

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import SharedBuilds
from repro.experiments.serialization import prediction_to_dict
from repro.experiments.spec import ExperimentSpec
from repro.optimize import SearchSpec, run_search
from repro.optimize import search as search_module
from repro.physical.model import NoCPhysicalModel
from repro.service.queue import WorkQueue
from repro.service.store import ResultStore
from repro.service.worker import run_worker

FAST_SIM = {"warmup_cycles": 40, "measurement_cycles": 120, "drain_max_cycles": 400}
DNN = {
    "name": "dnn_inference",
    "seed": 3,
    "params": {"layers": 2, "layer_window": 64, "activations_per_tile": 1, "fan_out": 2},
}
SEARCH = SearchSpec(
    rows=4,
    cols=4,
    space={"mesh": {}, "torus": {}, "sparse_hamming": {"max_configurations": 3}},
    objective={"metric": "workload_latency", "workload": DNN},
    sim={"drain_max_cycles": 2000},
    survivors=2,
    baseline="mesh",
)


def _patch_everywhere(monkeypatch, module_name: str, name: str, wrapper) -> None:
    """Replace ``module.name`` in every ``repro`` module that imported it."""
    original = getattr(importlib.import_module(module_name), name)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, key, wrapper(original))


@pytest.fixture
def calls(monkeypatch):
    """Per builder, the inputs of every call made while the test runs.

    Topologies are kept alive by the record, so ``id()`` identifies them.
    """
    recorded = {"topology": [], "physical": [], "routing": [], "trace": []}

    def topology(original):
        def build(name, rows, cols, **kwargs):
            built = original(name, rows, cols, **kwargs)
            key = (name, rows, cols, json.dumps(kwargs, sort_keys=True, default=sorted))
            recorded["topology"].append((key, built))
            return built

        return build

    def routing(original):
        def build(topology):
            recorded["routing"].append(topology)
            return original(topology)

        return build

    def trace(original):
        def build(workload, rows, cols):
            recorded["trace"].append((json.dumps(workload, sort_keys=True), rows, cols))
            return original(workload, rows, cols)

        return build

    evaluate = NoCPhysicalModel.evaluate

    def counted_evaluate(model, topology):
        recorded["physical"].append((model.params, topology))
        return evaluate(model, topology)

    _patch_everywhere(monkeypatch, "repro.topologies.registry", "make_topology", topology)
    _patch_everywhere(
        monkeypatch, "repro.simulator.routing_tables", "build_routing_tables", routing
    )
    _patch_everywhere(
        monkeypatch, "repro.workloads.generators", "workload_trace_from_mapping", trace
    )
    monkeypatch.setattr(NoCPhysicalModel, "evaluate", counted_evaluate)
    return recorded


def _once_each(items, key=id) -> bool:
    keys = [key(item) for item in items]
    return len(keys) == len(set(keys))


def sim_spec(seed: int, **overrides) -> ExperimentSpec:
    fields = dict(
        topology="mesh", rows=4, cols=4, performance_mode="simulation",
        sim={"seed": seed, **FAST_SIM},
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def payload(prediction) -> str:
    return json.dumps(prediction_to_dict(prediction), sort_keys=True)


# ------------------------------------------------------------- build counts

def test_search_builds_each_artifact_once(calls):
    candidates = SEARCH.build_space().enumerate_candidates()
    assert any(candidate.topology == "mesh" for candidate in candidates)
    run_search(SEARCH)
    topologies = [built for _, built in calls["topology"]]
    # Every candidate (the mesh baseline among them) is built exactly once...
    assert len(topologies) == len(candidates)
    assert _once_each(calls["topology"], key=lambda call: call[0])
    # ...and its physical result and routing tables once, from that object.
    built = {id(topology) for topology in topologies}
    assert len(calls["physical"]) == len(calls["routing"]) == len(candidates)
    assert _once_each(calls["physical"], key=lambda call: id(call[1]))
    assert {id(topology) for _, topology in calls["physical"]} == built
    assert _once_each(calls["routing"])
    assert {id(topology) for topology in calls["routing"]} == built
    # One trace serves screening, the rungs and the baseline.
    assert len(calls["trace"]) == 1


def test_runner_builds_routing_once_for_traffic_variants(calls):
    base = ExperimentSpec("mesh", 4, 4, arch={"endpoint_area_ge": 5e6})
    specs = [base.with_overrides(traffic=t) for t in ("uniform", "tornado", "transpose")]
    results = ExperimentRunner().run(specs)
    assert len({result.spec.spec_id for result in results}) == 3
    assert len(calls["routing"]) == 1
    assert len(calls["topology"]) == 1
    assert len(calls["physical"]) == 1


def test_consecutive_runs_build_again(calls):
    specs = [sim_spec(1, traffic="uniform"), sim_spec(1, traffic="tornado")]
    runner = ExperimentRunner()
    runner.run(specs)
    first = {name: len(made) for name, made in calls.items()}
    runner.run(specs)
    assert first["topology"] == first["routing"] == first["physical"] == 1
    assert {name: len(made) for name, made in calls.items()} == {
        name: 2 * count for name, count in first.items()
    }


def test_stored_trace_id_is_the_replayed_trace(calls, tmp_path):
    spec = sim_spec(2, workload=DNN)
    store = ResultStore(tmp_path / "results.sqlite")
    ExperimentRunner(store=store).run(spec)
    # The runner hands the trace its unit replayed to the store.
    assert len(calls["trace"]) == 1
    (row,) = store.query(spec_id=spec.spec_id)
    assert row.trace_id == spec.build_workload_trace().trace_id


def test_worker_generates_a_job_trace_once(calls, tmp_path):
    spec = sim_spec(2, workload={"name": "onoff", "seed": 1, "params": {"duration": 64}})
    queue = WorkQueue(tmp_path / "store.sqlite")
    queue.enqueue(spec)
    assert run_worker(queue, worker_id="w").computed == 1
    # The worker stores the trace its unit replayed instead of regenerating it.
    assert len(calls["trace"]) == 1
    (row,) = queue.store.query(spec_id=spec.spec_id)
    assert row.trace_id == spec.build_workload_trace().trace_id


def test_worker_reruns_reuse_the_fused_attempts_builds(calls, tmp_path, monkeypatch):
    import repro.service.worker as worker_module

    run_unit = worker_module.run_unit

    def build_then_fail(specs, builds):
        if len(specs) > 1:
            for spec in specs:
                builds.physical(spec)
                builds.routing(spec)
            raise RuntimeError("fused kernel blew up")
        return run_unit(specs, builds)

    monkeypatch.setattr(worker_module, "run_unit", build_then_fail)
    queue = WorkQueue(tmp_path / "store.sqlite")
    specs = [sim_spec(seed, sim={"engine": "vec", "seed": seed, **FAST_SIM}) for seed in (1, 2)]
    for spec in specs:
        queue.enqueue(spec)
    stats = run_worker(queue, worker_id="w", batch_size=2)
    assert stats.fused_fallbacks == 1 and stats.computed == 2
    # Both specs share one topology: the fused attempt built it, the reruns reused it.
    assert len(calls["topology"]) == len(calls["physical"]) == len(calls["routing"]) == 1
    for spec in specs:
        assert queue.store.get(spec.spec_id).result == prediction_to_dict(spec.run())


# ------------------------------------------------------- screening is bounded

def test_screening_keeps_only_the_survivors_artifacts(monkeypatch):
    import repro.experiments.spec as spec_module

    built: dict[tuple, weakref.ref] = {}
    make = spec_module.make_topology

    def tracked(name, rows, cols, **kwargs):
        topology = make(name, rows, cols, **kwargs)
        built[(name, json.dumps(kwargs, sort_keys=True, default=sorted))] = weakref.ref(
            topology
        )
        return topology

    monkeypatch.setattr(spec_module, "make_topology", tracked)
    search = SEARCH.with_overrides(
        space={"mesh": {}, "torus": {}, "sparse_hamming": {"max_configurations": 6}},
        baseline=None,
    )
    candidates = search.build_space().enumerate_candidates()
    builds = SharedBuilds()
    records = search_module._screen(
        search, candidates, search.build_objective(), search.build_constraints(), builds
    )
    gc.collect()
    alive = [ref() for ref in built.values() if ref() is not None]
    assert len(built) == len(candidates) > search.survivors
    assert len(alive) == search.survivors
    feasible = sorted(
        (record for record in records if record.feasible),
        key=lambda record: (record.score, record.candidate.sort_key),
    )
    survivors = [search.candidate_spec(r.candidate) for r in feasible[: search.survivors]]
    # The survivors' artifacts are the ones kept, ready for the rungs.
    assert {id(builds.topology(spec)) for spec in survivors} == {id(t) for t in alive}


# ------------------------------------------------------------ bit-identity

@pytest.mark.parametrize(
    "specs",
    [
        pytest.param([sim_spec(3)], id="solo-simulation"),
        pytest.param(
            [sim_spec(seed, sim={"engine": "vec", "seed": seed, **FAST_SIM}) for seed in (4, 5)],
            id="vec-gang",
        ),
        pytest.param(
            [ExperimentSpec("torus", 4, 4, arch={"endpoint_area_ge": 5e6})],
            id="analytical",
        ),
        pytest.param([sim_spec(6, workload=DNN)], id="replay"),
    ],
)
def test_runner_payloads_equal_spec_run(specs):
    results = ExperimentRunner().run(specs)
    assert [payload(result.prediction) for result in results] == [
        payload(spec.run()) for spec in specs
    ]
