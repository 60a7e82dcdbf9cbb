"""Execution units and the build scope they take their artifacts from.

:func:`run_unit` is what the campaign runner (in-process or in a pool
worker) and the queue worker execute: one spec, or a *gang* — specs
sharing one compiled :class:`~repro.simulator.network.Network` — packed
into one fused kernel:

1. **Grouping** — :func:`gang_key` buckets specs with the same topology
   build (:func:`~repro.experiments.spec.topology_key`, which includes the
   architecture overrides that determine the physical link latencies) and
   the same router-level
   :meth:`~repro.simulator.simulation.SimulationConfig.network_config`.
   Only specs whose simulation config is
   :attr:`~repro.simulator.simulation.SimulationConfig.batched` (they name
   the ``vec`` engine) gang: a solo ``soa`` run beats a ``vec`` gang on
   most work shapes (see ``docs/PERFORMANCE.md``).
2. **Execution** — every unit takes its topology, routing tables, physical
   results and workload traces from a :class:`SharedBuilds` scope and goes
   through :func:`~repro.toolchain.predict.run_predictions`: each spec's
   toolchain plans it (saturation search or one trace-replay round),
   :func:`~repro.simulator.sweep.run_plans` runs the plans — a gang's on
   one lane-recycled vec kernel, so the batch axis stays full instead of
   waiting on the slowest lane — and each toolchain assembles its
   :class:`~repro.toolchain.results.PredictionResult`.

Every lane is bit-identical to its solo run, the plans emit the same rounds
as the sequential search, and results are assembled by the same code as
:meth:`~repro.toolchain.predict.PredictionToolchain.predict` — so
memoization keys *and* cached payloads are unchanged, and cross-engine cache
hits keep working.

A :class:`SharedBuilds` scope lives for one entry-point call (one
:meth:`~repro.experiments.runner.ExperimentRunner.run`, one
:func:`~repro.optimize.search.run_search`); nothing is cached across calls.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.spec import ExperimentSpec, topology_key
from repro.physical.model import NoCPhysicalModel, PhysicalModelResult
from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.toolchain.predict import run_predictions
from repro.toolchain.results import PredictionResult
from repro.topologies.base import Topology
from repro.utils.validation import ValidationError
from repro.workloads.trace import WorkloadTrace

#: Default cap on the kernel's batch width.  Lanes beyond the cap queue as
#: pending work and recycle into freed slots; the cap bounds the kernel's
#: state arrays, not the amount of work a gang can execute.
DEFAULT_MAX_WIDTH = 64


def gang_key(spec: ExperimentSpec) -> tuple | None:
    """Compiled-network compatibility key of ``spec`` (``None``: not gangable).

    Specs with equal gang keys can share one compiled network — and with it
    one fused kernel.  Returns ``None`` for analytical specs (no simulation
    to fuse) and for specs whose simulation config is not
    :attr:`~repro.simulator.simulation.SimulationConfig.batched`.
    """
    if spec.performance_mode != "simulation":
        return None
    config = spec.build_simulation_config()
    if not config.batched:
        return None
    return (topology_key(spec), config.network_config())


def gang_key_id(spec: ExperimentSpec) -> str | None:
    """Stable string form of :func:`gang_key` (for the service job table).

    A content hash, identical across processes and Python versions — two
    workers computing the key of the same job JSON agree byte-for-byte.
    """
    key = gang_key(spec)
    if key is None:
        return None
    topo_part, net = key
    canonical = json.dumps(
        [
            list(topo_part),
            [
                net.num_vcs,
                net.buffer_depth_flits,
                net.router_pipeline_cycles,
                net.packet_size_flits,
            ],
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return "gang-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def plan_gangs(specs: Iterable[ExperimentSpec]) -> list[list[ExperimentSpec]]:
    """Group ``specs`` into gangs worth fusing (order-preserving).

    Specs with a :func:`gang_key` (batched ``vec`` simulations) group by
    it, and groups of one are dropped: a width-1 "gang" loses to the solo
    sweep, whose coarse stage already batches six lanes wide.
    """
    groups: dict[tuple, list[ExperimentSpec]] = {}
    for spec in specs:
        key = gang_key(spec)
        if key is not None:
            groups.setdefault(key, []).append(spec)
    return [members for members in groups.values() if len(members) > 1]


class SharedBuilds:
    """The derived artifacts of one entry-point call, each built once.

    Specs ask the scope for their artifacts; the first ask builds one, and
    every later ask with the same content key gets the same object:

    * the topology and its routing tables, keyed by
      :func:`~repro.experiments.spec.topology_key`;
    * the physical-model result, keyed by ``topology_key`` plus
      :meth:`~repro.experiments.spec.ExperimentSpec.build_parameters`;
    * the workload trace, keyed by the workload mapping plus the grid size.

    Artifacts are reference-counted: :meth:`hold` adds one use per spec,
    :meth:`release` removes it, and an artifact is dropped as soon as no
    held spec needs it — so a 4096-configuration design-space sweep never
    holds 4096 routing tables at once.  A scope lives for one call (one
    runner run, one search) and is never shared across calls.
    """

    def __init__(self, specs: Iterable[ExperimentSpec] = ()) -> None:
        self._left: Counter = Counter()
        self._built: dict[tuple, Any] = {}
        self.hold(specs)

    @staticmethod
    def _keys(spec: ExperimentSpec) -> dict[str, tuple]:
        """The content key of every artifact ``spec`` runs on, by kind."""
        topology = topology_key(spec)
        keys = {
            "topology": ("topology", topology),
            "routing": ("routing", topology),
            "physical": ("physical", topology, spec.build_parameters()),
        }
        if spec.workload is not None:
            workload = json.dumps(dict(spec.workload), sort_keys=True)
            keys["trace"] = ("trace", workload, spec.rows, spec.cols)
        return keys

    def _get(self, spec: ExperimentSpec, kind: str, build: Callable[[], Any]) -> Any:
        key = self._keys(spec)[kind]
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def hold(self, specs: Iterable[ExperimentSpec]) -> None:
        """Keep every artifact of ``specs`` until each spec is released."""
        for spec in specs:
            self._left.update(self._keys(spec).values())

    def release(self, spec: ExperimentSpec) -> None:
        """``spec`` is done: drop whatever no held spec needs."""
        for key in self._keys(spec).values():
            self._left[key] -= 1
            if self._left[key] <= 0:
                del self._left[key]
                self._built.pop(key, None)

    def topology(self, spec: ExperimentSpec) -> Topology:
        """The topology ``spec`` describes."""
        return self._get(spec, "topology", spec.build_topology)

    def routing(self, spec: ExperimentSpec) -> RoutingTables:
        """The routing tables of ``spec``'s topology."""
        return self._get(
            spec, "routing", lambda: build_routing_tables(self.topology(spec))
        )

    def physical(self, spec: ExperimentSpec) -> PhysicalModelResult:
        """The physical-model result of ``spec``'s topology and architecture."""
        return self._get(
            spec,
            "physical",
            lambda: NoCPhysicalModel(spec.build_parameters()).evaluate(
                self.topology(spec)
            ),
        )

    def trace(self, spec: ExperimentSpec) -> WorkloadTrace | None:
        """The workload trace ``spec`` replays (``None`` if synthetic)."""
        if spec.workload is None:
            return None
        return self._get(spec, "trace", spec.build_workload_trace)


def _run(
    specs: Sequence[ExperimentSpec],
    builds: SharedBuilds,
    max_width: int | None = None,
) -> tuple[list[PredictionResult], int]:
    """Predict ``specs`` (one spec, or a gang) from the artifacts in ``builds``."""
    jobs = [
        (spec.build_toolchain(), spec.traffic, builds.physical(spec), builds.trace(spec))
        for spec in specs
    ]
    return run_predictions(
        builds.topology(specs[0]), builds.routing(specs[0]), jobs, max_width
    )


def run_gang_detailed(
    specs: Sequence[ExperimentSpec],
    max_width: int = DEFAULT_MAX_WIDTH,
    builds: SharedBuilds | None = None,
) -> tuple[list[PredictionResult], int]:
    """Execute a gang of compatible specs through one lane-recycled kernel.

    All specs must share one :func:`gang_key` (raises
    :class:`~repro.utils.validation.ValidationError` otherwise).  Returns
    one :class:`~repro.toolchain.results.PredictionResult` per spec, in
    input order, bit-identical to ``[spec.run() for spec in specs]`` — the
    sweep points, replay statistics (phases included), and every scalar
    metric match the sequential path exactly — plus the total lane count
    (for progress reporting).

    The gang key fixes every input of the link latencies, so one network
    serves every spec.  Artifacts come from ``builds`` (a scope of their
    own when omitted).
    """
    specs = list(specs)
    if not specs:
        return [], 0
    key = gang_key(specs[0])
    if key is None:
        raise ValidationError(
            "a gang needs simulation-mode specs that name the batched 'vec' "
            "engine (analytical and other-engine specs cannot be fused)"
        )
    if any(gang_key(spec) != key for spec in specs[1:]):
        raise ValidationError(
            "all specs of a gang must share one gang_key(); "
            "group with plan_gangs() first"
        )
    builds = builds if builds is not None else SharedBuilds(specs)
    return _run(specs, builds, max_width=max_width)


def run_unit(
    specs: Sequence[ExperimentSpec], builds: SharedBuilds | None = None
) -> tuple[list[PredictionResult], int | None, list[str | None]]:
    """Run one execution unit: a gang fused through one kernel, or one spec.

    Returns the predictions in ``specs`` order, the gang's lane count
    (``None`` for a single spec) and the ``trace_id`` of the trace each
    spec replayed (``None`` if synthetic), which the store records with the
    result.  ``builds`` shares artifacts with the other units of an
    in-process run; each spec is released from it once the unit has run.
    """
    builds = builds if builds is not None else SharedBuilds(specs)
    if len(specs) > 1:
        predictions, lanes = run_gang_detailed(specs, builds=builds)
    else:
        predictions, lanes = _run(specs, builds)[0], None
    trace_ids = [getattr(builds.trace(spec), "trace_id", None) for spec in specs]
    for spec in specs:
        builds.release(spec)
    return predictions, lanes, trace_ids


__all__ = [
    "DEFAULT_MAX_WIDTH",
    "SharedBuilds",
    "gang_key",
    "gang_key_id",
    "plan_gangs",
    "run_gang_detailed",
    "run_unit",
]
