"""Execution units: gangs of specs fused into recycled vec kernels, or one spec.

:func:`run_unit` is what the campaign runner (in-process or in a pool
worker) and the queue worker execute: one spec through its
:class:`~repro.toolchain.predict.PredictionToolchain`, or a *gang* — specs
sharing one compiled :class:`~repro.simulator.network.Network` — packed
into one fused kernel:

1. **Grouping** — :func:`gang_key` buckets specs with the same topology
   build (:func:`~repro.experiments.spec.topology_key`, which includes the
   architecture overrides that determine the physical link latencies) and
   the same router-level
   :meth:`~repro.simulator.simulation.SimulationConfig.network_config`.
   Analytical specs and specs pinned to the ``sanitizer`` engine (whose
   per-cycle audits must actually run) never gang.
2. **Execution** — :func:`run_gang_detailed` asks each spec's toolchain for
   its plan (saturation search or one trace-replay round) and runs all of
   them through :func:`~repro.simulator.sweep.run_plans` on one
   lane-recycled vec kernel, so the batch axis stays full instead of
   waiting on the slowest lane; each toolchain then assembles its
   :class:`~repro.toolchain.results.PredictionResult`.

Every lane is bit-identical to its solo run, the plans emit the same rounds
as the sequential search, and results are assembled by the same code as
:meth:`~repro.toolchain.predict.PredictionToolchain.predict` — so
memoization keys *and* cached payloads are unchanged, and cross-engine cache
hits keep working.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Iterable, Sequence

from repro.experiments.spec import ExperimentSpec, toolchain_key, topology_key
from repro.physical.model import NoCPhysicalModel
from repro.simulator.network import build_network
from repro.simulator.sweep import run_plans
from repro.toolchain.predict import PredictionToolchain
from repro.toolchain.results import PredictionResult
from repro.topologies.base import Topology
from repro.utils.validation import ValidationError

#: Engines whose specs must never be fused: the gang executes every lane on
#: the vec kernel, which would silently skip the sanitizer's runtime audits.
#: ``reference``/``soa``/``vec`` specs fuse freely — engines are
#: bit-identical, and the engine choice is excluded from spec identity.
UNFUSABLE_ENGINES = frozenset({"sanitizer"})

#: Default cap on the kernel's batch width.  Lanes beyond the cap queue as
#: pending work and recycle into freed slots; the cap bounds the kernel's
#: state arrays, not the amount of work a gang can execute.
DEFAULT_MAX_WIDTH = 64


def gang_key(spec: ExperimentSpec) -> tuple | None:
    """Compiled-network compatibility key of ``spec`` (``None``: not gangable).

    Specs with equal gang keys can share one compiled network — and with it
    one fused kernel.  Returns ``None`` for analytical specs (no simulation
    to fuse) and for specs pinned to an engine in :data:`UNFUSABLE_ENGINES`.
    """
    if spec.performance_mode != "simulation":
        return None
    if spec.sim.get("engine") in UNFUSABLE_ENGINES:
        return None
    return (topology_key(spec), spec.build_simulation_config().network_config())


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

    Only specs that explicitly select ``sim["engine"] = "vec"`` (the
    documented batched path) opt into ganging, and groups of one are
    dropped: a width-1 "gang" loses to the solo sweep, whose coarse stage
    already batches six lanes wide.
    """
    groups: dict[tuple, list[ExperimentSpec]] = {}
    for spec in specs:
        key = gang_key(spec)
        if key is not None and spec.sim.get("engine") == "vec":
            groups.setdefault(key, []).append(spec)
    return [members for members in groups.values() if len(members) > 1]


class SharedBuilds:
    """Topologies and toolchains shared by the specs of one run.

    Specs that describe the same graph share one topology object, and specs
    that differ only in traffic share one toolchain — and with it the
    toolchain's routing tables for that topology.  Each object is dropped
    as soon as the last spec needing it has been released, so a
    4096-configuration design-space sweep never holds 4096 routing tables
    at once.
    """

    def __init__(self, specs: Iterable[ExperimentSpec]) -> None:
        self._left = Counter(key for spec in specs for key in self._keys(spec))
        self._built: dict[tuple, Any] = {}

    @staticmethod
    def _keys(spec: ExperimentSpec) -> tuple[tuple, tuple]:
        return ("toolchain", toolchain_key(spec)), ("topology", topology_key(spec))

    def __call__(self, spec: ExperimentSpec) -> tuple[PredictionToolchain, Topology]:
        """The (shared) toolchain and topology ``spec`` runs on."""
        builders = (spec.build_toolchain, spec.build_topology)
        for key, build in zip(self._keys(spec), builders):
            if key not in self._built:
                self._built[key] = build()
        return tuple(self._built[key] for key in self._keys(spec))

    def release(self, spec: ExperimentSpec) -> None:
        """``spec`` has run: drop whatever no remaining spec needs."""
        for key in self._keys(spec):
            self._left[key] -= 1
            if self._left[key] <= 0:
                self._built.pop(key, None)


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

    The physical model runs once per distinct
    :meth:`~repro.experiments.spec.ExperimentSpec.build_parameters`: the
    gang key fixes every input of the link latencies, so one network
    serves every spec.
    """
    specs = list(specs)
    if not specs:
        return [], 0
    key = gang_key(specs[0])
    if key is None:
        raise ValidationError(
            "a gang needs simulation-mode specs (analytical and "
            "sanitizer-engine specs cannot be fused)"
        )
    if any(gang_key(spec) != key for spec in specs[1:]):
        raise ValidationError(
            "all specs of a gang must share one gang_key(); "
            "group with plan_gangs() first"
        )

    builds = builds if builds is not None else SharedBuilds(specs)
    chains = [builds(spec)[0] for spec in specs]
    topology = builds(specs[0])[1]
    physicals = {}
    for chain in chains:
        if chain.params not in physicals:
            physicals[chain.params] = NoCPhysicalModel(chain.params).evaluate(topology)
    network = build_network(
        topology,
        config=chains[0].simulation_config.network_config(),
        link_latencies=physicals[chains[0].params].link_latencies,
        routing=chains[0].routing_for(topology),
    )
    plans, traces = zip(
        *(chain.plan(topology, spec.traffic, batched=True)
          for spec, chain in zip(specs, chains))
    )
    outcomes, lanes = run_plans(
        topology, network, plans, batched=True, traces=traces, max_width=max_width
    )
    results = [
        chain.assemble(topology, physicals[chain.params], outcome)
        for chain, outcome in zip(chains, outcomes)
    ]
    return results, lanes


def run_unit(
    specs: Sequence[ExperimentSpec], builds: SharedBuilds | None = None
) -> tuple[list[PredictionResult], int | None]:
    """Run one execution unit: a gang fused through one kernel, or one spec.

    Returns the predictions in ``specs`` order and the gang's lane count
    (``None`` for a single spec).  ``builds`` shares topologies and
    toolchains with the other units of an in-process run; each spec is
    released from it once the unit has run.
    """
    builds = builds if builds is not None else SharedBuilds(specs)
    if len(specs) > 1:
        predictions, lanes = run_gang_detailed(specs, builds=builds)
    else:
        (spec,) = specs
        chain, topology = builds(spec)
        predictions, lanes = [chain.predict(topology, traffic=spec.traffic)], None
    for spec in specs:
        builds.release(spec)
    return predictions, lanes


__all__ = [
    "DEFAULT_MAX_WIDTH",
    "UNFUSABLE_ENGINES",
    "SharedBuilds",
    "gang_key",
    "gang_key_id",
    "plan_gangs",
    "run_gang_detailed",
    "run_unit",
]
