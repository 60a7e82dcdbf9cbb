"""The prediction toolchain: topology + architecture -> cost and performance.

This is the programmatic equivalent of Figure 3 of the paper: the physical
model produces area, power and per-link latency estimates; the link latencies
then parameterise the performance evaluation (cycle-accurate simulation or the
fast analytical model), which yields zero-load latency and saturation
throughput.

A prediction is three steps: :meth:`PredictionToolchain.plan` turns it into a
simulation plan (none in analytical mode, the saturation search, or one
trace-replay round), :func:`~repro.simulator.sweep.run_plans` runs the plan,
and :meth:`PredictionToolchain.assemble` builds the
:class:`~repro.toolchain.results.PredictionResult`.  :meth:`predict` chains
them for one topology; the gang scheduler
(:mod:`repro.experiments.scheduler`) runs many specs' plans in one kernel and
assembles each result the same way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.physical.model import NoCPhysicalModel, PhysicalModelResult
from repro.physical.parameters import ArchitecturalParameters
from repro.simulator.network import build_network
from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.simulator.simulation import SimulationConfig
from repro.simulator.sweep import Plan, run_plans, saturation_plan, single_plan
from repro.toolchain.analytical import analytical_performance
from repro.toolchain.results import PredictionResult
from repro.topologies.base import Topology
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace


@dataclass
class PredictionToolchain:
    """Reusable toolchain bound to one target architecture.

    Attributes
    ----------
    params:
        Architectural parameters of the target chip (Table II).
    performance_mode:
        ``"analytical"`` (default, fast — used for design-space sweeps and the
        full-size Figure 6 benchmarks) or ``"simulation"`` (cycle-accurate,
        mirrors the paper's BookSim2 usage; practical for small networks or
        reduced cycle counts).
    simulation_config:
        Configuration of the cycle-accurate runs (ignored in analytical mode
        except for the packet size and router pipeline length, which both
        modes share).
    traffic:
        Traffic pattern name; the paper's evaluation uses ``"uniform"``.
    workload:
        Optional trace-driven workload spec ``{"name": ..., "seed": ...,
        "params": {...}}`` (see :data:`repro.workloads.WORKLOAD_FACTORIES`).
        When set, the performance stage replays the generated trace instead
        of running a Bernoulli load sweep: the reported "zero-load latency"
        is the replay's average packet latency and the reported "saturation
        throughput" is the replay's accepted load.  Requires
        ``performance_mode="simulation"``.
    """

    params: ArchitecturalParameters
    performance_mode: str = "analytical"
    simulation_config: SimulationConfig = field(default_factory=SimulationConfig)
    traffic: str = "uniform"
    workload: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.performance_mode not in ("analytical", "simulation"):
            raise ValidationError(
                f"performance_mode must be 'analytical' or 'simulation', "
                f"got {self.performance_mode!r}"
            )
        if self.workload is not None:
            from repro.workloads.generators import check_workload_params

            if not isinstance(self.workload, Mapping) or "name" not in self.workload:
                raise ValidationError("workload must be a mapping with a 'name' key")
            check_workload_params(
                self.workload["name"], dict(self.workload.get("params", {}))
            )
            if self.performance_mode != "simulation":
                raise ValidationError(
                    "trace-driven workloads require performance_mode='simulation'"
                )
        self._physical_model = NoCPhysicalModel(self.params)
        # Routing tables depend only on the topology, not on the traffic or
        # injection rate, so sweeps that vary only those knobs reuse the BFS
        # work.  Keyed by object identity with a weakref guard against id()
        # reuse after garbage collection.
        self._routing_cache: dict[int, tuple[weakref.ref, RoutingTables]] = {}

    def routing_for(self, topology: Topology) -> RoutingTables:
        """Routing tables for ``topology``, memoized per topology object."""
        key = id(topology)
        entry = self._routing_cache.get(key)
        if entry is not None and entry[0]() is topology:
            return entry[1]
        routing = build_routing_tables(topology)
        if len(self._routing_cache) >= 256:
            self._routing_cache = {
                k: (ref, tables)
                for k, (ref, tables) in self._routing_cache.items()
                if ref() is not None
            }
        self._routing_cache[key] = (weakref.ref(topology), routing)
        return routing

    def plan(
        self, topology: Topology, traffic: str, batched: bool
    ) -> "tuple[Plan, WorkloadTrace | None] | None":
        """The simulation plan of one prediction and the trace it replays.

        ``None`` in analytical mode; one replay round for a trace-driven
        workload; otherwise the saturation search under ``traffic``, with
        its coarse stage in one round when the plan will run ``batched``.
        """
        config = self.simulation_config
        if self.workload is not None:
            from repro.workloads.generators import workload_trace_from_mapping

            trace = workload_trace_from_mapping(
                dict(self.workload), topology.rows, topology.cols
            )
            return single_plan(config), trace
        if self.performance_mode != "simulation":
            return None
        if traffic != config.traffic:
            config = replace(config, traffic=traffic)
        return saturation_plan(config, batch_coarse=batched), None

    def assemble(
        self, topology: Topology, physical: PhysicalModelResult, outcome: Any
    ) -> PredictionResult:
        """The :class:`PredictionResult` of ``topology`` from its performance outcome.

        ``outcome`` is what the performance stage produced: the replay's
        :class:`~repro.simulator.statistics.SimulationStats` for a workload,
        the saturation search's
        :class:`~repro.simulator.sweep.LoadSweepResult` in simulation mode,
        or the analytical model's result.
        """
        if self.workload is not None:
            # Trace replays have no load sweep: report the replay's average
            # packet latency in the latency slot and its accepted load in
            # the throughput slot (both documented on the workload field).
            zero_load = outcome.average_packet_latency
            saturation = outcome.accepted_load
            details = {"replay": outcome, "workload": dict(self.workload)}
        elif self.performance_mode == "simulation":
            zero_load = outcome.zero_load_latency
            saturation = outcome.saturation_throughput
            details = {"sweep_points": list(outcome.points)}
        else:
            zero_load = outcome.zero_load_latency_cycles
            saturation = outcome.saturation_throughput
            details = {"analytical": outcome}
        return PredictionResult(
            topology_name=topology.name,
            area_overhead=physical.area_overhead,
            total_area_mm2=physical.area.total_area_mm2,
            noc_power_w=physical.noc_power_w,
            zero_load_latency_cycles=zero_load,
            saturation_throughput=saturation,
            performance_mode=self.performance_mode,
            physical=physical,
            details=details,
        )

    def predict(self, topology: Topology, traffic: str | None = None) -> PredictionResult:
        """Predict cost and performance of ``topology`` on this architecture.

        ``traffic`` overrides the toolchain's default traffic pattern for this
        call only (used by campaign sweeps that vary the pattern while keeping
        the architecture fixed).
        """
        physical = self._physical_model.evaluate(topology)
        routing = self.routing_for(topology)
        traffic = self.traffic if traffic is None else traffic
        batched = self.simulation_config.batched
        planned = self.plan(topology, traffic, batched)
        if planned is None:
            outcome = analytical_performance(
                topology,
                link_latencies=physical.link_latencies,
                routing=routing,
                traffic=traffic,
                packet_size_flits=self.simulation_config.packet_size_flits,
                router_pipeline_cycles=self.simulation_config.router_pipeline_cycles,
            )
        else:
            plan, trace = planned
            # One network (with the physical model's link latencies baked
            # in) serves every run of the plan, and with it the compiled
            # routing arrays.
            network = build_network(
                topology,
                config=self.simulation_config.network_config(),
                link_latencies=physical.link_latencies,
                routing=routing,
            )
            (outcome,), _ = run_plans(
                topology, network, [plan], batched, traces=[trace]
            )
        return self.assemble(topology, physical, outcome)

    def __call__(self, topology: Topology, traffic: str | None = None) -> PredictionResult:
        """Alias for :meth:`predict` (lets the toolchain act as a plain predictor)."""
        return self.predict(topology, traffic=traffic)


def predict(
    topology: Topology,
    params: ArchitecturalParameters,
    performance_mode: str = "analytical",
    simulation_config: SimulationConfig | None = None,
    traffic: str = "uniform",
    workload: Mapping[str, Any] | None = None,
) -> PredictionResult:
    """One-shot convenience wrapper around :class:`PredictionToolchain`."""
    toolchain = PredictionToolchain(
        params=params,
        performance_mode=performance_mode,
        simulation_config=simulation_config or SimulationConfig(),
        traffic=traffic,
        workload=workload,
    )
    return toolchain.predict(topology)
