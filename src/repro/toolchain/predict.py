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
:class:`~repro.toolchain.results.PredictionResult`.  :func:`run_predictions`
chains them over artifacts the caller already built (topology, routing
tables, physical results, traces).  :meth:`PredictionToolchain.predict`
builds those artifacts for one topology and calls it; the execution units of
:mod:`repro.experiments.scheduler` take them from the build scope of their
run and call it for one spec or a whole gang.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

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

    def plan(self, traffic: str) -> Plan | None:
        """The simulation plan of one prediction.

        ``None`` in analytical mode; one replay round for a trace-driven
        workload; otherwise the saturation search under ``traffic``.
        """
        config = self.simulation_config
        if self.workload is not None:
            return single_plan(config)
        if self.performance_mode != "simulation":
            return None
        if traffic != config.traffic:
            config = replace(config, traffic=traffic)
        return saturation_plan(config)

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
        call only.  Every artifact of the prediction is built by this call;
        runs of many specs share them through
        :class:`~repro.experiments.scheduler.SharedBuilds` instead.
        """
        physical = NoCPhysicalModel(self.params).evaluate(topology)
        routing = build_routing_tables(topology)
        trace = None
        if self.workload is not None:
            from repro.workloads.generators import workload_trace_from_mapping

            trace = workload_trace_from_mapping(
                dict(self.workload), topology.rows, topology.cols
            )
        traffic = self.traffic if traffic is None else traffic
        (result,), _ = run_predictions(
            topology, routing, [(self, traffic, physical, trace)]
        )
        return result


def run_predictions(
    topology: Topology,
    routing: RoutingTables,
    jobs: Sequence[
        tuple[PredictionToolchain, str, PhysicalModelResult, WorkloadTrace | None]
    ],
    max_width: int | None = None,
) -> tuple[list[PredictionResult], int]:
    """Plan, run and assemble ``jobs`` on ``topology``: ``(results, lanes run)``.

    A job is one prediction: its toolchain, traffic pattern, the topology's
    physical-model result under the toolchain's parameters, and the workload
    trace it replays (``None`` if synthetic).  Analytical jobs are evaluated
    one by one.  Simulated jobs run their plans through
    :func:`~repro.simulator.sweep.run_plans` on one network compiled from
    the first job's router configuration and link latencies, so they must
    share both (one spec, or a gang); they run batched when their
    simulation configs are (a ``vec`` spec or gang).  Results are parallel
    to ``jobs``.
    """
    plans = [chain.plan(traffic) for chain, traffic, _, _ in jobs]
    if plans[0] is None:
        lanes = 0
        outcomes = [
            analytical_performance(
                topology,
                link_latencies=physical.link_latencies,
                routing=routing,
                traffic=traffic,
                packet_size_flits=chain.simulation_config.packet_size_flits,
                router_pipeline_cycles=chain.simulation_config.router_pipeline_cycles,
            )
            for chain, traffic, physical, _ in jobs
        ]
    else:
        chain, _, physical, _ = jobs[0]
        # One network (with the physical model's link latencies baked in)
        # serves every run of every plan, and with it the compiled routing
        # arrays.
        network = build_network(
            topology,
            config=chain.simulation_config.network_config(),
            link_latencies=physical.link_latencies,
            routing=routing,
        )
        outcomes, lanes = run_plans(
            topology,
            network,
            plans,
            traces=[trace for _, _, _, trace in jobs],
            max_width=max_width,
        )
    results = [
        chain.assemble(topology, physical, outcome)
        for (chain, _, physical, _), outcome in zip(jobs, outcomes)
    ]
    return results, lanes


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
