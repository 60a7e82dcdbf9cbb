"""Analytical screening of candidate topologies on one architecture.

The optimizer's first stage (see :mod:`repro.optimize`) has to rank the full
search space — potentially hundreds of candidate topologies — before any
cycle-accurate simulation runs.  :func:`screen_topology` evaluates one
candidate with the cheap models only: the physical model for area, power and
per-link latencies, and the analytical performance model for zero-load
latency and saturation throughput.  A :class:`~repro.workloads.trace.WorkloadTrace`
can be supplied to additionally score the candidate under the application's
own traffic matrix (via :func:`~repro.toolchain.analytical.pair_weights_from_trace`).

The estimates deliberately mirror the fields the cycle-accurate
:class:`~repro.toolchain.results.PredictionResult` reports, so screening
scores and simulation scores are directly comparable in search trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.physical.model import NoCPhysicalModel, PhysicalModelResult
from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.toolchain.analytical import analytical_performance, pair_weights_from_trace
from repro.topologies.base import Topology

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class ScreeningEstimate:
    """Cheap-model estimates for one screened topology.

    Attributes
    ----------
    topology_name:
        Name of the screened topology.
    area_overhead, total_area_mm2, noc_power_w:
        Physical-model cost estimates.
    max_link_length:
        Longest link in tile pitches (Manhattan) — the cheap proxy for the
        optimizer's link-length budget.
    zero_load_latency_cycles, saturation_throughput, average_hops:
        Analytical performance under the synthetic ``traffic`` pattern.
    trace_latency_cycles, trace_saturation_throughput:
        Analytical performance under the supplied trace's traffic matrix
        (``None`` when no trace was given): latency averaged over the pairs
        the application exercises, and the channel-load saturation bound on
        the links its traffic concentrates on.
    """

    topology_name: str
    area_overhead: float
    total_area_mm2: float
    noc_power_w: float
    max_link_length: int
    zero_load_latency_cycles: float
    saturation_throughput: float
    average_hops: float
    trace_latency_cycles: float | None = None
    trace_saturation_throughput: float | None = None


def max_link_length(topology: Topology) -> int:
    """Longest link of ``topology`` in tile pitches (Manhattan distance)."""
    return int(topology.link_lengths.max())


def screen_topology(
    topology: Topology,
    model: NoCPhysicalModel | PhysicalModelResult,
    traffic: str = "uniform",
    trace: "WorkloadTrace | None" = None,
    packet_size_flits: int = 4,
    router_pipeline_cycles: int = 2,
    routing: RoutingTables | None = None,
) -> ScreeningEstimate:
    """Screen one topology with the physical + analytical models.

    The physical model supplies the per-link latency estimates that
    parameterise the analytical latency, exactly as in the full prediction
    toolchain — screening and simulation disagree only in how the performance
    numbers are obtained, never in the physical inputs.  ``model`` is the
    physical model to evaluate ``topology`` with, or the result of that
    evaluation when the caller already has it; ``routing`` likewise reuses
    tables the caller already built (they are built here otherwise).
    """
    physical = model.evaluate(topology) if isinstance(model, NoCPhysicalModel) else model
    routing = routing or build_routing_tables(topology)
    analytical = analytical_performance(
        topology,
        link_latencies=physical.link_latencies,
        routing=routing,
        traffic=traffic,
        packet_size_flits=packet_size_flits,
        router_pipeline_cycles=router_pipeline_cycles,
    )
    trace_latency: float | None = None
    trace_saturation: float | None = None
    if trace is not None:
        workload = analytical_performance(
            topology,
            link_latencies=physical.link_latencies,
            routing=routing,
            packet_size_flits=packet_size_flits,
            router_pipeline_cycles=router_pipeline_cycles,
            pair_weights=pair_weights_from_trace(trace),
        )
        trace_latency = workload.zero_load_latency_cycles
        trace_saturation = workload.saturation_throughput
    return ScreeningEstimate(
        topology_name=topology.name,
        area_overhead=physical.area_overhead,
        total_area_mm2=physical.area.total_area_mm2,
        noc_power_w=physical.noc_power_w,
        max_link_length=max_link_length(topology),
        zero_load_latency_cycles=analytical.zero_load_latency_cycles,
        saturation_throughput=analytical.saturation_throughput,
        average_hops=analytical.average_hops,
        trace_latency_cycles=trace_latency,
        trace_saturation_throughput=trace_saturation,
    )


__all__ = [
    "ScreeningEstimate",
    "max_link_length",
    "screen_topology",
]
