"""Trace-driven application workloads.

The subsystem complements the memoryless synthetic patterns of
:mod:`repro.simulator.traffic` with replayable, phase-structured application
traffic:

* :mod:`repro.workloads.trace` — the versioned trace format
  (:class:`WorkloadTrace`: packet records ``(cycle, src, dst, size)`` with
  named :class:`TracePhase` windows; JSONL and compressed-npz backends with
  deterministic round-trips and a stable ``trace_id`` content hash);
* :mod:`repro.workloads.generators` — workload generators that synthesize
  traces from application models (DNN inference, MPI collectives, 2-D
  stencil halo exchange, bursty ON/OFF background traffic), registered in
  :data:`WORKLOAD_FACTORIES` exactly like the traffic-pattern registry;
* replay — :func:`repro.simulator.sweep.replay_trace` (re-exported here)
  feeds a trace through the cycle-accurate simulator and returns
  :class:`~repro.simulator.statistics.SimulationStats` with per-phase
  latency/throughput in ``stats.phases``.

End-to-end, a workload enters an experiment through
``ExperimentSpec(workload={"name": ..., "seed": ..., "params": {...}})`` or
the ``repro gen-trace`` / ``repro replay`` CLI subcommands; see
``docs/WORKLOADS.md``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.simulator.sweep": ("replay_trace",),
    "repro.workloads.generators": (
        "WORKLOAD_FACTORIES",
        "available_workloads",
        "check_workload_name",
        "generate_dnn_inference",
        "generate_mpi_collective",
        "generate_onoff",
        "generate_stencil2d",
        "make_workload_trace",
    ),
    "repro.workloads.trace": (
        "TRACE_FORMAT_TAG",
        "TRACE_FORMAT_VERSION",
        "TracePhase",
        "WorkloadTrace",
        "merge_traces",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "TRACE_FORMAT_TAG",
    "TRACE_FORMAT_VERSION",
    "TracePhase",
    "WorkloadTrace",
    "merge_traces",
    "WORKLOAD_FACTORIES",
    "available_workloads",
    "check_workload_name",
    "generate_dnn_inference",
    "generate_mpi_collective",
    "generate_onoff",
    "generate_stencil2d",
    "make_workload_trace",
    "replay_trace",
]
