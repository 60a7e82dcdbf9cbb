"""Cycle-accurate NoC simulator (the BookSim2 substitute of the toolchain).

The paper feeds its physical model's link-latency estimates, together with the
router architecture, routing algorithm and traffic pattern, into the
cycle-accurate BookSim2 simulator to obtain zero-load latency and saturation
throughput (Figure 3).  BookSim2 is a C++ project and not available here, so
this package implements the required subset from scratch:

* input-queued routers with virtual channels and credit-based flow control,
* a configurable router pipeline latency,
* multi-cycle (pipelined) links, parameterised per link by the physical model,
* table-based minimal routing with a deadlock-free escape layer
  (Duato-style: adaptive minimal VCs + an up*/down* escape VC),
* synthetic traffic patterns (uniform random, transpose, bit-complement,
  tornado, neighbour, hotspot) with Bernoulli injection,
* trace replay of recorded application workloads
  (:class:`~repro.simulator.traffic.TraceInjector` +
  :func:`~repro.simulator.sweep.replay_trace`) with per-phase statistics,
* warmup / measurement / drain phases, latency and throughput statistics,
* load sweeps that extract zero-load latency and saturation throughput,
* pluggable, bit-identical kernel implementations behind the
  :class:`~repro.simulator.engine.Engine` interface (``reference`` object
  graph, ``soa`` struct-of-arrays, ``sanitizer`` audited, ``vec``
  vectorized numpy; see :mod:`repro.simulator.engine`), selected via
  ``SimulationConfig(engine=...)``,
* one round loop (:func:`~repro.simulator.sweep.run_plans`) behind every
  sweep, replay and batch: when the configs name ``engine="vec"``
  (:attr:`~repro.simulator.simulation.SimulationConfig.batched`, the one
  batching rule) it fuses many (seed, load-point) runs of one compiled
  network into a single kernel invocation, and otherwise runs them one by
  one (:func:`~repro.simulator.sweep.run_batch` names ``vec`` for any
  config batch).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.simulator.engine": (
        "DEFAULT_ENGINE",
        "ENGINE_FACTORIES",
        "available_engines",
        "check_engine_name",
        "make_engine",
    ),
    "repro.simulator.engine.base": ("Engine",),
    "repro.simulator.flit": ("Flit", "Packet"),
    "repro.simulator.network": ("Network", "NetworkConfig"),
    "repro.simulator.routing_tables": ("RoutingTables", "build_routing_tables"),
    "repro.simulator.simulation": ("SimulationConfig", "Simulator"),
    "repro.simulator.statistics": ("PhaseStats", "SimulationStats"),
    "repro.simulator.sweep": (
        "LoadSweepResult",
        "find_saturation_throughput",
        "replay_trace",
        "run_batch",
        "run_load_sweep",
        "run_plans",
    ),
    "repro.simulator.traffic": (
        "TRAFFIC_FACTORIES",
        "TrafficPattern",
        "TraceInjector",
        "UniformRandomTraffic",
        "TransposeTraffic",
        "BitComplementTraffic",
        "TornadoTraffic",
        "NeighborTraffic",
        "HotspotTraffic",
        "available_traffic_patterns",
        "make_traffic",
        "make_traffic_pattern",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_FACTORIES",
    "Engine",
    "available_engines",
    "check_engine_name",
    "make_engine",
    "Flit",
    "Packet",
    "TrafficPattern",
    "UniformRandomTraffic",
    "TransposeTraffic",
    "BitComplementTraffic",
    "TornadoTraffic",
    "NeighborTraffic",
    "HotspotTraffic",
    "TRAFFIC_FACTORIES",
    "available_traffic_patterns",
    "make_traffic",
    "make_traffic_pattern",
    "TraceInjector",
    "RoutingTables",
    "build_routing_tables",
    "Network",
    "NetworkConfig",
    "SimulationConfig",
    "Simulator",
    "SimulationStats",
    "PhaseStats",
    "LoadSweepResult",
    "find_saturation_throughput",
    "replay_trace",
    "run_batch",
    "run_load_sweep",
    "run_plans",
]
