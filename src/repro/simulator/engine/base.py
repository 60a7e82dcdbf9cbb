"""The simulation-engine interface.

An :class:`Engine` is one interchangeable implementation of the cycle-based
kernel: it is built from a prebuilt :class:`~repro.simulator.network.Network`
(which already carries the routing tables and the physical model's per-link
latencies), steps the warmup/measurement/drain phases, and emits a
:class:`~repro.simulator.statistics.SimulationStats`.  Engines differ only in
how they *represent* the simulated state — every engine must produce
**bit-identical** statistics for the same ``(topology, config, seed, trace)``
(enforced by ``tests/unit/test_simulation_golden.py`` and the cross-engine
differential tests in ``tests/unit/test_engine_equivalence.py``).

The base class owns everything that is representation-independent and whose
ordering is observable in the statistics: traffic generation (the Bernoulli
:class:`~repro.simulator.traffic.InjectionProcess` or the deterministic
:class:`~repro.simulator.traffic.TraceInjector` — both consume randomness and
trace records in exactly one order), the phase boundaries of a run, the
statistics accumulator (including per-phase configuration for trace replays),
and finalization.  Subclasses implement :meth:`run`.

Engines are registered by name in :data:`repro.simulator.engine.ENGINE_FACTORIES`
and selected through ``SimulationConfig(engine=...)`` — see
:mod:`repro.simulator.engine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.simulator.statistics import SimulationStats, _Accumulator
from repro.simulator.traffic import (
    InjectionProcess,
    TraceInjector,
    make_traffic_pattern,
)

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.simulator.network import Network
    from repro.simulator.simulation import SimulationConfig
    from repro.topologies.base import Topology
    from repro.workloads.trace import WorkloadTrace


class Engine(ABC):
    """One implementation of the cycle-accurate simulation kernel.

    Parameters
    ----------
    topology:
        The simulated topology (used for traffic-pattern construction).
    config:
        The run configuration.
    network:
        A prebuilt :class:`~repro.simulator.network.Network` matching
        ``config.network_config()`` — validation happens in
        :class:`~repro.simulator.simulation.Simulator`, which is the only
        caller that constructs engines from unchecked inputs.
    trace:
        Optional :class:`~repro.workloads.trace.WorkloadTrace` to replay
        instead of Bernoulli injection (already validated against the
        topology's tile count).
    """

    #: Registry identifier of the engine (set by subclasses).
    name: str = ""
    #: Whether the kernel has a batch axis, so the sweeps fuse a round's
    #: load points into one kernel (see :func:`repro.simulator.sweep.run_plans`).
    batch_axis: bool = False

    def __init__(
        self,
        topology: "Topology",
        config: "SimulationConfig",
        network: "Network",
        trace: "WorkloadTrace | None" = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.network = network
        self._trace = trace
        self._trace_injector: TraceInjector | None = None
        self._trace_duration = 0
        if trace is not None:
            self.injection = None
            self._trace_injector = TraceInjector(
                trace.cycles, trace.sources, trace.destinations, trace.sizes
            )
            self._trace_duration = max(1, trace.duration)
        else:
            pattern = make_traffic_pattern(config.traffic, topology)
            self.injection = InjectionProcess(
                pattern,
                config.injection_rate,
                config.packet_size_flits,
                seed=config.seed,
            )

        self._accumulator = _Accumulator()
        if trace is not None and trace.phases:
            counts = trace.phase_record_counts()
            self._accumulator.configure_phases(
                names=list(trace.phase_names),
                spans=[(phase.start_cycle, phase.end_cycle) for phase in trace.phases],
                created=[packets for packets, _ in counts],
                offered_flits=[flits for _, flits in counts],
                phase_of_cycle=trace.phase_of_cycle_table(),
            )
        self._packet_counter = 0
        self._cycle = 0
        self._packets_measured = 0
        self._measured_in_flight = 0

    @property
    def cycles_simulated(self) -> int:
        """Number of cycles the kernel has advanced through so far."""
        return self._cycle

    @property
    def trace_mode(self) -> bool:
        """``True`` when the engine replays a trace instead of injecting."""
        return self._trace_injector is not None

    def _phase_bounds(self) -> tuple[int, int, int]:
        """``(warmup_end, measurement_end, hard_end)`` of this run.

        In trace mode the measurement window spans the whole trace (warmup is
        empty — every replayed packet is measured); ``drain_max_cycles``
        bounds the drain in both modes.
        """
        config = self.config
        if self.trace_mode:
            warmup_end = 0
            measurement_end = self._trace_duration
        else:
            warmup_end = config.warmup_cycles
            measurement_end = warmup_end + config.measurement_cycles
        return warmup_end, measurement_end, measurement_end + config.drain_max_cycles

    def _finalize(self, drained: bool) -> SimulationStats:
        """Turn the accumulated counters into the run's :class:`SimulationStats`."""
        if self._trace_injector is not None:
            offered = self._trace_injector.total_flits / (
                self._trace_duration * self.network.num_nodes
            )
            return self._accumulator.finalize(
                offered_load=offered,
                measurement_cycles=self._trace_duration,
                num_tiles=self.network.num_nodes,
                packets_measured=self._packets_measured,
                drained=drained,
            )
        return self._accumulator.finalize(
            offered_load=self.config.injection_rate,
            measurement_cycles=self.config.measurement_cycles,
            num_tiles=self.network.num_nodes,
            packets_measured=self._packets_measured,
            drained=drained,
        )

    @abstractmethod
    def run(self) -> SimulationStats:
        """Run warmup, measurement and drain and return the statistics."""


__all__ = ["Engine"]
