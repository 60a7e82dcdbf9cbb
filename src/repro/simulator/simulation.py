"""The cycle-based simulation front end.

:class:`Simulator` drives one run of a :class:`~repro.simulator.network.Network`
through three phases:

* **warmup** — traffic is injected but packets are not measured,
* **measurement** — packets created in this window are tagged and measured,
* **drain** — injection continues (to keep the network loaded) but the run
  stops as soon as every measured packet has been delivered, or when the drain
  limit is reached (a saturated network never drains; the statistics flag
  this).

The actual kernel is a pluggable **engine** (see
:mod:`repro.simulator.engine`): ``Simulator`` validates the inputs, resolves
the network (building it, or reusing a prebuilt one), and delegates the run
to the engine named by ``config.engine`` — the object-graph ``reference``
kernel or the struct-of-arrays ``soa`` kernel.  All engines are
**bit-identical**: for a fixed configuration and seed they produce the exact
same :class:`~repro.simulator.statistics.SimulationStats` (enforced by
``tests/unit/test_simulation_golden.py`` and
``tests/unit/test_engine_equivalence.py``), so the engine choice is purely a
speed/readability trade-off and is excluded from experiment identity hashes.

For repeated runs on the same topology (load sweeps), pass a prebuilt
``network`` (and ``routing``): the network is immutable, so sharing it across
runs skips per-run construction and reuses the compiled routing arrays.  See
``docs/PERFORMANCE.md`` for the measured effect of this design.

Trace replay
------------
Besides the Bernoulli injection process, the simulator can **replay a
recorded workload trace** (``trace=`` parameter): packets are created exactly
at the cycles a :class:`~repro.workloads.trace.WorkloadTrace` recorded them,
with the recorded per-packet sizes, through the deterministic
:class:`~repro.simulator.traffic.TraceInjector`.  In trace mode every packet
is measured and every delivery counts (throughput is normalised by the trace
duration, with drain-time arrivals included, so a fully drained replay
accepts exactly what the trace offered); the run drains after the trace ends
exactly like a synthetic run.  Per-phase statistics (one
:class:`~repro.simulator.statistics.PhaseStats` per named trace phase) are
reported in ``SimulationStats.phases``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simulator.engine import (
    DEFAULT_ENGINE,
    ENGINE_FACTORIES,
    check_engine_name,
    make_engine,
)
from repro.simulator.network import Network, NetworkConfig, build_network
from repro.simulator.routing_tables import RoutingTables
from repro.simulator.statistics import SimulationStats
from repro.simulator.traffic import check_traffic_name
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError, check_in_range, check_type

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes
    ----------
    injection_rate:
        Offered load in flits per tile per cycle (fraction of capacity).
    traffic:
        Traffic pattern name (``uniform`` is the paper's evaluation pattern).
    packet_size_flits, num_vcs, buffer_depth_flits, router_pipeline_cycles:
        Router/packet configuration (see :class:`NetworkConfig`).
    warmup_cycles, measurement_cycles, drain_max_cycles:
        Phase lengths.
    seed:
        RNG seed (traffic generation).
    engine:
        Simulation-engine name (see :mod:`repro.simulator.engine`):
        ``"soa"`` (struct-of-arrays kernel, the default), ``"reference"``
        (object-graph kernel, the bit-identical ground truth and several
        times slower), ``"sanitizer"`` (reference kernel plus per-cycle
        invariant checks, bit-identical and slower) or ``"vec"`` (numpy
        kernel with a batch axis).  Because all engines produce
        identical statistics, the engine is *not* part of an experiment's
        identity hash.
    audit_interval:
        Sampling period of the sanitizer engine's invariant audit: the full
        state audit runs every ``audit_interval`` cycles instead of every
        cycle.  ``1`` (the default) audits every cycle.  The audit only
        *reads* state, so the statistics are bit-identical for any value;
        like ``engine``, the interval is excluded from experiment identity.
        Ignored by the other engines.
    """

    injection_rate: float = 0.05
    traffic: str = "uniform"
    packet_size_flits: int = 4
    num_vcs: int = 8
    buffer_depth_flits: int = 4
    router_pipeline_cycles: int = 2
    warmup_cycles: int = 500
    measurement_cycles: int = 1000
    drain_max_cycles: int = 3000
    seed: int = 1
    engine: str = DEFAULT_ENGINE
    audit_interval: int = 1

    def __post_init__(self) -> None:
        check_traffic_name(self.traffic)
        check_engine_name(self.engine)
        check_in_range("injection_rate", self.injection_rate, 0.0, 1.0)
        check_type("warmup_cycles", self.warmup_cycles, int)
        check_type("measurement_cycles", self.measurement_cycles, int)
        check_type("drain_max_cycles", self.drain_max_cycles, int)
        check_type("audit_interval", self.audit_interval, int)
        if self.audit_interval < 1:
            raise ValidationError("audit_interval must be >= 1")
        if self.measurement_cycles < 1:
            raise ValidationError("measurement_cycles must be >= 1")
        if self.warmup_cycles < 0 or self.drain_max_cycles < 0:
            raise ValidationError("cycle counts must be non-negative")
        # Validate the VC/buffer parameters here, not only when the network
        # is built: a bad value would otherwise surface as a late IndexError
        # deep inside a run instead of at construction.
        check_type("num_vcs", self.num_vcs, int)
        check_type("buffer_depth_flits", self.buffer_depth_flits, int)
        check_type("router_pipeline_cycles", self.router_pipeline_cycles, int)
        check_type("packet_size_flits", self.packet_size_flits, int)
        if self.num_vcs < 1:
            raise ValidationError(
                f"num_vcs must be >= 1 (got {self.num_vcs}): the escape VC "
                "(VC 0) always exists; num_vcs >= 2 adds the adaptive layer"
            )
        if self.buffer_depth_flits < 1:
            raise ValidationError(
                f"buffer_depth_flits must be >= 1 (got {self.buffer_depth_flits})"
            )
        if self.router_pipeline_cycles < 1:
            raise ValidationError(
                f"router_pipeline_cycles must be >= 1 "
                f"(got {self.router_pipeline_cycles})"
            )
        if self.packet_size_flits < 1:
            raise ValidationError(
                f"packet_size_flits must be >= 1 (got {self.packet_size_flits})"
            )

    @property
    def batched(self) -> bool:
        """Whether runs fuse into batched kernels: the engine has a batch axis."""
        return ENGINE_FACTORIES[self.engine].batch_axis

    def network_config(self) -> NetworkConfig:
        """Derive the router-level configuration."""
        return NetworkConfig(
            num_vcs=self.num_vcs,
            buffer_depth_flits=self.buffer_depth_flits,
            router_pipeline_cycles=self.router_pipeline_cycles,
            packet_size_flits=self.packet_size_flits,
        )


class Simulator:
    """Cycle-accurate simulation of one topology under one traffic load.

    Parameters
    ----------
    topology:
        The NoC topology to simulate.
    config:
        Run configuration; defaults to the paper's evaluation setup.  Its
        ``engine`` field names the kernel implementation to run.
    link_latencies:
        Per-link latency estimates from the physical model (ignored when a
        prebuilt ``network`` is given, which already carries them).
    routing:
        Pre-built routing tables to share across runs (ignored when a
        prebuilt ``network`` is given).
    network:
        A prebuilt :class:`Network` to reuse.  It must have been built from
        ``topology`` with a :class:`NetworkConfig` equal to
        ``config.network_config()`` — load sweeps use this to skip per-run
        network construction.
    trace:
        A :class:`~repro.workloads.trace.WorkloadTrace` to replay instead of
        Bernoulli injection.  The trace must address the same number of
        tiles as the topology; ``config.injection_rate``, ``traffic``,
        ``packet_size_flits`` (for injection), ``warmup_cycles`` and
        ``measurement_cycles`` are ignored in trace mode (the measurement
        window is the trace duration; ``drain_max_cycles`` still bounds the
        drain).
    """

    def __init__(
        self,
        topology: Topology,
        config: SimulationConfig | None = None,
        link_latencies: dict[Link, int] | None = None,
        routing: RoutingTables | None = None,
        network: Network | None = None,
        trace: "WorkloadTrace | None" = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if network is not None:
            if network.topology is not topology:
                raise ValidationError(
                    "prebuilt network was constructed from a different topology"
                )
            if network.config != self.config.network_config():
                raise ValidationError(
                    "prebuilt network was constructed with different "
                    "router/network parameters (num_vcs, buffer_depth_flits, "
                    "router_pipeline_cycles, packet_size_flits)"
                )
            self.network = network
        else:
            self.network = build_network(
                topology,
                config=self.config.network_config(),
                link_latencies=link_latencies,
                routing=routing,
            )
        if trace is not None and trace.num_tiles != self.network.num_nodes:
            raise ValidationError(
                f"trace addresses {trace.num_tiles} tiles but the topology "
                f"has {self.network.num_nodes}"
            )
        self.engine = make_engine(
            self.config.engine, topology, self.config, self.network, trace=trace
        )

    @property
    def cycles_simulated(self) -> int:
        """Number of cycles the kernel has advanced through so far."""
        return self.engine.cycles_simulated

    def run(self) -> SimulationStats:
        """Run warmup, measurement and drain and return the statistics.

        In trace mode the measurement window spans the whole trace (warmup
        is empty — every replayed packet is measured) and the run drains
        until every packet arrived or ``drain_max_cycles`` expires.
        """
        return self.engine.run()
