"""Load sweeps: zero-load latency and saturation throughput.

The paper's performance metrics (Figure 6) are the *zero-load latency* and the
*saturation throughput* obtained from cycle-accurate simulation:

* zero-load latency — average packet latency at a very low injection rate,
  where no contention occurs;
* saturation throughput — the largest offered load (as a fraction of the
  injection capacity of one flit per tile per cycle) that the network can
  still accept; beyond it the accepted throughput flattens and the latency
  diverges.

``find_saturation_throughput`` performs a coarse geometric sweep followed by a
bisection refinement; a load point counts as *saturated* when the average
latency exceeds ``latency_blowup`` times the zero-load latency, when the
accepted throughput falls short of the offered load, or when the network fails
to drain the measured packets.

Every sweep builds the routing tables and the :class:`Network` **once** and
shares them across all simulated load points — only the injection rate varies
between points, and neither structure depends on it.  Callers that sweep the
same topology repeatedly (e.g. the prediction toolchain) can pass prebuilt
``routing`` and/or ``network`` objects to skip construction entirely.

One round loop
--------------
Every simulation is a *plan*: a generator that yields rounds (lists of
:class:`SimulationConfig`), receives each round's statistics and returns its
outcome — the saturation search (:func:`saturation_plan`) or a single run
(:func:`single_plan`).  :func:`run_plans` is the only code that turns rounds
into kernel runs.  Unbatched, it runs each config through
``Simulator(...).run()``; batched, it fuses ready rounds into ``vec`` kernels
(:func:`~repro.simulator.engine.vec.run_batched`) and re-arms a plan's next
round into the running kernel.  :func:`find_saturation_throughput`,
:func:`run_load_sweep`, :func:`replay_trace` and :func:`run_batch` are
one-call wrappers over it, batched when the configured engine has a batch axis
(:attr:`SimulationConfig.batched`); the gang scheduler
(:mod:`repro.experiments.scheduler`) drives many specs' plans through it at
once.  Batching never changes results: each lane is bit-identical to its solo
run, and the batched coarse stage trims its results to exactly the points the
sequential loop would have visited, so the returned ``points`` list — and with
it every downstream consumer, including the experiment memoization cache
shared across engines — is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Generator, Sequence

from repro.simulator.engine.vec import run_batched
from repro.simulator.network import Network, build_network
from repro.simulator.routing_tables import RoutingTables
from repro.simulator.simulation import SimulationConfig, Simulator
from repro.simulator.statistics import SimulationStats
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError, check_in_range

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace

#: A plan: yields rounds of configs, is sent each round's statistics, and
#: returns its outcome.
Plan = Generator["list[SimulationConfig]", "list[SimulationStats]", Any]


@dataclass
class LoadSweepResult:
    """Result of a full load sweep on one topology.

    Attributes
    ----------
    zero_load_latency:
        Average packet latency (cycles) at the probe load.
    saturation_throughput:
        Saturation injection rate as a fraction of capacity (0..1).
    points:
        The individual ``(injection_rate, SimulationStats)`` samples, in the
        order they were simulated.
    """

    zero_load_latency: float
    saturation_throughput: float
    points: list[tuple[float, SimulationStats]]


def _shared_network(
    topology: Topology,
    config: SimulationConfig,
    link_latencies: dict[Link, int] | None,
    routing: RoutingTables | None,
    network: Network | None,
) -> Network:
    """The network reused by every load point of one sweep.

    A prebuilt ``network`` wins outright (it already carries its routing
    tables); otherwise :func:`build_network` builds the tables only when no
    ``routing`` is given, so the prebuilt-network fast path never pays the
    all-pairs BFS.
    """
    if network is not None:
        return network
    return build_network(
        topology,
        config=config.network_config(),
        link_latencies=link_latencies,
        routing=routing,
    )


def single_plan(config: SimulationConfig) -> Plan:
    """A plan of one round with one run; returns that run's statistics."""
    (stats,) = yield [config]
    return stats


def run_plans(
    topology: Topology,
    network: Network,
    plans: Sequence[Plan],
    batched: bool,
    traces: "Sequence[WorkloadTrace | None] | None" = None,
    max_width: int | None = None,
) -> tuple[list[Any], int]:
    """Drive ``plans`` to completion on ``network``: ``(outcomes, lanes run)``.

    ``traces`` (parallel to ``plans``) names the workload trace every run of
    a plan replays.  Unbatched, each plan runs to completion in turn, one
    ``Simulator(...).run()`` per config.  Batched, every ready lane starts
    one :func:`~repro.simulator.engine.vec.run_batched` kernel (at most
    ``max_width`` wide, the rest queued for recycled slots); a plan's next
    round is re-armed into that kernel while other lanes still run, and
    otherwise starts a new kernel sized to the ready round — so a lone
    saturation search runs its coarse round six lanes wide.  Outcomes are
    parallel to ``plans`` and identical either way.
    """
    plans = list(plans)
    traces = list(traces) if traces is not None else [None] * len(plans)
    outcomes: list[Any] = [None] * len(plans)
    lanes = 0

    def advance(index: int, stats: "list[SimulationStats] | None") -> list:
        """Send plan ``index`` its round's stats; return its next round."""
        nonlocal lanes
        try:
            configs = plans[index].send(stats)
        except StopIteration as stop:
            outcomes[index] = stop.value
            return []
        lanes += len(configs)
        return configs

    def simulator(index: int, config: SimulationConfig) -> Simulator:
        return Simulator(topology, config, network=network, trace=traces[index])

    if not batched:
        for index in range(len(plans)):
            configs = advance(index, None)
            while configs:
                configs = advance(
                    index, [simulator(index, config).run() for config in configs]
                )
        return outcomes, lanes

    round_stats: list[list] = [[] for _ in plans]
    lane_of: dict[int, tuple[int, int]] = {}  # unfinished lanes, armed or queued
    ready: list = []

    def arm(index: int, configs: list) -> list:
        """Vec lanes for plan ``index``'s round ``configs``."""
        round_stats[index] = [None] * len(configs)
        engines = []
        for position, config in enumerate(configs):
            engine = simulator(index, replace(config, engine="vec")).engine
            lane_of[id(engine)] = (index, position)
            engines.append(engine)
        return engines

    def on_finish(engine, stats: SimulationStats) -> list:
        index, position = lane_of.pop(id(engine))
        round_stats[index][position] = stats
        if any(done is None for done in round_stats[index]):
            return []
        kernel_busy = bool(lane_of)
        engines = arm(index, advance(index, round_stats[index]))
        if kernel_busy:
            return engines
        ready.extend(engines)
        return []

    for index in range(len(plans)):
        ready.extend(arm(index, advance(index, None)))
    while ready:
        engines = ready[:]
        ready.clear()
        width = len(engines) if max_width is None else max_width
        run_batched(engines[:width], pending=engines[width:], on_finish=on_finish)
    return outcomes, lanes


def run_batch(
    topology: Topology,
    configs: "Sequence[SimulationConfig]",
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    network: Network | None = None,
    traces: "Sequence[WorkloadTrace | None] | None" = None,
) -> list[SimulationStats]:
    """Simulate many configurations of one topology in a single fused kernel.

    All lanes share one compiled network (so the router-level parameters
    must match across ``configs``) and run on the ``vec`` engine's batch
    axis whatever engine ``configs`` name — engines are bit-identical.
    ``traces`` optionally gives each lane a workload trace to replay
    (``None`` entries inject Bernoulli traffic); trace and synthetic lanes
    batch together freely.  The returned list is parallel to ``configs`` and
    each entry is bit-identical to the corresponding solo
    ``Simulator(...).run()``.
    """
    if not configs:
        raise ValidationError("run_batch needs at least one configuration")
    if traces is not None and len(traces) != len(configs):
        raise ValidationError(
            f"traces must be parallel to configs: got {len(traces)} traces "
            f"for {len(configs)} configurations"
        )
    network = _shared_network(topology, configs[0], link_latencies, routing, network)
    plans = [single_plan(config) for config in configs]
    return run_plans(topology, network, plans, batched=True, traces=traces)[0]


def measure_zero_load_latency(
    topology: Topology,
    config: SimulationConfig | None = None,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    probe_rate: float = 0.01,
    network: Network | None = None,
) -> SimulationStats:
    """Measure the latency at a probe load low enough to avoid contention."""
    check_in_range("probe_rate", probe_rate, 0.0, 1.0)
    ((_, stats),) = run_load_sweep(
        topology, [probe_rate], config, link_latencies, routing, network
    )
    return stats


def _is_saturated(
    stats: SimulationStats, zero_load_latency: float, latency_blowup: float
) -> bool:
    if not stats.drained:
        return True
    if stats.packets_measured == 0:
        return False
    # The accepted-load criterion needs an absolute slack term so that
    # small-sample noise at low loads does not get mistaken for saturation.
    if stats.accepted_load < 0.92 * stats.offered_load - 0.005:
        return True
    return stats.average_packet_latency > latency_blowup * max(zero_load_latency, 1.0)


def saturation_plan(
    base: SimulationConfig,
    latency_blowup: float = 3.0,
    coarse_steps: int = 6,
    refine_steps: int = 3,
    max_rate: float = 1.0,
    batch_coarse: bool = False,
) -> Plan:
    """The saturation search as a plan (see :func:`run_plans`).

    Yields lists of :class:`SimulationConfig` (one round of load points);
    the driver sends back the parallel list of :class:`SimulationStats`
    (``generator.send``), and the generator finishes with the
    :class:`LoadSweepResult` as its ``StopIteration`` value.  This decouples
    the search's control flow — probe, coarse bracket, bisection — from
    *how* the points are executed: :func:`find_saturation_throughput` runs
    one plan, while the gang scheduler (:mod:`repro.experiments.scheduler`)
    interleaves the plans of many specs through one lane-recycled kernel.
    The emitted rounds and the resulting ``points`` list are identical
    either way.

    With ``batch_coarse`` the whole coarse stage is emitted as one round
    (a batched run fuses it into a single kernel); results past the first
    saturated rate are trimmed exactly as the sequential walk would have
    stopped, so downstream consumers see the same points.
    """
    if coarse_steps < 2:
        raise ValidationError("coarse_steps must be >= 2")
    points: list[tuple[float, SimulationStats]] = []
    probe_rate = min(0.01, max_rate)
    (zero_load_stats,) = yield [replace(base, injection_rate=probe_rate)]
    zero_load_latency = zero_load_stats.average_packet_latency
    points.append((probe_rate, zero_load_stats))

    if _is_saturated(zero_load_stats, zero_load_latency, latency_blowup):
        # The probe load itself is saturated: the bracket degenerates to the
        # probe rate immediately.  Returning here (instead of sweeping on with
        # ``lo`` seeded to the probe rate) keeps noisy non-saturated midpoints
        # from bisecting ``lo`` upwards past any load the network was actually
        # shown to sustain.
        return LoadSweepResult(
            zero_load_latency=zero_load_latency,
            saturation_throughput=probe_rate,
            points=points,
        )

    # Coarse sweep: geometric spacing between the probe load and max_rate.
    coarse_rates = [
        min(max_rate, 0.02 * (max_rate / 0.02) ** (step / coarse_steps))
        for step in range(1, coarse_steps + 1)
    ]
    coarse_configs = [replace(base, injection_rate=rate) for rate in coarse_rates]
    # Batched, the whole coarse stage is one round.  The walk below still
    # stops at the first saturated rate, so the ``points`` list (and
    # everything derived from it) matches the sequential loop exactly — the
    # lanes past the break are simply discarded.
    coarse_stats = (yield coarse_configs) if batch_coarse else None
    lo, hi = None, None
    last_good = probe_rate
    for index, rate in enumerate(coarse_rates):
        if batch_coarse:
            stats = coarse_stats[index]
        else:
            (stats,) = yield [coarse_configs[index]]
        points.append((rate, stats))
        if _is_saturated(stats, zero_load_latency, latency_blowup):
            lo, hi = last_good, rate
            break
        last_good = rate
    if lo is None:
        # Never saturated up to max_rate: the network sustains full injection.
        return LoadSweepResult(
            zero_load_latency=zero_load_latency,
            saturation_throughput=last_good,
            points=points,
        )

    # Bisection refinement of the bracket [lo, hi].
    for _ in range(refine_steps):
        mid = (lo + hi) / 2.0
        (stats,) = yield [replace(base, injection_rate=mid)]
        points.append((mid, stats))
        if _is_saturated(stats, zero_load_latency, latency_blowup):
            hi = mid
        else:
            lo = mid
    return LoadSweepResult(
        zero_load_latency=zero_load_latency,
        saturation_throughput=lo,
        points=points,
    )


def find_saturation_throughput(
    topology: Topology,
    config: SimulationConfig | None = None,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    latency_blowup: float = 3.0,
    coarse_steps: int = 6,
    refine_steps: int = 3,
    max_rate: float = 1.0,
    network: Network | None = None,
) -> LoadSweepResult:
    """Estimate zero-load latency and saturation throughput by simulation.

    The sweep first probes a geometric sequence of injection rates to bracket
    the saturation point, then bisects the bracket ``refine_steps`` times.
    When the probe load itself is already saturated, the bracket degenerates
    to the probe rate and the reported saturation throughput is the probe
    rate (the network sustains no less than what it was shown to carry).

    The search logic lives in :func:`saturation_plan`; this function runs
    it through :func:`run_plans`, batched when the configured engine has a
    batch axis.
    """
    base = config or SimulationConfig()
    plan = saturation_plan(
        base,
        latency_blowup=latency_blowup,
        coarse_steps=coarse_steps,
        refine_steps=refine_steps,
        max_rate=max_rate,
        batch_coarse=base.batched,
    )
    network = _shared_network(topology, base, link_latencies, routing, network)
    (sweep,), _ = run_plans(topology, network, [plan], base.batched)
    return sweep


def replay_trace(
    topology: Topology,
    trace: "WorkloadTrace",
    config: SimulationConfig | None = None,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    network: Network | None = None,
) -> SimulationStats:
    """Replay a workload trace through the cycle-accurate simulator.

    The trace-driven counterpart of :func:`run_load_sweep`: the network (and
    with it the physical model's per-link latencies, when given) is shared
    with any prebuilt structures the caller supplies, and the returned
    :class:`~repro.simulator.statistics.SimulationStats` carries per-phase
    latency/throughput in ``stats.phases``.  Replay is deterministic — the
    same trace on the same network yields bit-identical statistics.

    Parameters
    ----------
    topology:
        The topology to replay on; its tile count must match
        ``trace.num_tiles``.
    trace:
        The :class:`~repro.workloads.trace.WorkloadTrace` to replay.
    config:
        Router/flow-control configuration; the Bernoulli-specific fields
        (``injection_rate``, ``traffic``, ``warmup_cycles``,
        ``measurement_cycles``) are ignored in trace mode, while
        ``drain_max_cycles`` still bounds the drain.
    link_latencies, routing, network:
        Prebuilt structures to share, exactly as in :func:`run_load_sweep`.

    Raises
    ------
    ValidationError
        If the trace addresses a different number of tiles than the topology
        has.  Checked up front, before any routing tables or network are
        built, so a mismatched replay fails fast instead of after the
        all-pairs BFS.
    """
    if trace.num_tiles != topology.num_tiles:
        raise ValidationError(
            f"trace {trace.name!r} addresses {trace.num_tiles} tiles but "
            f"topology {topology.name!r} has {topology.num_tiles}; generate "
            f"the trace for this grid or replay it on a matching topology"
        )
    base = config or SimulationConfig()
    network = _shared_network(topology, base, link_latencies, routing, network)
    (stats,), _ = run_plans(
        topology, network, [single_plan(base)], base.batched, traces=[trace]
    )
    return stats


def run_load_sweep(
    topology: Topology,
    rates: list[float],
    config: SimulationConfig | None = None,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    network: Network | None = None,
) -> list[tuple[float, SimulationStats]]:
    """Simulate a fixed list of injection rates (latency/throughput curves).

    With a batched engine (``vec``) all rates run as one fused kernel (same
    per-point statistics, lower wall-clock); otherwise the points run
    sequentially through the configured engine.
    """
    base = config or SimulationConfig()
    network = _shared_network(topology, base, link_latencies, routing, network)
    plans = [single_plan(replace(base, injection_rate=rate)) for rate in rates]
    outcomes, _ = run_plans(topology, network, plans, base.batched)
    return list(zip(rates, outcomes))
