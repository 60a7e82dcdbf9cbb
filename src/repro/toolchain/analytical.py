"""Fast analytical performance model.

The paper obtains zero-load latency and saturation throughput from
cycle-accurate BookSim2 simulations.  For large design-space sweeps (hundreds
of sparse-Hamming-graph configurations, the customization search, the Figure 6
benchmarks at full chip size) a Python cycle-accurate simulation is too slow,
so the toolchain also provides a standard analytical model that uses exactly
the same inputs — the routing tables and the physical model's per-link latency
estimates:

* **zero-load latency**: averaged over all source/destination pairs, a packet
  experiences one router traversal per hop (``router_pipeline_cycles`` each),
  the latency of every link on its path (from the physical model), the
  injection/ejection overhead, and the serialization latency of its remaining
  ``packet_size - 1`` flits.

* **saturation throughput**: the classical channel-load bound.  Under a given
  traffic pattern each directed channel sees an expected number of flits per
  injected flit; the network saturates when the most-loaded channel reaches
  its capacity of one flit per cycle.  A calibration factor (default 0.75)
  accounts for flow-control and allocation inefficiencies relative to the
  ideal bound; the factor was chosen so that the analytical results match the
  cycle-accurate simulator on small networks (see
  ``tests/integration/test_toolchain_consistency.py``).

The model is array code, and its results are pinned bit for bit
(``tests/fixtures/cheap_models_golden.json``), so its floating-point
summation order is part of its contract:

* **pair-major**: the pairs are listed once, in a fixed order (row-major for
  uniform traffic, first draw for sampled patterns, the mapping's order for
  ``pair_weights``), and every sum runs over them in that order;
* **sequential totals**: the weight, latency and hop totals are taken as
  ``np.cumsum(x)[-1]``, a left-to-right sum (``np.sum`` sums pairwise and
  changes the last bits);
* **blocked walk**: routes are followed for blocks of at most
  :data:`_BLOCK_PAIRS` pairs at a time, one hop level for the whole block per
  step, which bounds the hop records held at once.  A block's records are
  stably sorted by pair before ``np.add.at`` adds their weights to the
  channel loads, and blocks finish in pair order, so every channel sums its
  pairs in pair order.  A minimal route never uses a channel twice, so this
  is the order of a pair-by-pair walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.simulator.routing_tables import NodeTable, RoutingTables, build_routing_tables
from repro.simulator.traffic import TrafficPattern, UniformRandomTraffic, make_traffic_pattern
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError, check_in_range, check_positive

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.workloads.trace import WorkloadTrace

#: Pairs whose routes are walked together; bounds the hop records held at once.
_BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class AnalyticalPerformance:
    """Analytical performance estimate of one topology.

    Attributes
    ----------
    zero_load_latency_cycles:
        Average packet latency at zero load.
    saturation_throughput:
        Saturation injection rate as a fraction of capacity.
    average_hops:
        Mean hop count under the traffic pattern.
    max_channel_load:
        Expected flits per cycle on the most-loaded channel at an injection
        rate of one flit per tile per cycle.
    """

    zero_load_latency_cycles: float
    saturation_throughput: float
    average_hops: float
    max_channel_load: float


def _pattern_pairs(
    topology: Topology, pattern: TrafficPattern
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sources, destinations, weights)`` of the pairs a traffic pattern sends on.

    Uniform traffic has a closed form over all ordered pairs of distinct
    tiles, in row-major order.  Other patterns are estimated by sampling 32
    destinations per source from one sequential random stream; their pairs
    are listed in order of first draw, and a source that draws itself keeps
    that zero-hop pair.
    """
    num = topology.num_tiles
    if isinstance(pattern, UniformRandomTraffic):
        sources, destinations = np.nonzero(~np.eye(num, dtype=bool))
        return sources, destinations, np.full(sources.size, 1.0 / (num * (num - 1)))
    rng = np.random.default_rng(0)
    weights: dict[tuple[int, int], float] = {}
    draws = 32
    total = num * draws
    for source in range(num):
        for _ in range(draws):
            key = (source, pattern.destination(source, rng))
            weights[key] = weights.get(key, 0.0) + 1.0 / total
    return _mapping_pairs(weights)


def _mapping_pairs(
    weights: Mapping[tuple[int, int], float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ``(source, destination) -> weight`` mapping as arrays, in its order."""
    pairs = np.fromiter(
        (tile for pair in weights for tile in pair), dtype=np.int64, count=2 * len(weights)
    ).reshape(-1, 2)
    values = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
    return pairs[:, 0], pairs[:, 1], values


def pair_weights_from_trace(trace: "WorkloadTrace") -> dict[tuple[int, int], float]:
    """Pair probabilities proportional to a trace's per-pair flit volume.

    The trace's ``(source, destination)`` records, weighted by packet size,
    define the spatial traffic matrix an application actually offers.  Feeding
    these weights into :func:`analytical_performance` turns the generic
    analytical model into a *workload-aware* screening model: the zero-load
    latency is averaged over the pairs the application really exercises, and
    the channel-load bound reflects the links its traffic concentrates on.
    """
    num = trace.num_tiles
    unique, first, inverse = np.unique(
        trace.sources * num + trace.destinations, return_index=True, return_inverse=True
    )
    # Number the pairs in order of first occurrence, then add every record's
    # share onto its pair in record order (np.add.at is unbuffered and
    # sequential), which is the summation order of a per-record loop.
    by_first = np.argsort(first)
    weights = np.zeros(len(unique))
    np.add.at(weights, np.argsort(by_first)[inverse], trace.sizes / float(trace.total_flits))
    pairs = unique[by_first].tolist()
    return {(pair // num, pair % num): weight for pair, weight in zip(pairs, weights.tolist())}


def _next_hop_matrix(table: NodeTable) -> np.ndarray:
    """``table[node][destination]`` as an ``N x N`` array whose diagonal is ``node``."""
    num = len(table)
    matrix = np.array(
        [
            [row[dst] if dst != node else node for dst in range(num)]
            if isinstance(row, Mapping)
            else row
            for node, row in enumerate(table)
        ],
        dtype=np.int64,
    )
    diagonal = np.arange(num)
    matrix[diagonal, diagonal] = diagonal
    return matrix


def _link_latency_matrix(num: int, link_latencies: Mapping[Link, int]) -> np.ndarray:
    """Cycles of every directed hop: ``max(1, int(latency))``, 1 when unknown."""
    matrix = np.ones((num, num), dtype=np.int64)
    for link, cycles in link_latencies.items():
        matrix[link.src, link.dst] = matrix[link.dst, link.src] = max(1, int(cycles))
    return matrix


def _walk_paths(
    routing: RoutingTables,
    link_latency: np.ndarray,
    sources: np.ndarray,
    destinations: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Follow every pair's minimal route, all pairs of a block one hop at a time.

    Returns per-pair hop counts and summed link latencies, and the weighted
    load of every directed channel ``a * N + b``.  Blocks of
    :data:`_BLOCK_PAIRS` pairs are finished in pair order, and within a block
    the hop records are stably sorted by pair before ``np.add.at`` adds them,
    so every channel sums its pairs' weights in pair order.
    """
    num = len(link_latency)
    next_hop = _next_hop_matrix(routing.minimal)
    hops = np.zeros(sources.size, dtype=np.int64)
    path_latency = np.zeros(sources.size, dtype=np.int64)
    channel_load = np.zeros(num * num)
    for start in range(0, sources.size, _BLOCK_PAIRS):
        block = slice(start, start + _BLOCK_PAIRS)
        current, target = sources[block].copy(), destinations[block]
        block_hops, block_latency = hops[block], path_latency[block]
        pair_records: list[np.ndarray] = []
        channel_records: list[np.ndarray] = []
        walking = np.flatnonzero(current != target)
        while walking.size:
            if block_hops[walking[0]] >= num:  # a loop-free route has < N hops
                first = start + walking[0]
                raise ValidationError(
                    f"routing table loop detected from {sources[first]} "
                    f"to {destinations[first]}"
                )
            here = current[walking]
            there = next_hop[here, target[walking]]
            block_hops[walking] += 1
            block_latency[walking] += link_latency[here, there]
            pair_records.append(walking)
            channel_records.append(here * num + there)
            current[walking] = there
            walking = walking[there != target[walking]]
        if pair_records:
            order = np.argsort(np.concatenate(pair_records), kind="stable")
            pairs = np.concatenate(pair_records)[order]
            channels = np.concatenate(channel_records)[order]
            np.add.at(channel_load, channels, weights[block][pairs])
    return hops, path_latency, channel_load


def analytical_performance(
    topology: Topology,
    link_latencies: dict[Link, int] | None = None,
    routing: RoutingTables | None = None,
    traffic: str = "uniform",
    packet_size_flits: int = 4,
    router_pipeline_cycles: int = 2,
    injection_ejection_cycles: int = 2,
    flow_control_efficiency: float = 0.75,
    pair_weights: Mapping[tuple[int, int], float] | None = None,
) -> AnalyticalPerformance:
    """Estimate zero-load latency and saturation throughput analytically.

    Parameters mirror the simulator configuration so that both performance
    paths of the toolchain are driven by the same knobs.  When
    ``pair_weights`` is given (e.g. from :func:`pair_weights_from_trace`) it
    replaces the synthetic traffic pattern as the source/destination
    distribution; ``traffic`` is then ignored.
    """
    check_positive("packet_size_flits", packet_size_flits)
    check_positive("router_pipeline_cycles", router_pipeline_cycles)
    check_in_range("flow_control_efficiency", flow_control_efficiency, 0.1, 1.0)

    routing = routing or build_routing_tables(topology)
    num = topology.num_tiles
    if pair_weights is None:
        sources, destinations, weights = _pattern_pairs(
            topology, make_traffic_pattern(traffic, topology)
        )
    else:
        sources, destinations, weights = _mapping_pairs(pair_weights)
        outside = (np.minimum(sources, destinations) < 0) | (
            np.maximum(sources, destinations) >= num
        )
        if outside.any():
            first = int(np.argmax(outside))
            raise ValidationError(
                f"pair ({sources[first]}, {destinations[first]}) outside the "
                f"{num}-tile grid"
            )
        usable = (sources != destinations) & (weights > 0)
        if not usable.any():
            raise ValidationError("pair_weights contains no usable pairs")
        sources, destinations, weights = sources[usable], destinations[usable], weights[usable]

    hops, path_link_latency, channel_load = _walk_paths(
        routing, _link_latency_matrix(num, link_latencies or {}), sources, destinations, weights
    )
    latency = (
        hops * router_pipeline_cycles
        + path_link_latency
        + injection_ejection_cycles
        + (packet_size_flits - 1)
    )
    # Sequential sums in pair order (np.sum would sum pairwise).
    total_weight = np.cumsum(weights)[-1]
    average_latency = float(np.cumsum(weights * latency)[-1] / total_weight)
    average_hops = float(np.cumsum(weights * hops)[-1] / total_weight)

    # channel_load currently holds flits per channel per injected flit per tile,
    # normalised by the pair probabilities; at an injection rate of 1 flit per
    # tile per cycle, every tile contributes its share, so scale by N.
    max_channel_load = float(channel_load.max()) * num
    if max_channel_load <= 0:
        ideal_bound = 1.0
    else:
        # Channel-load bound, additionally capped by the injection/ejection
        # bandwidth of one flit per tile per cycle.
        ideal_bound = min(1.0, 1.0 / max_channel_load)
    saturation = min(1.0, flow_control_efficiency * ideal_bound)

    return AnalyticalPerformance(
        zero_load_latency_cycles=average_latency,
        saturation_throughput=saturation,
        average_hops=average_hops,
        max_channel_load=max_channel_load,
    )
