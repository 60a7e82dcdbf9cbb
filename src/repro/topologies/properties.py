"""Graph-level analysis of NoC topologies.

Computes the quantities that appear in Table I of the paper (router radix,
network diameter, presence/usage of physically minimal paths) plus a few
additional metrics used by the design-principle scoring and by the
customization strategy (average hop count, link alignment, link lengths,
bisection width).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.topologies.base import Topology


@dataclass(frozen=True)
class TopologyProperties:
    """Summary of the graph-level properties of a topology.

    Attributes
    ----------
    name:
        Topology name.
    rows, cols, num_tiles, num_links:
        Size of the grid and the link count.
    router_radix:
        Maximum router radix (router-to-router links + endpoint ports).
    diameter:
        Network diameter in router-to-router hops.
    average_hop_count:
        Mean shortest-path hop count over all ordered tile pairs.
    fraction_aligned_links:
        Fraction of links that stay within a single row or column.
    fraction_short_links:
        Fraction of links connecting grid-adjacent tiles (length 1).
    max_link_length:
        Longest link, measured in tile pitches (Manhattan).
    average_link_length:
        Mean link length in tile pitches.
    minimal_paths_present:
        ``True`` if, for every tile pair, the topology contains *some* path
        whose physical length equals the Manhattan distance between the tiles
        (design principle ❹, column "Present" in Table I).
    minimal_paths_used:
        ``True`` if, for every tile pair, at least one *hop-minimal* path is
        also physically minimal, i.e. a routing algorithm that minimises the
        number of hops can use physically minimal paths (column "Used").
    bisection_links:
        Number of links crossing the vertical bisection of the grid.
    """

    name: str
    rows: int
    cols: int
    num_tiles: int
    num_links: int
    router_radix: int
    diameter: int
    average_hop_count: float
    fraction_aligned_links: float
    fraction_short_links: float
    max_link_length: int
    average_link_length: float
    minimal_paths_present: bool
    minimal_paths_used: bool
    bisection_links: int


def analyze_topology(topology: Topology) -> TopologyProperties:
    """Compute :class:`TopologyProperties` for ``topology``.

    The minimal-path analysis is exact (all-pairs) and runs in
    ``O(N * (N + L))`` which is instantaneous for the chip sizes considered in
    the paper (64-256 tiles).
    """
    topology.validate_connected()
    num_links = topology.num_links
    aligned = sum(1 for link in topology.links if topology.link_is_aligned(link))
    lengths = topology.link_lengths.tolist()
    short = sum(1 for length in lengths if length == 1)

    present, used = _minimal_path_analysis(topology)

    return TopologyProperties(
        name=topology.name,
        rows=topology.rows,
        cols=topology.cols,
        num_tiles=topology.num_tiles,
        num_links=num_links,
        router_radix=topology.router_radix(),
        diameter=topology.diameter(),
        average_hop_count=topology.average_hop_count(),
        fraction_aligned_links=aligned / num_links,
        fraction_short_links=short / num_links,
        max_link_length=max(lengths),
        average_link_length=sum(lengths) / num_links,
        minimal_paths_present=present,
        minimal_paths_used=used,
        bisection_links=bisection_link_count(topology),
    )


def bisection_link_count(topology: Topology) -> int:
    """Number of links crossing the vertical bisection of the tile grid.

    The grid is cut between column ``C//2 - 1`` and column ``C//2``; links with
    endpoints on both sides of the cut are counted.  For topologies on a
    single column the horizontal bisection is used instead.
    """
    if topology.cols >= 2:
        side = topology.tile_cols < topology.cols // 2
    else:
        side = topology.tile_rows < topology.rows // 2
    crossing = side[topology.link_ends]
    return int(np.count_nonzero(crossing[:, 0] != crossing[:, 1]))


def physical_link_length_graph(topology: Topology) -> nx.Graph:
    """Return a graph whose edge weights are physical link lengths (tile pitches)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_tiles))
    for link in topology.links:
        graph.add_edge(link.src, link.dst, length=topology.link_grid_length(link))
    return graph


def _minimal_path_analysis(topology: Topology) -> tuple[bool, bool]:
    """Return ``(minimal_paths_present, minimal_paths_used)`` (Table I columns)."""
    weighted = physical_link_length_graph(topology)

    # Shortest *physical* distance between all pairs.
    physical_distance = dict(nx.all_pairs_dijkstra_path_length(weighted, weight="length"))
    # Shortest *hop* distance between all pairs.
    hop_distance = dict(nx.all_pairs_shortest_path_length(topology.graph))

    present = True
    used = True
    rows, cols = topology.tile_rows.tolist(), topology.tile_cols.tolist()
    for src in topology.tiles():
        # Minimum physical length among hop-minimal paths, via a Dijkstra
        # restricted to edges that lie on some hop-minimal path from src.
        min_physical_on_hop_minimal = _min_length_on_hop_minimal_paths(
            topology, weighted, hop_distance[src], src
        )
        for dst in topology.tiles():
            if dst == src:
                continue
            manhattan = abs(rows[src] - rows[dst]) + abs(cols[src] - cols[dst])
            if physical_distance[src][dst] > manhattan:
                present = False
            if min_physical_on_hop_minimal[dst] > manhattan:
                used = False
        if not present and not used:
            break
    # If minimal paths are not even present they cannot be used.
    if not present:
        used = False
    return present, used


def _min_length_on_hop_minimal_paths(
    topology: Topology,
    weighted: nx.Graph,
    hops_from_src: dict[int, int],
    src: int,
) -> dict[int, float]:
    """Minimum physical path length from ``src`` restricted to hop-minimal paths.

    Hop-minimal paths from ``src`` form a DAG (edges go from hop level ``h`` to
    ``h+1``); a dynamic program over increasing hop level yields, for every
    destination, the physically shortest path among all hop-minimal paths.
    """
    best: dict[int, float] = {src: 0.0}
    # Process nodes in order of increasing hop count from src.
    for node in sorted(hops_from_src, key=hops_from_src.get):
        if node not in best:
            # Unreachable via recorded predecessors; should not happen in a
            # connected topology but guard anyway.
            continue
        level = hops_from_src[node]
        for neighbor in weighted.neighbors(node):
            if hops_from_src.get(neighbor) == level + 1:
                candidate = best[node] + weighted.edges[node, neighbor]["length"]
                if candidate < best.get(neighbor, float("inf")):
                    best[neighbor] = candidate
    return best
