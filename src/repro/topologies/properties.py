"""Graph-level analysis of NoC topologies.

Computes the quantities that appear in Table I of the paper (router radix,
network diameter, presence/usage of physically minimal paths) plus a few
additional metrics used by the design-principle scoring and by the
customization strategy (average hop count, link alignment, link lengths,
bisection width).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The minimal-path analysis is exact (all-pairs).  Hop distances and the
    physical length of hop-minimal paths come from the topology's cached
    :attr:`~repro.topologies.base.Topology.hop_minimal_paths` pass (one
    breadth-first sweep over all ``N^2`` pairs, shared with the routing
    tables); the shortest physical distances from an ``O(N^3)`` array
    Floyd-Warshall.  Each takes tens of milliseconds at the paper's largest
    chip (256 tiles).
    """
    topology.validate_connected()
    num_links = topology.num_links
    src, dst = topology.link_ends.T
    rows, cols = topology.tile_rows, topology.tile_cols
    aligned = int(np.count_nonzero((rows[src] == rows[dst]) | (cols[src] == cols[dst])))
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


def _minimal_path_analysis(topology: Topology) -> tuple[bool, bool]:
    """Return ``(minimal_paths_present, minimal_paths_used)`` (Table I columns).

    A path is physically minimal when its length equals the Manhattan
    distance of its ends.  Minimal paths are *present* when the shortest
    physical distance of every pair is its Manhattan distance, and *used*
    when, in addition, some hop-minimal path of every pair is that short.
    """
    rows, cols = topology.tile_rows, topology.tile_cols
    manhattan = np.abs(rows[:, None] - rows) + np.abs(cols[:, None] - cols)
    present = bool((_physical_distances(topology) <= manhattan).all())
    used = present and bool((topology.hop_minimal_paths.hop_minimal_length <= manhattan).all())
    return present, used


def _physical_distances(topology: Topology) -> np.ndarray:
    """All-pairs shortest physical distance in tile pitches (Floyd-Warshall).

    Lengths are integers, so the distances are exact; an unconnected pair
    keeps a distance no path can have.
    """
    num = topology.num_tiles
    unreachable = int(topology.link_lengths.sum()) + 1
    distance = np.full((num, num), unreachable, dtype=np.int64)
    src, dst = topology.link_ends.T
    distance[src, dst] = distance[dst, src] = topology.link_lengths
    np.fill_diagonal(distance, 0)
    for via in range(num):
        np.minimum(distance, distance[:, via, None] + distance[via], out=distance)
    return distance
