"""Scoring of topologies against the four NoC topology design principles.

Section II of the paper identifies four principles:

* ❶ use low-radix topologies (cost),
* ❷ design for link routability — short links (SL), aligned links (AL),
  uniform link density (ULD), optimized port placement (OPP) (cost),
* ❸ minimize the network diameter (performance),
* ❹ minimize the physical path length (performance), split into *presence* of
  physically-minimal paths and their *use* by hop-minimising routing.

Table I reports the compliance of every considered topology with these
principles.  This module derives the compliance ratings from the actual graph
structure (rather than hard-coding the table), so that the ratings can be
recomputed for arbitrary grids and arbitrary sparse-Hamming-graph
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.physical.floorplan import PORT_SIDES, port_side_codes
from repro.topologies.base import Topology
from repro.topologies.properties import TopologyProperties, analyze_topology


class Compliance(Enum):
    """Three-valued compliance rating used in Table I (✔ / ∼ / ✘)."""

    YES = "yes"
    PARTIAL = "partial"
    NO = "no"

    @property
    def symbol(self) -> str:
        """The symbol used in the paper's Table I."""
        return {"yes": "✔", "partial": "∼", "no": "✘"}[self.value]


@dataclass(frozen=True)
class DesignPrincipleScores:
    """Compliance of one topology with the four design principles.

    The thresholds used to map continuous graph metrics to the three-valued
    ratings are documented on each field; they are chosen so that the
    established topologies reproduce the ratings of Table I.
    """

    topology_name: str
    properties: TopologyProperties
    low_radix: Compliance
    short_links: Compliance
    aligned_links: Compliance
    uniform_link_density: Compliance
    optimized_port_placement: Compliance
    low_diameter: Compliance
    minimal_paths_present: Compliance
    minimal_paths_used: Compliance

    def as_row(self) -> dict[str, str]:
        """Return the Table I row for this topology (symbols, radix and diameter)."""
        return {
            "Topology": self.topology_name,
            "Router Radix": str(self.properties.router_radix),
            "SL": self.short_links.symbol,
            "AL": self.aligned_links.symbol,
            "ULD": self.uniform_link_density.symbol,
            "OPP": self.optimized_port_placement.symbol,
            "Network Diameter": str(self.properties.diameter),
            "Minimal Paths Present": self.minimal_paths_present.symbol,
            "Minimal Paths Used": self.minimal_paths_used.symbol,
        }


def score_design_principles(topology: Topology) -> DesignPrincipleScores:
    """Score ``topology`` against the four design principles of Section II.

    The ratings are computed from graph metrics:

    * *low radix* — ✔ if the maximum router-to-router degree is at most 6
      (mesh/torus class), ∼ up to ``sqrt(N) + 2``, ✘ beyond.
    * *short links* (SL) — ✔ if at least 90% of links connect grid-adjacent
      tiles, ∼ if the maximum link length is at most 2 tile pitches (folded
      torus class), ✘ otherwise.
    * *aligned links* (AL) — ✔ if every link stays within one row or column.
    * *uniform link density* (ULD) — based on the variance of per-channel link
      counts: ✔ if every inter-tile channel carries a similar number of link
      segments, ∼/✘ with growing imbalance (ring concentrates links in a few
      channels; SlimNoC is highly non-uniform).
    * *optimized port placement* (OPP) — ✔ if no tile needs more than a
      balanced number of ports on any single face; the ring is the classic
      violator because its snake embedding needs two ports on one face.
    * *low diameter* — ✔ if the diameter is at most ``ceil(log2(N))``,
      ∼ within 2x of that, ✘ beyond (mesh/ring class).
    * *minimal paths present / used* — taken directly from the exact
      all-pairs analysis in :mod:`repro.topologies.properties`.
    """
    props = analyze_topology(topology)
    n = topology.num_tiles

    max_degree = topology.max_degree()
    if max_degree <= 6:
        low_radix = Compliance.YES
    elif max_degree <= int(n**0.5) + 2:
        low_radix = Compliance.PARTIAL
    else:
        low_radix = Compliance.NO

    if props.fraction_short_links >= 0.9:
        short_links = Compliance.YES
    elif props.max_link_length <= 2:
        short_links = Compliance.PARTIAL
    else:
        short_links = Compliance.NO

    aligned_links = (
        Compliance.YES if props.fraction_aligned_links >= 0.999 else Compliance.NO
    )

    uniform_link_density = _uniform_link_density_rating(topology)
    optimized_port_placement = _port_placement_rating(topology)

    import math

    log_n = max(1, math.ceil(math.log2(n)))
    if props.diameter <= log_n:
        low_diameter = Compliance.YES
    elif props.diameter <= 2 * log_n:
        low_diameter = Compliance.PARTIAL
    else:
        low_diameter = Compliance.NO

    return DesignPrincipleScores(
        topology_name=topology.name,
        properties=props,
        low_radix=low_radix,
        short_links=short_links,
        aligned_links=aligned_links,
        uniform_link_density=uniform_link_density,
        optimized_port_placement=optimized_port_placement,
        low_diameter=low_diameter,
        minimal_paths_present=(
            Compliance.YES if props.minimal_paths_present else Compliance.NO
        ),
        minimal_paths_used=(
            Compliance.YES if props.minimal_paths_used else Compliance.NO
        ),
    )


def _channel_loads(topology: Topology) -> tuple[list[int], list[int]]:
    """Count link segments per horizontal and vertical inter-tile channel.

    A *horizontal channel* is the space between two adjacent columns of tiles
    within one row band; aligned links crossing that gap contribute one
    segment.  Non-aligned links are assigned to channels along an L-shaped
    (row-first) route, mirroring how the global router of the physical model
    treats them.  The resulting per-channel counts drive the ULD rating.
    """
    rows, cols = topology.rows, topology.cols
    src, dst = topology.link_ends.T
    src_row, src_col = topology.tile_rows[src], topology.tile_cols[src]
    dst_row, dst_col = topology.tile_rows[dst], topology.tile_cols[dst]
    # Route row-first: along the row of the source, then along the column of
    # the destination.  Each span [low, high) of channels is marked +1 at
    # ``low`` and -1 at ``high``; a running sum then counts the segments.
    # horizontal[r, c] = segments crossing between column c and c+1 in row r
    horizontal = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(horizontal, (src_row, np.minimum(src_col, dst_col)), 1)
    np.add.at(horizontal, (src_row, np.maximum(src_col, dst_col)), -1)
    # vertical[r, c] = segments crossing between row r and r+1 in column c
    vertical = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(vertical, (np.minimum(src_row, dst_row), dst_col), 1)
    np.add.at(vertical, (np.maximum(src_row, dst_row), dst_col), -1)
    h_flat = np.cumsum(horizontal, axis=1)[:, : cols - 1].ravel().tolist()
    v_flat = np.cumsum(vertical, axis=0)[: rows - 1].ravel().tolist()
    return h_flat, v_flat


def _uniform_link_density_rating(topology: Topology) -> Compliance:
    """Rate the uniformity of link density across inter-tile channels."""
    h_flat, v_flat = _channel_loads(topology)
    loads = [x for x in h_flat + v_flat]
    if not loads:
        return Compliance.YES
    peak = max(loads)
    mean = sum(loads) / len(loads)
    if peak == 0:
        return Compliance.YES
    ratio = peak / mean if mean > 0 else float("inf")
    if ratio <= 1.5:
        return Compliance.YES
    if ratio <= 2.5:
        return Compliance.PARTIAL
    return Compliance.NO


def _port_placement_rating(topology: Topology) -> Compliance:
    """Rate whether ports can be spread evenly over the four tile faces.

    For every tile we count the links leaving through each of the four faces,
    with the floorplan's port-side rule (a non-aligned link leaves in its
    dominant direction).
    If some face of some tile has to host a disproportionate share of the
    tile's ports (more than 60% while other faces are idle), port placement
    cannot be optimised — the situation of the ring topology in Figure 1a.
    """
    # Ports per (tile, face), each on the face the floorplan would put it.
    faces = topology.link_ends * len(PORT_SIDES) + port_side_codes(topology)
    per_face = np.bincount(faces.ravel(), minlength=topology.num_tiles * len(PORT_SIDES))
    per_face = per_face.reshape(topology.num_tiles, len(PORT_SIDES)).tolist()
    worst_imbalance = 0.0
    for tile in topology.tiles():
        total = sum(per_face[tile])
        if total <= 1:
            continue
        # Imbalance: fraction of ports on the busiest face relative to an even spread
        # over the faces that could host them (interior tiles have 4 usable faces).
        coord = topology.coord(tile)
        usable_faces = 4
        if coord.row in (0, topology.rows - 1):
            usable_faces -= 1
        if coord.col in (0, topology.cols - 1):
            usable_faces -= 1
        usable_faces = max(usable_faces, 1)
        busiest = max(per_face[tile]) / total
        even = 1.0 / min(usable_faces, 4)
        worst_imbalance = max(worst_imbalance, busiest - even)
    if worst_imbalance <= 0.26:
        return Compliance.YES
    if worst_imbalance <= 0.5:
        return Compliance.PARTIAL
    return Compliance.NO
