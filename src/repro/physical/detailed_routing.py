"""Step 5 of the prediction model: detailed routing in the grid of unit-cells.

After the global router has assigned every link to channels and the chip has
been discretized into unit cells, the detailed router fixes the exact *track*
(unit-cell lane) each link occupies inside its channels and derives the
physical wire length of every link.

The per-channel track assignment uses the classic **left-edge algorithm** from
channel routing: the link intervals occupying a channel are sorted by their
start coordinate and greedily packed into the lowest free track.  For interval
graphs this produces an optimal (minimum-track) assignment, so as long as each
channel is as wide as its peak global-routing load (which step 3 guarantees),
no two links collide in the same unit cell.  If a channel is artificially
capped below its peak load (``capacity_override``), the overflow is reported
as *collisions* — the quantity the paper's heuristic minimises.

The output records, for every link, the horizontal and vertical wire lengths
and the corresponding unit-cell counts ``N^H_cell`` / ``N^V_cell`` that feed
the power and link-latency estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.physical.global_routing import GlobalRoutingResult
from repro.physical.unit_cells import UnitCellGrid
from repro.topologies.base import Link


@dataclass(frozen=True)
class DetailedRoute:
    """Detailed routing result for one link.

    Attributes
    ----------
    link:
        The routed link.
    horizontal_mm, vertical_mm:
        Total horizontal / vertical wire length of the link.
    horizontal_cells, vertical_cells:
        Corresponding unit-cell counts (``N^H_cell`` and ``N^V_cell`` of the
        paper's link-latency formula).
    tracks:
        The ``(orientation, channel, track)`` assignments of the link's
        channel segments.
    """

    link: Link
    horizontal_mm: float
    vertical_mm: float
    horizontal_cells: int
    vertical_cells: int
    tracks: tuple[tuple[str, int, int], ...]

    @property
    def total_length_mm(self) -> float:
        """Total physical wire length of the link."""
        return self.horizontal_mm + self.vertical_mm


@dataclass
class DetailedRoutingResult:
    """Detailed routing of all links of a topology.

    The per-link arrays are indexed like ``topology.links``, and
    ``segment_tracks`` gives the track of every row of ``routing.segments``.
    :attr:`routes` follows the global router's routing order.
    """

    routing: GlobalRoutingResult
    horizontal_mm: np.ndarray
    vertical_mm: np.ndarray
    horizontal_cells: np.ndarray
    vertical_cells: np.ndarray
    segment_tracks: np.ndarray
    collisions: int
    tracks_per_channel: dict[tuple[str, int], int] = field(default_factory=dict)

    @cached_property
    def routes(self) -> dict[Link, DetailedRoute]:
        """One :class:`DetailedRoute` per link, in routing order."""
        links = self.routing.topology.links
        tracks: dict[int, list[tuple[str, int, int]]] = {}
        for (index, horizontal, channel, _, _), track in zip(
            self.routing.segments.tolist(), self.segment_tracks.tolist()
        ):
            tracks.setdefault(index, []).append(("H" if horizontal else "V", channel, track))
        horizontal_mm, vertical_mm = self.horizontal_mm.tolist(), self.vertical_mm.tolist()
        horizontal_cells = self.horizontal_cells.tolist()
        vertical_cells = self.vertical_cells.tolist()
        return {
            links[index]: DetailedRoute(
                link=links[index],
                horizontal_mm=horizontal_mm[index],
                vertical_mm=vertical_mm[index],
                horizontal_cells=horizontal_cells[index],
                vertical_cells=vertical_cells[index],
                tracks=tuple(tracks.get(index, ())),
            )
            for index in self.routing.order.tolist()
        }

    def total_wire_length_mm(self) -> float:
        """Sum of physical wire lengths over all links."""
        return sum((self.horizontal_mm + self.vertical_mm)[self.routing.order].tolist())

    def total_horizontal_cells(self) -> int:
        """``N^H_cell`` summed over all links."""
        return int(self.horizontal_cells.sum())

    def total_vertical_cells(self) -> int:
        """``N^V_cell`` summed over all links."""
        return int(self.vertical_cells.sum())


def _left_edge_assign(
    starts: np.ndarray, stops: np.ndarray, capacity: int | None
) -> tuple[np.ndarray, int, int]:
    """Assign tracks to the intervals of one channel with the left-edge algorithm.

    Returns the track of every interval (in input order), the number of
    tracks used, and the number of collisions (intervals that had to share
    an already-full track because ``capacity`` capped the channel).
    """
    # Stable sort by (start, stop): equal intervals keep their input order.
    ordered = np.lexsort((stops, starts))
    track_ends: list[float] = []
    tracks = np.empty(len(ordered), dtype=np.int64)
    collisions = 0
    for request, start, stop in zip(
        ordered.tolist(), starts[ordered].tolist(), stops[ordered].tolist()
    ):
        for track, end in enumerate(track_ends):
            if end <= start + 1e-12:
                track_ends[track] = stop
                break
        else:
            if capacity is None or len(track_ends) < capacity:
                track_ends.append(stop)
                track = len(track_ends) - 1
            else:
                # Channel is full: overflow onto the least-loaded track and
                # record the collision (two links sharing unit cells).
                track = min(range(len(track_ends)), key=track_ends.__getitem__)
                track_ends[track] = max(track_ends[track], stop)
                collisions += 1
        tracks[request] = track
    return tracks, len(track_ends), collisions


def _cells(length_mm: np.ndarray, cell_mm: float) -> np.ndarray:
    """Unit cells a wire of each length crosses: 0 for none, else at least 1."""
    cells = np.maximum(1, np.rint(length_mm / cell_mm)).astype(np.int64)
    return np.where(length_mm <= 0, 0, cells)


def detailed_route(
    grid: UnitCellGrid,
    routing: GlobalRoutingResult,
    capacity_override: dict[tuple[str, int], int] | None = None,
) -> DetailedRoutingResult:
    """Perform detailed routing of every link (model step 5).

    Parameters
    ----------
    grid:
        The discretized chip (provides coordinates, ports and track geometry).
    routing:
        Global routing result (channel assignment per link).
    capacity_override:
        Optional map ``(orientation, channel) -> max tracks`` used to study
        constrained channels; by default every channel is as wide as its peak
        global-routing load and no collisions occur.
    """
    port_x, port_y = grid.port_positions
    segments = routing.segments
    link, horizontal, channel = segments[:, 0], segments[:, 1].astype(bool), segments[:, 2]

    # The interval every segment occupies along its channel, between the
    # link's two ports.
    along = np.where(horizontal[:, None], port_x[link], port_y[link])
    starts, stops = along.min(axis=1), along.max(axis=1)

    # Left-edge track assignment per channel, channels in order of first use.
    keys = 2 * channel + ~horizontal
    _, first_use, inverse = np.unique(keys, return_index=True, return_inverse=True)
    tracks = np.empty(len(segments), dtype=np.int64)
    tracks_per_channel: dict[tuple[str, int], int] = {}
    total_collisions = 0
    for key in np.argsort(first_use).tolist():
        members = np.flatnonzero(inverse == key)
        channel_key = ("H" if horizontal[members[0]] else "V", int(channel[members[0]]))
        capacity = capacity_override.get(channel_key) if capacity_override else None
        tracks[members], used, collisions = _left_edge_assign(
            starts[members], stops[members], capacity
        )
        tracks_per_channel[channel_key] = used
        total_collisions += collisions

    # Track centerlines: every track is one unit cell wide.
    topology = routing.topology
    channel_y = [grid.horizontal_channel_y(c) for c in range(topology.rows + 1)]
    channel_x = [grid.vertical_channel_x(c) for c in range(topology.cols + 1)]
    edge = np.array(channel_y + channel_x)[np.where(horizontal, 0, len(channel_y)) + channel]
    track_position = edge + (tracks + 0.5) * np.where(
        horizontal, grid.cell_height_mm, grid.cell_width_mm
    )

    # Wire lengths.  A direct link runs straight between its facing ports.
    # A channel-routed wire starts at the source port, jogs onto the track of
    # its first segment, runs along it to the destination's coordinate,
    # transfers to the next segment's track (L-shaped routes), and finally
    # jogs into the destination port.  Horizontal running length and vertical
    # jog length are accumulated separately because they use different metal
    # layers (and different unit cell dimensions).
    src_x, dst_x = port_x[:, 0], port_x[:, 1]
    src_y, dst_y = port_y[:, 0], port_y[:, 1]
    routed = np.zeros(topology.num_links, dtype=bool)
    routed[link] = True
    horizontal_mm = np.where(routed, 0.0, np.abs(dst_x - src_x))
    vertical_mm = np.where(routed, 0.0, np.abs(dst_y - src_y))
    x, y = src_x.copy(), src_y.copy()
    # Every link has one or two segments (straight or L-shaped), grouped by
    # link: first all first segments advance, then all second ones.
    first = np.r_[True, link[1:] != link[:-1]][: len(link)]
    for step in (first, ~first):
        at, on_h, track_at = link[step], horizontal[step], track_position[step]
        horizontal_mm[at] += np.where(on_h, np.abs(dst_x[at] - x[at]), np.abs(x[at] - track_at))
        vertical_mm[at] += np.where(on_h, np.abs(y[at] - track_at), np.abs(dst_y[at] - y[at]))
        x[at] = np.where(on_h, dst_x[at], track_at)
        y[at] = np.where(on_h, track_at, dst_y[at])
    horizontal_mm[routed] += np.abs(dst_x - x)[routed]
    vertical_mm[routed] += np.abs(dst_y - y)[routed]

    return DetailedRoutingResult(
        routing=routing,
        horizontal_mm=horizontal_mm,
        vertical_mm=vertical_mm,
        horizontal_cells=_cells(horizontal_mm, grid.cell_width_mm),
        vertical_cells=_cells(vertical_mm, grid.cell_height_mm),
        segment_tracks=tracks,
        collisions=total_collisions,
        tracks_per_channel=tracks_per_channel,
    )
