"""Step 2 of the prediction model: global routing in the grid of tiles.

Since links cannot be routed over tiles (tiles occupy all metal layers,
Section II-A), every link is routed through the *channels* between rows and
columns of tiles.  Horizontal channels run between adjacent rows (and above
the first / below the last row); vertical channels run between adjacent
columns (and left of the first / right of the last column).

Wire routing is NP-complete, so — like real VLSI global routers — we use a
greedy, congestion-aware heuristic (Section IV-B2a, step 2): links are routed
one by one in order of increasing length; each link considers a small set of
candidate channel assignments (above/below the source row, left/right of the
destination column, row-first or column-first L-shapes) and picks the one with
the lowest congestion cost.

The result records, for every channel segment, how many links occupy it.  The
peak occupancy per channel feeds the spacing estimation of step 3; the
per-link channel assignment seeds the detailed routing of step 5.

Channel-load accounting
-----------------------
* Links between grid-adjacent tiles connect facing ports directly and occupy
  no channel capacity ("links between adjacent tiles come with minuscule area
  overheads").
* A row link spanning ``x >= 2`` columns runs in a horizontal channel and
  occupies the channel over all spanned columns (including the end columns,
  which accounts for the entry/exit jogs at the ports).
* Column links are handled symmetrically in vertical channels.
* Non-aligned links are routed as an L: a horizontal leg in a channel adjacent
  to the source row and a vertical leg in a channel adjacent to the target
  column (or the transpose, whichever is cheaper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.physical.floorplan import Floorplan
from repro.topologies.base import Link, Topology


@dataclass(frozen=True)
class ChannelSegment:
    """A contiguous occupied stretch of one channel.

    ``orientation`` is ``"H"`` for a horizontal channel (indexed by the row
    gap 0..R) or ``"V"`` for a vertical channel (indexed by the column gap
    0..C).  ``start``/``stop`` give the half-open range of tile columns (H)
    or tile rows (V) that the segment spans.
    """

    orientation: str
    channel: int
    start: int
    stop: int

    @property
    def length(self) -> int:
        """Number of tile positions spanned by the segment."""
        return self.stop - self.start


@dataclass(frozen=True)
class GlobalRoute:
    """Global routing decision for one link: the channel segments it occupies."""

    link: Link
    segments: tuple[ChannelSegment, ...]
    is_direct: bool

    @property
    def grid_length(self) -> int:
        """Total channel length of the route in tile pitches."""
        return sum(segment.length for segment in self.segments)


@dataclass
class GlobalRoutingResult:
    """Outcome of global routing for a whole topology.

    Attributes
    ----------
    topology:
        The routed topology; link indices refer to ``topology.links``.
    order:
        Link indices in routing order (shortest first).
    segments:
        ``(S, 5)`` integer array with one row ``(link, horizontal, channel,
        start, stop)`` per occupied channel segment; ``horizontal`` is 1 for
        an H channel and 0 for a V channel.  Rows are grouped by link in
        routing order, one row for a straight route and two for an L; a link
        without rows is a direct connection between adjacent tiles.
    horizontal_loads:
        Array of shape ``(R+1, C)``: ``horizontal_loads[h, c]`` is the number
        of links occupying horizontal channel ``h`` above tile column ``c``.
    vertical_loads:
        Array of shape ``(C+1, R)`` defined symmetrically.
    """

    topology: Topology
    order: np.ndarray
    segments: np.ndarray
    horizontal_loads: np.ndarray
    vertical_loads: np.ndarray

    @property
    def rows(self) -> int:
        """Number of tile rows ``R``."""
        return self.topology.rows

    @property
    def cols(self) -> int:
        """Number of tile columns ``C``."""
        return self.topology.cols

    @cached_property
    def routes(self) -> dict[Link, GlobalRoute]:
        """One :class:`GlobalRoute` per link, in routing order."""
        links = self.topology.links
        per_link: dict[int, list[ChannelSegment]] = {}
        for index, horizontal, channel, start, stop in self.segments.tolist():
            per_link.setdefault(index, []).append(
                ChannelSegment("H" if horizontal else "V", channel, start, stop)
            )
        return {
            links[index]: GlobalRoute(
                link=links[index],
                segments=tuple(per_link.get(index, ())),
                is_direct=index not in per_link,
            )
            for index in self.order.tolist()
        }

    def max_horizontal_load(self, channel: int) -> int:
        """Peak number of parallel links in horizontal channel ``channel``."""
        return int(self.horizontal_loads[channel].max(initial=0))

    def max_vertical_load(self, channel: int) -> int:
        """Peak number of parallel links in vertical channel ``channel``."""
        return int(self.vertical_loads[channel].max(initial=0))

    def total_channel_length(self) -> int:
        """Sum of channel segment lengths over all links (in tile pitches)."""
        return int((self.segments[:, 4] - self.segments[:, 3]).sum())


# A candidate route is a tuple of segments ``(horizontal, channel, start, stop)``.
_Segment = tuple[bool, int, int, int]


def _l_shape_candidates(
    source_row: int,
    source_col: int,
    target_row: int,
    target_col: int,
) -> list[tuple[_Segment, ...]]:
    """Candidate L-shaped routes for a non-aligned link."""
    c_low, c_high = sorted((source_col, target_col))
    r_low, r_high = sorted((source_row, target_row))
    candidates: list[tuple[_Segment, ...]] = []
    # Row-first: horizontal leg in a channel adjacent to the source row, then a
    # vertical leg in a channel adjacent to the target column.
    for h_channel in (source_row, source_row + 1):
        for v_channel in (target_col, target_col + 1):
            candidates.append(
                ((True, h_channel, c_low, c_high + 1), (False, v_channel, r_low, r_high + 1))
            )
    # Column-first: vertical leg near the source column, horizontal leg near
    # the target row.
    for v_channel in (source_col, source_col + 1):
        for h_channel in (target_row, target_row + 1):
            candidates.append(
                ((False, v_channel, r_low, r_high + 1), (True, h_channel, c_low, c_high + 1))
            )
    return candidates


def global_route(topology: Topology, floorplan: Floorplan | None = None) -> GlobalRoutingResult:
    """Perform greedy global routing of all links of ``topology`` (model step 2).

    ``floorplan`` is accepted for interface symmetry with the other model
    steps (the port sides it assigns are consistent with the candidate channel
    choices made here) but is not required.
    """
    del floorplan  # Port sides are implied by the candidate generation below.
    rows, cols = topology.rows, topology.cols
    # Channel occupancy as nested lists: the greedy loop below reads and
    # updates a few short slices per link, which plain lists do fastest.
    loads = {
        True: [[0] * cols for _ in range(rows + 1)],
        False: [[0] * rows for _ in range(cols + 1)],
    }

    def cost(candidate: tuple[_Segment, ...]) -> float:
        total = 0.0
        for horizontal, channel, start, stop in candidate:
            # Length cost plus a congestion cost that grows with the current
            # occupancy, so the router spreads links over parallel channels.
            total += (stop - start) + float(sum(loads[horizontal][channel][start:stop])) * 0.5
        return total

    tile_rows, tile_cols = topology.tile_rows.tolist(), topology.tile_cols.tolist()
    src, dst = topology.link_ends.T.tolist()
    lengths = topology.link_lengths
    # Route short links first: they have no routing freedom and should not be
    # penalised by congestion created by long links.  Ties keep the canonical
    # (src, dst) link order.
    order = np.argsort(lengths, kind="stable")
    segments: list[tuple[int, ...]] = []
    for index in order[lengths[order] > 1].tolist():
        # Adjacent tiles (length 1) connect directly and use no channel.
        a_row, a_col = tile_rows[src[index]], tile_cols[src[index]]
        b_row, b_col = tile_rows[dst[index]], tile_cols[dst[index]]
        if a_row == b_row:
            c_low, c_high = sorted((a_col, b_col))
            candidates = [((True, channel, c_low, c_high + 1),) for channel in (a_row, a_row + 1)]
        elif a_col == b_col:
            r_low, r_high = sorted((a_row, b_row))
            candidates = [((False, channel, r_low, r_high + 1),) for channel in (a_col, a_col + 1)]
        else:
            candidates = _l_shape_candidates(a_row, a_col, b_row, b_col)
        best = min(candidates, key=cost)
        for horizontal, channel, start, stop in best:
            row = loads[horizontal][channel]
            row[start:stop] = [load + 1 for load in row[start:stop]]
            segments.append((index, horizontal, channel, start, stop))

    return GlobalRoutingResult(
        topology=topology,
        order=order,
        segments=np.array(segments, dtype=np.int64).reshape(-1, 5),
        horizontal_loads=np.array(loads[True], dtype=np.int64).reshape(rows + 1, cols),
        vertical_loads=np.array(loads[False], dtype=np.int64).reshape(cols + 1, rows),
    )
