"""Floorplanning: tile placement and port assignment (model steps 1-2 support).

The floorplan arranges the tiles in the ``R x C`` grid (Figure 5a) and decides
*port placement*: on which face of a tile (north/south/east/west) each link
attaches to the local router.  Optimised port placement is one of the four
*design for routability* criteria (principle ❷): links towards the east attach
to the east face, links within a column to the north/south faces, and so on,
so that links leave the tile in the direction they need to travel.

The floorplan works in abstract grid coordinates; physical (mm) coordinates
are only fixed after the spacing estimation and unit-cell discretization
(steps 3-4, :mod:`repro.physical.unit_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from repro.physical.tile import TileGeometry
from repro.topologies.base import Link, Topology
from repro.utils.validation import ValidationError


class PortSide(Enum):
    """Face of a tile on which a port is placed."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"


@dataclass(frozen=True)
class PortAssignment:
    """Placement of one link's port on one tile."""

    tile: int
    link: Link
    side: PortSide
    #: Position of the port along its face, as a fraction in (0, 1).
    offset_fraction: float


@dataclass
class Floorplan:
    """Tile placement plus port assignment for one topology.

    Ports are stored as arrays indexed like the topology's link arrays:
    entry ``[i, 0]`` is the port of link ``topology.links[i]`` on its ``src``
    tile and ``[i, 1]`` the one on its ``dst`` tile.

    Attributes
    ----------
    topology:
        The topology being floorplanned.
    tile_geometry:
        Physical tile dimensions (step 1 output).
    port_sides:
        ``(L, 2)`` array of face codes, indices into :data:`PORT_SIDES`.
    port_offsets:
        ``(L, 2)`` array of port positions along their face, in (0, 1).
    """

    topology: Topology
    tile_geometry: TileGeometry
    port_sides: np.ndarray
    port_offsets: np.ndarray

    @cached_property
    def ports(self) -> dict[tuple[int, Link], PortAssignment]:
        """Mapping ``(tile, link) -> PortAssignment`` for both ends of every link."""
        ports: dict[tuple[int, Link], PortAssignment] = {}
        sides = self.port_sides.tolist()
        offsets = self.port_offsets.tolist()
        for index, link in enumerate(self.topology.links):
            for end, tile in enumerate((link.src, link.dst)):
                ports[(tile, link)] = PortAssignment(
                    tile, link, PORT_SIDES[sides[index][end]], offsets[index][end]
                )
        return ports

    def port_slot(self, tile: int, link: Link) -> tuple[int, int]:
        """``(link index, end)`` of the port of ``link`` on ``tile`` in the port arrays."""
        index = self.topology.link_index.get(link)
        if index is None or tile not in (link.src, link.dst):
            raise ValidationError(f"link {link} has no port on tile {tile}")
        return index, int(tile == link.dst)

    def port(self, tile: int, link: Link) -> PortAssignment:
        """Return the port assignment of ``link`` at ``tile``."""
        key = (tile, link)
        if key not in self.ports:
            raise ValidationError(f"link {link} has no port on tile {tile}")
        return self.ports[key]

    def max_ports_per_side(self) -> int:
        """Maximum number of ports any tile places on a single face."""
        faces = self.topology.link_ends * len(PORT_SIDES) + self.port_sides
        return int(np.unique(faces, return_counts=True)[1].max(initial=0))


#: Faces in the order of their codes in :attr:`Floorplan.port_sides`.
PORT_SIDES = tuple(PortSide)
#: Code of every face in :attr:`Floorplan.port_sides`.
SIDE_CODE = {side: code for code, side in enumerate(PORT_SIDES)}


def _side_codes(d_row, d_col):
    """Face code of ports whose link runs ``(d_row, d_col)`` tiles away (arrays or ints)."""
    horizontal = (d_row == 0) | ((d_col != 0) & (np.abs(d_col) >= np.abs(d_row)))
    return np.where(
        horizontal,
        np.where(d_col > 0, SIDE_CODE[PortSide.EAST], SIDE_CODE[PortSide.WEST]),
        np.where(d_row > 0, SIDE_CODE[PortSide.SOUTH], SIDE_CODE[PortSide.NORTH]),
    )


def preferred_port_side(topology: Topology, tile: int, link: Link) -> PortSide:
    """Choose the face of ``tile`` on which the port of ``link`` is placed.

    Links towards a higher column leave through the east face, towards a lower
    column through the west face; links within a column use the south/north
    face (rows grow downwards, matching Figure 2 of the paper).  Non-aligned
    links use the face of their dominant direction, so that the first leg of
    their L-shaped route starts in the right channel.
    """
    source = topology.coord(tile)
    target = topology.coord(link.other(tile))
    return PORT_SIDES[int(_side_codes(target.row - source.row, target.col - source.col))]


def port_side_codes(topology: Topology) -> np.ndarray:
    """Face code of every port, as :func:`preferred_port_side` picks it.

    Shaped like :attr:`Floorplan.port_sides`: ``[i, 0]`` is the port of link
    ``i`` on its ``src`` tile, ``[i, 1]`` the one on its ``dst`` tile.
    """
    ends = topology.link_ends
    d_row = np.diff(topology.tile_rows[ends], axis=1)
    d_col = np.diff(topology.tile_cols[ends], axis=1)
    return np.hstack([_side_codes(d_row, d_col), _side_codes(-d_row, -d_col)])


def build_floorplan(topology: Topology, tile_geometry: TileGeometry) -> Floorplan:
    """Build the floorplan for ``topology`` (tile placement + port assignment).

    Ports on each face are spread evenly along the face, ordered by the grid
    distance to the link's other endpoint (longer links towards the outer end
    of the face), which keeps short links short after detailed routing.
    """
    ends = topology.link_ends
    sides = port_side_codes(topology)
    # Rank every port within its face by (length, src, dst).  Links are in
    # canonical (src, dst) order, so the link index breaks length ties.
    faces = (ends * len(PORT_SIDES) + sides).ravel()
    link_index = np.repeat(np.arange(topology.num_links), 2)
    order = np.lexsort((link_index, topology.link_lengths[link_index], faces))
    _, first, count = np.unique(faces[order], return_index=True, return_counts=True)
    rank = np.arange(len(order)) - np.repeat(first, count)
    offsets = np.empty(len(order))
    offsets[order] = (rank + 1) / (np.repeat(count, count) + 1)
    return Floorplan(
        topology=topology,
        tile_geometry=tile_geometry,
        port_sides=sides,
        port_offsets=offsets.reshape(-1, 2),
    )
