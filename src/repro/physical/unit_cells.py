"""Steps 3-4 of the prediction model: spacing estimation and chip discretization.

Step 3 (Figure 5c): if at most ``N_L`` parallel horizontal links run between
two rows of tiles, the spacing between those rows is

    ``S = f^H_wires->mm(N_L * f_bw->wires(B))``

and symmetrically for columns with ``f^V_wires->mm``.

Step 4 (Figure 5d): the chip is discretized into same-sized unit cells whose
height/width is exactly the space needed for one horizontal/vertical link:

    ``H_C = f^H_wires->mm(f_bw->wires(B))``,
    ``W_C = f^V_wires->mm(f_bw->wires(B))``.

Because the wire functions are linear, the spacing of a channel with peak load
``N_L`` is exactly ``N_L`` unit cells thick — each parallel link gets its own
track.  The resulting :class:`UnitCellGrid` records the physical coordinates
of every tile and channel, the port positions in millimetres, and the total
number of unit cells (which determines the chip area in step 5's bookkeeping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.physical.floorplan import SIDE_CODE, Floorplan, PortSide
from repro.physical.global_routing import GlobalRoutingResult
from repro.physical.parameters import ArchitecturalParameters
from repro.topologies.base import Link
from repro.utils.geometry import Point
from repro.utils.validation import ValidationError


@dataclass
class UnitCellGrid:
    """Physical layout of the chip after spacing estimation and discretization.

    Coordinates are in millimetres; ``x`` grows with the tile column index and
    ``y`` grows with the tile row index (i.e. downwards, as in Figure 2).

    Attributes
    ----------
    cell_width_mm, cell_height_mm:
        Unit cell dimensions ``W_C`` and ``H_C``.
    horizontal_spacings_mm:
        Spacing of the ``R+1`` horizontal channels (above row 0, between rows,
        below the last row).
    vertical_spacings_mm:
        Spacing of the ``C+1`` vertical channels.
    tile_origins:
        ``(R, C, 2)`` array with the top-left corner of every tile.
    chip_width_mm, chip_height_mm:
        Total chip dimensions including all spacings.
    """

    floorplan: Floorplan
    params: ArchitecturalParameters
    cell_width_mm: float
    cell_height_mm: float
    horizontal_spacings_mm: np.ndarray
    vertical_spacings_mm: np.ndarray
    tile_origins: np.ndarray
    chip_width_mm: float
    chip_height_mm: float

    # ------------------------------------------------------------ cell math
    @property
    def cell_area_mm2(self) -> float:
        """Area ``A_C`` of one unit cell."""
        return self.cell_width_mm * self.cell_height_mm

    @property
    def total_cells(self) -> int:
        """``N_cell``: number of unit cells covering the whole chip."""
        return int(
            math.ceil(self.chip_width_mm / self.cell_width_mm)
            * math.ceil(self.chip_height_mm / self.cell_height_mm)
        )

    @property
    def logic_cells(self) -> int:
        """``N^L_cell``: number of unit cells containing tile logic."""
        topology = self.floorplan.topology
        per_tile = math.ceil(
            self.floorplan.tile_geometry.width_mm / self.cell_width_mm
        ) * math.ceil(self.floorplan.tile_geometry.height_mm / self.cell_height_mm)
        return per_tile * topology.num_tiles

    # ----------------------------------------------------------- geometry
    def tile_origin(self, row: int, col: int) -> Point:
        """Top-left corner of the tile at grid position ``(row, col)``."""
        x, y = self.tile_origins[row, col]
        return Point(float(x), float(y))

    def horizontal_channel_y(self, channel: int) -> float:
        """``y`` coordinate of the top edge of horizontal channel ``channel``."""
        topology = self.floorplan.topology
        if not (0 <= channel <= topology.rows):
            raise ValidationError(f"horizontal channel {channel} out of range")
        if channel == 0:
            return 0.0
        origin = self.tile_origin(channel - 1, 0)
        return origin.y + self.floorplan.tile_geometry.height_mm

    def vertical_channel_x(self, channel: int) -> float:
        """``x`` coordinate of the left edge of vertical channel ``channel``."""
        topology = self.floorplan.topology
        if not (0 <= channel <= topology.cols):
            raise ValidationError(f"vertical channel {channel} out of range")
        if channel == 0:
            return 0.0
        origin = self.tile_origin(0, channel - 1)
        return origin.x + self.floorplan.tile_geometry.width_mm

    @cached_property
    def port_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` of every port, each an ``(L, 2)`` array.

        Entry ``[i, end]`` belongs to the port of ``topology.links[i]`` on its
        ``src`` (``end == 0``) or ``dst`` (``end == 1``) tile, as in the
        floorplan's port arrays.
        """
        floorplan = self.floorplan
        topology = floorplan.topology
        geometry = floorplan.tile_geometry
        ends = topology.link_ends
        origins = self.tile_origins[topology.tile_rows[ends], topology.tile_cols[ends]]
        x, y = origins[..., 0], origins[..., 1]
        sides = floorplan.port_sides
        along = floorplan.port_offsets
        port_x = np.select(
            [sides == SIDE_CODE[PortSide.EAST], sides == SIDE_CODE[PortSide.WEST]],
            [x + geometry.width_mm, x],
            x + along * geometry.width_mm,
        )
        port_y = np.select(
            [sides == SIDE_CODE[PortSide.NORTH], sides == SIDE_CODE[PortSide.SOUTH]],
            [y, y + geometry.height_mm],
            y + along * geometry.height_mm,
        )
        return port_x, port_y

    def port_position(self, tile: int, link: Link) -> Point:
        """Physical position of the port of ``link`` on ``tile``."""
        index, end = self.floorplan.port_slot(tile, link)
        port_x, port_y = self.port_positions
        return Point(float(port_x[index, end]), float(port_y[index, end]))


def discretize_chip(
    params: ArchitecturalParameters,
    floorplan: Floorplan,
    routing: GlobalRoutingResult,
) -> UnitCellGrid:
    """Estimate channel spacings (step 3) and discretize the chip (step 4)."""
    topology = floorplan.topology
    geometry = floorplan.tile_geometry
    link_wires = params.f_bw_to_wires()

    cell_height = params.f_h_wires_to_mm(link_wires)
    cell_width = params.f_v_wires_to_mm(link_wires)

    # Step 3: spacing per channel from the peak number of parallel links.
    horizontal_spacings = np.array(
        [
            params.f_h_wires_to_mm(routing.max_horizontal_load(h) * link_wires)
            for h in range(topology.rows + 1)
        ]
    )
    vertical_spacings = np.array(
        [
            params.f_v_wires_to_mm(routing.max_vertical_load(v) * link_wires)
            for v in range(topology.cols + 1)
        ]
    )

    # Step 4: place tiles; spacings and tile sizes accumulate into coordinates.
    tile_origins = np.zeros((topology.rows, topology.cols, 2))
    y = 0.0
    for row in range(topology.rows):
        y += horizontal_spacings[row]
        x = 0.0
        for col in range(topology.cols):
            x += vertical_spacings[col]
            tile_origins[row, col] = (x, y)
            x += geometry.width_mm
        y += geometry.height_mm
    chip_width = float(vertical_spacings.sum() + topology.cols * geometry.width_mm)
    chip_height = float(horizontal_spacings.sum() + topology.rows * geometry.height_mm)

    return UnitCellGrid(
        floorplan=floorplan,
        params=params,
        cell_width_mm=cell_width,
        cell_height_mm=cell_height,
        horizontal_spacings_mm=horizontal_spacings,
        vertical_spacings_mm=vertical_spacings,
        tile_origins=tile_origins,
        chip_width_mm=chip_width,
        chip_height_mm=chip_height,
    )
