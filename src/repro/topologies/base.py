"""Core topology data model.

A :class:`Topology` describes the link structure of a NoC built on a chip that
is organised as an ``R x C`` grid of identical *tiles* (Section II-A of the
paper).  Each tile contains one or more endpoints and one local router; NoC
links connect the local routers of different tiles.

Tiles are identified by integer indices ``0 .. R*C - 1`` in row-major order;
:class:`TileCoord` maps between indices and ``(row, col)`` grid positions.
Links are undirected at the topology level (the simulator expands each into a
pair of unidirectional channels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.utils.validation import ValidationError, check_type


@dataclass(frozen=True, order=True)
class TileCoord:
    """Grid position of a tile: row ``r`` (0-based) and column ``c`` (0-based)."""

    row: int
    col: int


@dataclass(frozen=True, order=True)
class Link:
    """An undirected router-to-router link between two tiles.

    ``src`` and ``dst`` are tile indices with ``src < dst`` (canonical order),
    so that a link has exactly one representation.
    """

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValidationError(f"self-link on tile {self.src} is not allowed")
        if self.src > self.dst:
            raise ValidationError(
                f"Link endpoints must be canonically ordered (src < dst); "
                f"got src={self.src}, dst={self.dst}. Use Link.canonical()."
            )

    @staticmethod
    def canonical(a: int, b: int) -> "Link":
        """Create a link between tiles ``a`` and ``b`` in canonical order."""
        if a == b:
            raise ValidationError(f"self-link on tile {a} is not allowed")
        return Link(min(a, b), max(a, b))

    def other(self, tile: int) -> int:
        """Return the endpoint of the link that is not ``tile``."""
        if tile == self.src:
            return self.dst
        if tile == self.dst:
            return self.src
        raise ValidationError(f"tile {tile} is not an endpoint of {self}")


class HopMinimalPaths(NamedTuple):
    """All-pairs hop-minimal routing of a topology, as read-only ``N x N`` arrays.

    Entry ``[node, destination]`` of each array describes the hop-minimal
    paths from ``node`` to ``destination``; an unreachable pair holds -1 in
    all three.

    Attributes
    ----------
    next_hop:
        Next hop of a hop-minimal path: among the neighbours one hop closer,
        the one whose continuation is physically shortest, then the lowest
        index.  The diagonal holds the node itself.
    hop_distance:
        Minimal number of router-to-router hops.
    hop_minimal_length:
        Shortest physical length, in tile pitches, over all hop-minimal paths.
    """

    next_hop: np.ndarray
    hop_distance: np.ndarray
    hop_minimal_length: np.ndarray


#: Tie-break key of a neighbour that is not one hop closer (never chosen).
_NO_KEY = np.iinfo(np.int64).max


class Topology:
    """A NoC topology over an ``R x C`` grid of tiles.

    Parameters
    ----------
    rows, cols:
        Grid dimensions.  Both must be at least 1 and ``rows * cols >= 2``.
    links:
        Iterable of :class:`Link` (or ``(a, b)`` tile-index pairs).  Duplicate
        links are collapsed.
    name:
        Human-readable topology name (e.g. ``"2D Mesh"``).
    endpoints_per_tile:
        Number of endpoints (cores/memories) connected to each tile's local
        router.  Affects the router radix but not the link structure.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        links: Iterable[Link | tuple[int, int]],
        name: str,
        endpoints_per_tile: int = 1,
    ) -> None:
        check_type("rows", rows, int)
        check_type("cols", cols, int)
        check_type("name", name, str)
        check_type("endpoints_per_tile", endpoints_per_tile, int)
        if rows < 1 or cols < 1:
            raise ValidationError(f"rows and cols must be >= 1, got {rows}x{cols}")
        if rows * cols < 2:
            raise ValidationError("a topology needs at least 2 tiles")
        if endpoints_per_tile < 1:
            raise ValidationError("endpoints_per_tile must be >= 1")

        self._rows = rows
        self._cols = cols
        self._name = name
        self._endpoints_per_tile = endpoints_per_tile

        canonical_links: set[Link] = set()
        for item in links:
            if isinstance(item, Link):
                canonical_links.add(item)
            else:
                a, b = item
                canonical_links.add(Link.canonical(int(a), int(b)))
        # All endpoints are checked in one pass; the per-endpoint check only
        # runs to report the first bad one.
        ends = [end for link in canonical_links for end in (link.src, link.dst)]
        if set(map(type, ends)) != {int} or min(ends) < 0 or max(ends) >= self.num_tiles:
            for end in ends:
                self._check_tile_index(end)
        self._links: tuple[Link, ...] = tuple(sorted(canonical_links))

    # ------------------------------------------------------------------ basic
    @property
    def name(self) -> str:
        """Human-readable topology name."""
        return self._name

    @property
    def rows(self) -> int:
        """Number of tile rows ``R``."""
        return self._rows

    @property
    def cols(self) -> int:
        """Number of tile columns ``C``."""
        return self._cols

    @property
    def num_tiles(self) -> int:
        """Total number of tiles ``R * C``."""
        return self._rows * self._cols

    @property
    def endpoints_per_tile(self) -> int:
        """Number of endpoints attached to each tile's local router."""
        return self._endpoints_per_tile

    @property
    def links(self) -> tuple[Link, ...]:
        """All undirected links, in canonical sorted order."""
        return self._links

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    # -------------------------------------------------------------- indexing
    def tile_index(self, row: int, col: int) -> int:
        """Return the tile index at grid position ``(row, col)``."""
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise ValidationError(
                f"tile position ({row}, {col}) outside {self._rows}x{self._cols} grid"
            )
        return row * self._cols + col

    def coord(self, tile: int) -> TileCoord:
        """Return the grid position of tile index ``tile``."""
        self._check_tile_index(tile)
        return TileCoord(tile // self._cols, tile % self._cols)

    @cached_property
    def tile_rows(self) -> np.ndarray:
        """Row of every tile, indexed by tile (read-only array)."""
        return _read_only(np.arange(self.num_tiles) // self._cols)

    @cached_property
    def tile_cols(self) -> np.ndarray:
        """Column of every tile, indexed by tile (read-only array)."""
        return _read_only(np.arange(self.num_tiles) % self._cols)

    @cached_property
    def link_ends(self) -> np.ndarray:
        """``(L, 2)`` read-only array of every link's ``(src, dst)``, in :attr:`links` order."""
        ends = np.array([(link.src, link.dst) for link in self._links], dtype=np.int64)
        return _read_only(ends.reshape(-1, 2))

    @cached_property
    def link_lengths(self) -> np.ndarray:
        """Manhattan length in tile pitches of every link, in :attr:`links` order."""
        src, dst = self.link_ends.T
        rows, cols = self.tile_rows, self.tile_cols
        return _read_only(np.abs(rows[src] - rows[dst]) + np.abs(cols[src] - cols[dst]))

    @cached_property
    def link_index(self) -> dict[Link, int]:
        """Position of every link in :attr:`links` and in the link arrays."""
        return {link: index for index, link in enumerate(self._links)}

    def tiles(self) -> Iterator[int]:
        """Iterate over all tile indices in row-major order."""
        return iter(range(self.num_tiles))

    def _check_tile_index(self, tile: int) -> None:
        check_type("tile", tile, int)
        if not (0 <= tile < self.num_tiles):
            raise ValidationError(
                f"tile index {tile} outside range [0, {self.num_tiles})"
            )

    # ------------------------------------------------------------------ graph
    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of router-to-router links at every tile (read-only array)."""
        return _read_only(np.bincount(self.link_ends.ravel(), minlength=self.num_tiles))

    @cached_property
    def neighbor_array(self) -> np.ndarray:
        """``(N + 1, max degree)`` read-only neighbour indices, padded with ``N``.

        Row ``t`` lists the neighbours of tile ``t`` in ascending order, then
        the dummy node ``N``; row ``N`` belongs to the dummy node itself, so a
        padded slot can be followed like any other without going out of bounds.
        """
        num = self.num_tiles
        ends = self.link_ends
        tiles = np.concatenate([ends[:, 0], ends[:, 1]])
        others = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((others, tiles))
        tiles, others = tiles[order], others[order]
        first = np.cumsum(self.degrees) - self.degrees
        padded = np.full((num + 1, int(self.degrees.max(initial=0))), num, dtype=np.int64)
        padded[tiles, np.arange(tiles.size) - first[tiles]] = others
        return _read_only(padded)

    def neighbors(self, tile: int) -> list[int]:
        """Return the tiles directly connected to ``tile``, sorted."""
        self._check_tile_index(tile)
        return self.neighbor_array[tile, : self.degrees[tile]].tolist()

    def degree(self, tile: int) -> int:
        """Number of router-to-router links attached to ``tile``."""
        self._check_tile_index(tile)
        return int(self.degrees[tile])

    def has_link(self, a: int, b: int) -> bool:
        """Return ``True`` if an undirected link between tiles ``a`` and ``b`` exists."""
        self._check_tile_index(a)
        self._check_tile_index(b)
        if a == b:
            return False
        return Link.canonical(a, b) in self.link_index

    @cached_property
    def hop_minimal_paths(self) -> HopMinimalPaths:
        """Hop-minimal next hops, hop distances and physical lengths of all pairs.

        Breadth-first search runs from all destinations at once, one hop level
        at a time, over the ``N x N`` entries ``(node, destination)``.  When a
        level is reached, a dynamic program picks each of its entries' next hop
        among the neighbours one level closer: the one with the physically
        shortest overall continuation, then the lowest neighbour index.
        Lengths are integers, so the single key ``(continuation + length) * N +
        neighbour`` orders candidates exactly like the tuple ``(continuation +
        length, neighbour)``.
        """
        num = self.num_tiles
        neighbors = self.neighbor_array
        rows = np.append(self.tile_rows, 0)
        cols = np.append(self.tile_cols, 0)
        length = np.abs(rows[:, None] - rows[neighbors]) + np.abs(cols[:, None] - cols[neighbors])

        # dist[node, destination]: -1 while unreached; the dummy row is -2 so
        # it is never reached and never one level closer than a real node.
        dist = np.full((num + 1, num), -1, dtype=np.int64)
        dist[num] = -2
        best_phys = np.full((num + 1, num), -1, dtype=np.int64)
        next_hop = np.full((num, num), -1, dtype=np.int64)
        diagonal = np.arange(num)
        dist[diagonal, diagonal] = 0
        best_phys[diagonal, diagonal] = 0
        next_hop[diagonal, diagonal] = diagonal
        nodes, destinations = diagonal, diagonal
        level = 0
        while nodes.size:
            if level:
                best = np.full(nodes.size, _NO_KEY, dtype=np.int64)
                for slot in range(neighbors.shape[1]):
                    neighbor = neighbors[nodes, slot]
                    key = (best_phys[neighbor, destinations] + length[nodes, slot]) * num + neighbor
                    key[dist[neighbor, destinations] != level - 1] = _NO_KEY
                    np.minimum(best, key, out=best)
                best_phys[nodes, destinations], next_hop[nodes, destinations] = np.divmod(best, num)
            for slot in range(neighbors.shape[1]):
                neighbor = neighbors[nodes, slot]
                fresh = dist[neighbor, destinations] == -1
                dist[neighbor[fresh], destinations[fresh]] = level + 1
            level += 1
            nodes, destinations = np.nonzero(dist == level)
        return HopMinimalPaths(
            _read_only(next_hop), _read_only(dist[:num]), _read_only(best_phys[:num])
        )

    def is_connected(self) -> bool:
        """Return ``True`` if every tile can reach every other tile."""
        return bool((self.hop_minimal_paths.hop_distance >= 0).all())

    def validate_connected(self) -> None:
        """Raise :class:`ValidationError` if the topology is not connected."""
        if not self.is_connected():
            raise ValidationError(f"topology '{self._name}' is not connected")

    # ------------------------------------------------------------ properties
    def max_degree(self) -> int:
        """Maximum number of router-to-router links at any tile."""
        return int(self.degrees.max())

    def router_radix(self, tile: int | None = None) -> int:
        """Router radix: router-to-router links plus local endpoint ports.

        If ``tile`` is ``None``, the maximum radix over all tiles is returned
        (this is the number reported in Table I of the paper).
        """
        if tile is None:
            return self.max_degree() + self._endpoints_per_tile
        return self.degree(tile) + self._endpoints_per_tile

    def diameter(self) -> int:
        """Network diameter: maximum shortest-path hop count between tiles."""
        self.validate_connected()
        return int(self.hop_minimal_paths.hop_distance.max())

    def average_hop_count(self) -> float:
        """Average shortest-path hop count over all ordered tile pairs."""
        self.validate_connected()
        n = self.num_tiles
        # The sum is an exact integer, so the mean is one correctly rounded division.
        return int(self.hop_minimal_paths.hop_distance.sum()) / (n * (n - 1))

    def link_is_aligned(self, link: Link) -> bool:
        """Return ``True`` if the link stays within one row or one column.

        Aligned links are one of the *design for routability* criteria
        (principle ❷ of the paper): they can be routed straight through a
        single inter-tile channel.
        """
        a = self.coord(link.src)
        b = self.coord(link.dst)
        return a.row == b.row or a.col == b.col

    def link_grid_length(self, link: Link) -> int:
        """Manhattan length of the link measured in tile pitches."""
        a = self.coord(link.src)
        b = self.coord(link.dst)
        return abs(a.row - b.row) + abs(a.col - b.col)

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self._name!r}, grid={self._rows}x{self._cols}, "
            f"links={self.num_links})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._links == other._links
            and self._endpoints_per_tile == other._endpoints_per_tile
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._links, self._endpoints_per_tile))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
