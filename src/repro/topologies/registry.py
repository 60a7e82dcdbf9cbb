"""Registry of topology generators.

Provides a single place to enumerate and instantiate all topologies that the
paper's evaluation compares (Figure 6), including the sparse Hamming graph
(which lives in :mod:`repro.core` but is registered here for uniform access).

Some topologies are only applicable for certain grid sizes (hypercube needs
power-of-two dimensions, SlimNoC needs ``R*C = 2*q^2``); the registry exposes
those applicability rules so that evaluation code can skip inapplicable
topologies exactly like the paper does.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable

from repro.topologies.base import Topology
from repro.topologies.flattened_butterfly import FlattenedButterflyTopology
from repro.topologies.folded_torus import FoldedTorusTopology
from repro.topologies.hypercube import HypercubeTopology, hypercube_applicable
from repro.topologies.mesh import MeshTopology
from repro.topologies.ring import RingTopology
from repro.topologies.ruche import RucheTopology
from repro.topologies.slimnoc import SlimNoCTopology, slimnoc_applicable
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError

TopologyFactory = Callable[..., Topology]


def _make_sparse_hamming(
    rows: int,
    cols: int,
    s_r: Iterable[int] = (),
    s_c: Iterable[int] = (),
    endpoints_per_tile: int = 1,
) -> Topology:
    # Imported lazily to avoid a circular import between repro.topologies and
    # repro.core (the sparse Hamming graph is built on top of the mesh).  The
    # signature mirrors SparseHammingGraph's so make_topology can check
    # kwargs against it.
    from repro.core.sparse_hamming import SparseHammingGraph

    return SparseHammingGraph(
        rows, cols, s_r=s_r, s_c=s_c, endpoints_per_tile=endpoints_per_tile
    )


TOPOLOGY_FACTORIES: dict[str, TopologyFactory] = {
    "ring": RingTopology,
    "mesh": MeshTopology,
    "torus": TorusTopology,
    "folded_torus": FoldedTorusTopology,
    "hypercube": HypercubeTopology,
    "slimnoc": SlimNoCTopology,
    "flattened_butterfly": FlattenedButterflyTopology,
    "ruche": RucheTopology,
    "sparse_hamming": _make_sparse_hamming,
}

# Canonical display names, matching the labels used in the paper's figures.
DISPLAY_NAMES: dict[str, str] = {
    "ring": "Ring",
    "mesh": "2D Mesh",
    "torus": "2D Torus",
    "folded_torus": "Folded 2D Torus",
    "hypercube": "Hypercube",
    "slimnoc": "SlimNoC",
    "flattened_butterfly": "Flattened Butterfly",
    "ruche": "Ruche Network",
    "sparse_hamming": "Sparse Hamming Graph",
}

# The topologies compared in Figure 6 of the paper, in plotting order.
PAPER_COMPARISON_ORDER: tuple[str, ...] = (
    "ring",
    "mesh",
    "torus",
    "folded_torus",
    "hypercube",
    "slimnoc",
    "flattened_butterfly",
    "sparse_hamming",
)


def available_topologies() -> list[str]:
    """Return the identifiers of all registered topology generators."""
    return sorted(TOPOLOGY_FACTORIES)


def is_applicable(name: str, rows: int, cols: int) -> bool:
    """Return ``True`` if topology ``name`` can be built for an ``R x C`` grid."""
    if name not in TOPOLOGY_FACTORIES:
        raise ValidationError(f"unknown topology {name!r}; known: {available_topologies()}")
    if name == "hypercube":
        return hypercube_applicable(rows, cols)
    if name == "slimnoc":
        return slimnoc_applicable(rows, cols)
    if name == "ring":
        return rows * cols >= 3
    return rows * cols >= 2


def applicable_topologies(rows: int, cols: int, names: tuple[str, ...] | None = None) -> list[str]:
    """Return the registered topologies that are applicable to an ``R x C`` grid.

    ``names`` restricts and orders the candidates; by default the paper's
    Figure 6 comparison order is used.
    """
    candidates = names if names is not None else PAPER_COMPARISON_ORDER
    return [name for name in candidates if is_applicable(name, rows, cols)]


def make_topology(name: str, rows: int, cols: int, endpoints_per_tile: int = 1, **kwargs) -> Topology:
    """Instantiate a registered topology by identifier.

    Extra keyword arguments are forwarded to the generator (e.g. ``s_r`` and
    ``s_c`` for the sparse Hamming graph, ``row_skip`` for Ruche networks).

    Raises
    ------
    ValidationError
        On an unknown or inapplicable topology, or on keyword arguments the
        generator does not accept.  They are checked against the generator's
        signature before it runs, so a ``TypeError`` raised inside a
        generator still propagates as one.
    """
    if name not in TOPOLOGY_FACTORIES:
        raise ValidationError(f"unknown topology {name!r}; known: {available_topologies()}")
    if not is_applicable(name, rows, cols):
        raise ValidationError(
            f"topology {name!r} is not applicable to a {rows}x{cols} grid"
        )
    factory = TOPOLOGY_FACTORIES[name]
    try:
        inspect.signature(factory).bind(
            rows, cols, endpoints_per_tile=endpoints_per_tile, **kwargs
        )
    except TypeError as error:
        raise ValidationError(f"invalid topology kwargs for {name!r}: {error}") from None
    return factory(rows, cols, endpoints_per_tile=endpoints_per_tile, **kwargs)
