"""NoC topology substrate.

This package provides the graph-level model of a network-on-chip topology
(:class:`~repro.topologies.base.Topology`), generators for all established
topologies the paper compares against (Figure 1 / Table I), and analysis of
graph-level properties (router radix, network diameter, minimal physical
paths).

The paper's primary contribution, the sparse Hamming graph, lives in
:mod:`repro.core.sparse_hamming` but is registered here as well so that all
topologies can be enumerated uniformly.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.topologies.base": ("Topology", "Link", "TileCoord"),
    "repro.topologies.flattened_butterfly": ("FlattenedButterflyTopology",),
    "repro.topologies.folded_torus": ("FoldedTorusTopology",),
    "repro.topologies.hypercube": ("HypercubeTopology",),
    "repro.topologies.mesh": ("MeshTopology",),
    "repro.topologies.properties": ("TopologyProperties", "analyze_topology"),
    "repro.topologies.registry": (
        "TOPOLOGY_FACTORIES",
        "available_topologies",
        "make_topology",
        "applicable_topologies",
    ),
    "repro.topologies.ring": ("RingTopology",),
    "repro.topologies.ruche": ("RucheTopology",),
    "repro.topologies.slimnoc": ("SlimNoCTopology",),
    "repro.topologies.torus": ("TorusTopology",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Topology",
    "Link",
    "TileCoord",
    "RingTopology",
    "MeshTopology",
    "TorusTopology",
    "FoldedTorusTopology",
    "HypercubeTopology",
    "FlattenedButterflyTopology",
    "SlimNoCTopology",
    "RucheTopology",
    "TopologyProperties",
    "analyze_topology",
    "TOPOLOGY_FACTORIES",
    "available_topologies",
    "make_topology",
    "applicable_topologies",
]
