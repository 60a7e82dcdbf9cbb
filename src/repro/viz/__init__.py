"""Text-based visualisation of topologies and floorplans (Figures 1, 2 and 5)."""

from repro import _lazy_exports

_EXPORTS = {
    "repro.viz.ascii_art": ("render_topology", "render_sparse_hamming_construction"),
    "repro.viz.floorplan_viz": ("render_floorplan", "render_channel_loads"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "render_topology",
    "render_sparse_hamming_construction",
    "render_floorplan",
    "render_channel_loads",
]
