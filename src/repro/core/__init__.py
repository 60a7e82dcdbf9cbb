"""The paper's primary contribution: the sparse Hamming graph NoC topology.

This package contains:

* :mod:`repro.core.sparse_hamming` — the customizable sparse Hamming graph
  topology generator (Section III of the paper),
* :mod:`repro.core.design_principles` — scoring of topologies against the four
  NoC topology design principles (Section II / Table I),
* :mod:`repro.core.config_space` — enumeration and counting of the
  ``2^(R+C-4)`` sparse-Hamming-graph configurations.

The five-step customization strategy of Section V-a, which tunes
``S_R``/``S_C`` to a design goal under an area budget, runs on experiment
specs and lives in :mod:`repro.optimize.greedy`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.core.config_space": (
        "configuration_count",
        "enumerate_configurations",
        "random_configuration",
    ),
    "repro.core.design_principles": (
        "DesignPrincipleScores",
        "score_design_principles",
    ),
    "repro.core.sparse_hamming": ("SparseHammingGraph", "sparse_hamming_links"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SparseHammingGraph",
    "sparse_hamming_links",
    "DesignPrincipleScores",
    "score_design_principles",
    "configuration_count",
    "enumerate_configurations",
    "random_configuration",
]
