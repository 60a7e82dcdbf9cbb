"""Target architectures used in the paper's evaluation.

* :mod:`repro.arch.knc` — the four Knights-Corner-like scenarios (a)-(d) of
  Section V-b, including the sparse-Hamming-graph parameters the paper selects
  for each of them.
* :mod:`repro.arch.mempool` — the MemPool architecture used to validate the
  prediction toolchain (Table III).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.arch.knc": (
        "KNCScenario",
        "KNC_SCENARIOS",
        "scenario",
        "scenario_parameters",
        "paper_sparse_hamming_parameters",
    ),
    "repro.arch.mempool": (
        "MEMPOOL_REFERENCE",
        "MemPoolReference",
        "mempool_parameters",
        "mempool_topology",
        "validate_toolchain_against_mempool",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "KNCScenario",
    "KNC_SCENARIOS",
    "scenario",
    "scenario_parameters",
    "paper_sparse_hamming_parameters",
    "MEMPOOL_REFERENCE",
    "MemPoolReference",
    "mempool_parameters",
    "mempool_topology",
    "validate_toolchain_against_mempool",
]
