"""Reproduction of "Sparse Hamming Graph: A Customizable Network-on-Chip Topology".

The library is organised as:

* :mod:`repro.core` — the sparse Hamming graph topology and the
  design-principle scoring (the paper's contributions);
* :mod:`repro.topologies` — the established baseline topologies and graph
  analysis;
* :mod:`repro.physical` — the area/power/link-latency model (approximate
  floorplanning and link routing);
* :mod:`repro.simulator` — the cycle-accurate VC-router simulator (BookSim2
  substitute) with pluggable, bit-identical engines (object-graph
  ``reference`` vs struct-of-arrays ``soa``) and the traffic-pattern
  registry;
* :mod:`repro.workloads` — trace-driven application workloads: the
  replayable trace format, the workload-generator registry (DNN inference,
  MPI collectives, stencil, ON/OFF), and trace replay with per-phase
  statistics;
* :mod:`repro.toolchain` — the end-to-end prediction toolchain;
* :mod:`repro.arch` — the KNC-like evaluation scenarios and the MemPool
  validation target;
* :mod:`repro.analysis` — Table I compliance, Pareto analysis, design-space
  sweeps;
* :mod:`repro.experiments` — the declarative experiment API: serializable
  :class:`ExperimentSpec`, :class:`Campaign` grids, the memoizing (optionally
  process-parallel) :class:`ExperimentRunner`, and the ``repro`` CLI;
* :mod:`repro.optimize` — the paper's customization strategy
  (:func:`customize_sparse_hamming`, a greedy walk from the mesh) and the
  workload-driven topology search: :class:`SearchSpec` (objective +
  constraints + search space) and :func:`run_search` (analytical screening,
  then successive-halving cycle-accurate evaluation);
* :mod:`repro.viz` — text rendering of topologies and floorplans.
"""

import sys
from typing import Any, Callable

#: Single source of the package version: ``setup.py`` parses this assignment
#: and the CLI's ``repro --version`` prints it.
__version__ = "1.3.0"


def _lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` of a package's re-exports.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name's module is imported on first access, so
    importing a package loads none of its submodules.  Nothing is cached on
    the package: every access returns the defining module's current object.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__`` rather than ``importlib.import_module``: only the
        # former shows in ``python -X importtime``.
        __import__(module)
        return getattr(sys.modules[module], name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__


_EXPORTS = {
    "repro.core.sparse_hamming": ("SparseHammingGraph",),
    "repro.experiments.campaign": ("Campaign", "figure6_campaign"),
    "repro.experiments.runner": (
        "ExperimentResult",
        "ExperimentRunner",
        "ResultSet",
        "run_campaign",
    ),
    "repro.experiments.spec": ("ExperimentSpec",),
    "repro.optimize.greedy": (
        "CustomizationGoal",
        "CustomizationResult",
        "customize_sparse_hamming",
    ),
    "repro.optimize.search": ("SearchResult", "run_search"),
    "repro.optimize.spec": ("SearchSpec",),
    "repro.physical.model": ("NoCPhysicalModel",),
    "repro.physical.parameters": ("ArchitecturalParameters",),
    "repro.simulator.engine": ("available_engines",),
    "repro.simulator.simulation": ("SimulationConfig", "Simulator"),
    "repro.simulator.sweep": ("replay_trace",),
    "repro.toolchain.predict": ("PredictionToolchain", "predict"),
    "repro.toolchain.results": ("PredictionResult",),
    "repro.topologies.base": ("Topology",),
    "repro.topologies.registry": ("make_topology",),
    "repro.workloads.generators": ("make_workload_trace",),
    "repro.workloads.trace": ("WorkloadTrace",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SparseHammingGraph",
    "CustomizationGoal",
    "CustomizationResult",
    "customize_sparse_hamming",
    "ArchitecturalParameters",
    "NoCPhysicalModel",
    "SimulationConfig",
    "Simulator",
    "available_engines",
    "PredictionToolchain",
    "PredictionResult",
    "predict",
    "Topology",
    "make_topology",
    "ExperimentSpec",
    "Campaign",
    "figure6_campaign",
    "ExperimentRunner",
    "ExperimentResult",
    "ResultSet",
    "run_campaign",
    "SearchSpec",
    "SearchResult",
    "run_search",
    "WorkloadTrace",
    "make_workload_trace",
    "replay_trace",
    "__version__",
]
