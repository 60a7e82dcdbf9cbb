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

from repro.core import SparseHammingGraph
from repro.experiments import (
    Campaign,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    ResultSet,
    figure6_campaign,
    run_campaign,
)
from repro.optimize import (
    CustomizationGoal,
    CustomizationResult,
    SearchResult,
    SearchSpec,
    customize_sparse_hamming,
    run_search,
)
from repro.physical import ArchitecturalParameters, NoCPhysicalModel
from repro.simulator import SimulationConfig, Simulator, available_engines
from repro.toolchain import PredictionResult, PredictionToolchain, predict
from repro.topologies import Topology, make_topology
from repro.workloads import WorkloadTrace, make_workload_trace, replay_trace

#: Single source of the package version: ``setup.py`` parses this assignment
#: and the CLI's ``repro --version`` prints it.
__version__ = "1.3.0"

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
