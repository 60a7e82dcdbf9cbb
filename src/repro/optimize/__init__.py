"""Workload-driven topology search (design-space optimization).

The paper's headline claim is that sparse Hamming graphs are *customizable*:
for a given application one can search the configuration space and
synthesize a topology that beats fixed meshes and tori under area and power
budgets.  This package is that search loop, built on everything underneath:

* :mod:`repro.optimize.objectives` — :class:`Objective` (zero-load latency,
  saturation throughput, or per-phase workload-replay latency) and
  :class:`Constraints` (area, power and link-length budgets);
* :mod:`repro.optimize.space` — :class:`SearchSpace` over topology families
  and their parameters (sparse-Hamming edge sets, Ruche skip choices, ...);
* :mod:`repro.optimize.spec` — :class:`SearchSpec`, the frozen,
  JSON-round-trippable description of one whole search with a stable
  ``search_id`` hash;
* :mod:`repro.optimize.search` — :func:`run_search`, the two-stage engine:
  analytical screening over the full space
  (:mod:`repro.toolchain.screening`), then successive-halving cycle-accurate
  evaluation of the survivors through
  :class:`~repro.experiments.runner.ExperimentRunner` (parallel, memoized by
  ``spec_id``, deterministic given a seed);
* :mod:`repro.optimize.greedy` — :func:`customize_sparse_hamming`, the
  paper's own strategy (Section V-a): a greedy walk from the mesh that adds
  skip distances to ``S_R``/``S_C`` until the area budget binds, each step
  one runner call over specs derived from a base spec.

The ``repro optimize`` CLI subcommand and
``examples/optimize_for_workload.py`` drive this package end to end;
``docs/OPTIMIZER.md`` documents the method.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.optimize.greedy": (
        "CustomizationGoal",
        "CustomizationResult",
        "CustomizationStep",
        "customize_sparse_hamming",
    ),
    "repro.optimize.objectives": ("OBJECTIVE_METRICS", "Constraints", "Objective"),
    "repro.optimize.search": (
        "RungEntry",
        "RungRecord",
        "ScreenRecord",
        "SearchResult",
        "run_search",
    ),
    "repro.optimize.space": ("Candidate", "SearchSpace"),
    "repro.optimize.spec": ("SearchSpec",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "OBJECTIVE_METRICS",
    "Candidate",
    "Constraints",
    "CustomizationGoal",
    "CustomizationResult",
    "CustomizationStep",
    "Objective",
    "RungEntry",
    "RungRecord",
    "ScreenRecord",
    "SearchResult",
    "SearchSpace",
    "SearchSpec",
    "customize_sparse_hamming",
    "run_search",
]
