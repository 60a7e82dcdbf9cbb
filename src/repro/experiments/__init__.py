"""Declarative experiment API: the canonical way to run anything in the repo.

The subsystem has four layers:

* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, a frozen, hashable,
  JSON-round-trippable description of one toolchain run with a stable
  ``spec_id`` content hash;
* :mod:`repro.experiments.campaign` — :class:`Campaign`, cartesian grid
  expansion over topologies x sizes x traffic x modes x scenarios with
  automatic applicability filtering, plus :func:`figure6_campaign`;
* :mod:`repro.experiments.runner` — :class:`ExperimentRunner` (serial or
  process-parallel execution, memoized by ``spec_id`` in the SQLite result
  store of :mod:`repro.service.store`) and :class:`ResultSet` (tabular
  export and Pareto/compliance helpers);
* :mod:`repro.experiments.serialization` — the JSON prediction payload
  shared by worker processes, the service store, and the HTTP API;
* :mod:`repro.experiments.cli` — the ``repro`` console script.

The declarative search layer lives in :mod:`repro.optimize`; its
:class:`SearchSpec` (the search-level sibling of :class:`ExperimentSpec`) and
:func:`run_search` are re-exported here so experiment code has one import
surface.
"""

from repro.experiments.spec import ExperimentSpec, PROTOCOL_PRESETS
from repro.experiments.campaign import Campaign, figure6_campaign
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    ResultSet,
    prediction_from_dict,
    prediction_to_dict,
    run_campaign,
)
from repro.optimize import SearchResult, SearchSpec, run_search

__all__ = [
    "ExperimentSpec",
    "PROTOCOL_PRESETS",
    "Campaign",
    "figure6_campaign",
    "ExperimentResult",
    "ExperimentRunner",
    "ResultSet",
    "run_campaign",
    "prediction_to_dict",
    "prediction_from_dict",
    "SearchResult",
    "SearchSpec",
    "run_search",
]
