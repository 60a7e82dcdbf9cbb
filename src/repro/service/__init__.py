"""Campaign service: durable result store, sharded runner, query API.

The production-serving layer on top of :mod:`repro.experiments`:

* :mod:`repro.service.store` — content-addressed SQLite
  :class:`ResultStore` keyed by ``spec_id`` with ``trace_id``/``search_id``/
  topology indexes, schema versioning, atomic upserts, and one-shot
  migration from legacy memoization directories.  It is the only
  memoization backend of :class:`~repro.experiments.ExperimentRunner`
  (``ExperimentRunner(store=...)``), so campaigns, optimizer runs, queue
  workers and the API all share one file.
* :mod:`repro.service.queue` — durable :class:`WorkQueue` in the same
  SQLite file: campaigns become work items claimed under expiring leases,
  so any number of workers (or restarts after a crash) drain one queue
  without duplicating work.
* :mod:`repro.service.worker` — :func:`run_worker`, the claim ->
  simulate -> store -> complete loop with lease heartbeats.
* :mod:`repro.service.api` — ``repro serve``: a stdlib threading HTTP
  server answering predictions from the store and enqueueing misses.

See ``docs/SERVICE.md`` for the store schema, queue semantics, and a
deployment sketch.
"""

from repro.service.api import ReproServer, make_server
from repro.service.queue import EnqueueReport, Job, WorkQueue, campaign_id_for
from repro.service.store import (
    MigrationReport,
    ResultStore,
    StoredResult,
)
from repro.service.worker import WorkerStats, run_worker

__all__ = [
    "EnqueueReport",
    "Job",
    "MigrationReport",
    "ReproServer",
    "ResultStore",
    "StoredResult",
    "WorkQueue",
    "WorkerStats",
    "campaign_id_for",
    "make_server",
    "run_worker",
]
