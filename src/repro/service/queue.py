"""Durable, sharded campaign work queue with lease-based claiming.

Campaigns are enqueued as one work item per unique ``spec_id`` in the same
SQLite file as the :class:`~repro.service.store.ResultStore`, so a result
and the job that produced it commit through one database.  N worker
processes (or repeated single-worker invocations after a crash) drain the
same queue without duplicating work:

* **Claiming is atomic.** :meth:`WorkQueue.claim` selects and marks one
  runnable job inside a single ``BEGIN IMMEDIATE`` transaction, so two
  workers can never claim the same job concurrently.
  :meth:`WorkQueue.claim_batch` extends this to gangs: up to ``batch_size``
  jobs sharing one ``gang_key`` (compiled-network compatibility, see
  :func:`~repro.experiments.scheduler.gang_key_id`; only specs that name
  the ``vec`` engine have one) lease together in one transaction, so a
  batch worker can fuse them into a single vec kernel.
* **Ownership is a lease, not a lock.** A claimed job carries
  ``(worker_id, lease_expires)``.  A worker that dies — SIGKILL, OOM, power
  loss — simply stops renewing its lease; once the lease expires the job
  becomes claimable again.  No recovery step, no stale-lock cleanup.
* **Completion is guarded.** :meth:`complete`/:meth:`fail` only apply if
  the caller still owns the lease, so a slow worker that lost its lease
  cannot clobber the reclaiming worker's outcome (its recomputed result is
  bit-identical anyway — specs are deterministic).
* **Re-enqueue is idempotent.** Enqueueing a campaign whose results are
  already stored creates zero jobs (reported as ``already_stored``); a
  completed campaign re-runs as a 100% store hit.

The ``completions`` counter increments exactly when a job transitions to
``done``, which is how the crash/resume tests prove every spec was computed
*exactly once* across arbitrary worker kills and restarts.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.campaign import Campaign
from repro.experiments.scheduler import gang_key_id
from repro.experiments.spec import ExperimentSpec
from repro.service.store import ResultStore
from repro.utils.validation import ValidationError

#: Default lease duration.  Generous: a lease only matters when its worker
#: is dead, and a false expiry (slow simulation, no heartbeat) would cause
#: harmless-but-wasteful duplicate computation.
DEFAULT_LEASE_SECONDS = 300.0

#: Claims per job before it is parked as ``failed`` instead of retried —
#: a deterministic crasher must not wedge the queue forever.
DEFAULT_MAX_ATTEMPTS = 5


def campaign_id_for(specs: Sequence[ExperimentSpec], name: str = "") -> str:
    """Stable content id of a campaign: hash of its name + ordered spec_ids."""
    digest = hashlib.sha256(
        json.dumps([name, [spec.spec_id for spec in specs]]).encode("utf-8")
    )
    return "cmp-" + digest.hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    """One claimed work item.

    Attributes
    ----------
    spec_id:
        Identity of the spec to compute.
    spec:
        The spec as plain data (rebuild with :meth:`build_spec`).
    campaign_id:
        Campaign the job was last enqueued under (``None`` for ad-hoc jobs).
    worker_id:
        The worker holding the lease.
    lease_expires:
        Unix time at which the lease lapses.
    attempts:
        Total claims so far, including this one.
    gang_key:
        Compiled-network compatibility hash
        (:func:`~repro.experiments.scheduler.gang_key_id`); ``None`` for
        jobs that cannot fuse (analytical mode, any engine but ``vec``).
    """

    spec_id: str
    spec: dict[str, Any]
    campaign_id: str | None
    worker_id: str
    lease_expires: float
    attempts: int
    gang_key: str | None = None

    def build_spec(self) -> ExperimentSpec:
        """Rebuild the live :class:`ExperimentSpec` to execute."""
        return ExperimentSpec.from_dict(self.spec)


@dataclass
class EnqueueReport:
    """Outcome of :meth:`WorkQueue.enqueue`.

    ``enqueued`` counts *new or revived* jobs — a re-enqueued, fully stored
    campaign reports ``enqueued == 0``.
    """

    campaign_id: str
    total: int = 0
    enqueued: int = 0
    already_stored: int = 0
    already_queued: int = 0

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"campaign {self.campaign_id}: {self.enqueued} job(s) enqueued, "
            f"{self.already_stored} already stored, "
            f"{self.already_queued} already queued "
            f"({self.total} unique spec(s))"
        )


class WorkQueue:
    """Lease-based work queue sharing the result store's SQLite file.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.ResultStore` (or its path) whose
        database holds the ``jobs`` table.
    clock:
        Time source for leases (returns Unix seconds).  Injectable so tests
        can expire leases deterministically instead of sleeping.
    max_attempts:
        Claims per job before it is parked as ``failed``.

    Examples
    --------
    >>> queue = WorkQueue("results.sqlite")             # doctest: +SKIP
    >>> queue.enqueue(campaign).summary()               # doctest: +SKIP
    'campaign cmp-...: 12 job(s) enqueued, ...'
    >>> job = queue.claim("worker-1")                   # doctest: +SKIP
    >>> queue.complete(job.spec_id, "worker-1")         # doctest: +SKIP
    True
    """

    def __init__(
        self,
        store: ResultStore | str | Path,
        clock: Callable[[], float] | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self._clock = clock if clock is not None else time.time
        if max_attempts < 1:
            raise ValidationError("max_attempts must be at least 1")
        self.max_attempts = max_attempts

    def _connect(self):
        conn = self.store._connect()
        # Manual transaction control: claim needs BEGIN IMMEDIATE.
        conn.isolation_level = None
        return conn

    # ------------------------------------------------------------- enqueue
    def enqueue(
        self,
        experiments: Campaign | ExperimentSpec | Iterable[ExperimentSpec],
        name: str | None = None,
    ) -> EnqueueReport:
        """Enqueue a campaign (or spec, or spec list) as durable work items.

        Specs whose results are already in the store create no jobs; specs
        already pending/running are left untouched; previously ``failed``
        jobs are revived with a fresh attempt budget.  The campaign's
        membership (ordered spec_ids) is recorded so
        :meth:`campaign_status` can report it as a unit.
        """
        if isinstance(experiments, ExperimentSpec):
            specs = [experiments]
            campaign_name = name or "adhoc"
        elif isinstance(experiments, Campaign):
            specs = list(experiments.specs)
            campaign_name = name or experiments.name
        else:
            specs = list(experiments)
            for spec in specs:
                if not isinstance(spec, ExperimentSpec):
                    raise ValidationError(f"queue expects ExperimentSpec, got {spec!r}")
            campaign_name = name or "adhoc"

        unique: dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.spec_id, spec)
        campaign_id = campaign_id_for(specs, campaign_name)
        report = EnqueueReport(campaign_id=campaign_id, total=len(unique))
        now = self._clock()

        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            stored = {
                row[0]
                for row in conn.execute(
                    f"SELECT spec_id FROM results WHERE spec_id IN "
                    f"({','.join('?' * len(unique))})",
                    list(unique),
                )
            } if unique else set()
            for position, (spec_id, spec) in enumerate(unique.items()):
                conn.execute(
                    "INSERT OR REPLACE INTO campaigns "
                    "(campaign_id, position, spec_id, name) VALUES (?, ?, ?, ?)",
                    (campaign_id, position, spec_id, campaign_name),
                )
                if spec_id in stored:
                    report.already_stored += 1
                    continue
                row = conn.execute(
                    "SELECT status FROM jobs WHERE spec_id = ?", (spec_id,)
                ).fetchone()
                if row is not None and row["status"] in ("pending", "running"):
                    report.already_queued += 1
                    continue
                # New job, or a done/failed one whose result is gone: (re)arm.
                conn.execute(
                    """
                    INSERT INTO jobs (spec_id, campaign_id, spec_json, status,
                                      attempts, completions, enqueued_at, gang_key)
                    VALUES (?, ?, ?, 'pending', 0, 0, ?, ?)
                    ON CONFLICT (spec_id) DO UPDATE SET
                        campaign_id = excluded.campaign_id,
                        status      = 'pending',
                        worker_id   = NULL,
                        lease_expires = NULL,
                        attempts    = 0,
                        error       = NULL,
                        enqueued_at = excluded.enqueued_at,
                        gang_key    = excluded.gang_key
                    """,
                    (spec_id, campaign_id, spec.to_json(), now, gang_key_id(spec)),
                )
                report.enqueued += 1
            conn.execute("COMMIT")
        return report

    # ------------------------------------------------------------ claiming
    def claim(
        self,
        worker_id: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> Job | None:
        """Atomically claim one runnable job, or return ``None``.

        Runnable means ``pending``, or ``running`` with an expired lease
        (the previous worker is presumed dead).  The oldest-enqueued
        runnable job wins, and its attempt counter increments — a job
        claimed ``max_attempts`` times without completing is parked as
        ``failed`` rather than retried forever.
        """
        jobs = self.claim_batch(worker_id, 1, lease_seconds=lease_seconds)
        return jobs[0] if jobs else None

    def claim_batch(
        self,
        worker_id: str,
        batch_size: int,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        compatible_with: str | None = None,
    ) -> list[Job]:
        """Atomically lease up to ``batch_size`` gang-compatible jobs.

        One ``BEGIN IMMEDIATE`` transaction claims the oldest runnable job
        (the *seed*) and then keeps claiming the oldest runnable job with
        the **same non-NULL** ``gang_key`` until the batch is full or the
        gang is exhausted — so either every returned job fuses into one
        batched kernel, or the batch is a singleton (a job with
        ``gang_key IS NULL`` can never fuse and always claims alone).
        Other workers see all-or-nothing: the transaction commits every
        lease at once, and two concurrent batch claims can never share a
        job.

        ``compatible_with`` restricts the seed to a specific gang key (for
        a worker that wants to top up a gang it is already running);
        ``None`` means any runnable job seeds the batch.  Each claimed
        job's attempt counter increments exactly as with :meth:`claim`,
        and jobs over their attempt budget are parked as ``failed`` and
        skipped inside the same transaction.
        """
        if batch_size < 1:
            raise ValidationError("batch_size must be at least 1")
        now = self._clock()
        expires = now + float(lease_seconds)
        claimed: list[sqlite3.Row] = []
        with closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                while len(claimed) < batch_size:
                    sql = (
                        "SELECT spec_id, campaign_id, spec_json, attempts, "
                        "gang_key FROM jobs WHERE (status = 'pending' "
                        "OR (status = 'running' AND lease_expires < ?))"
                    )
                    params: list[Any] = [now]
                    seed_key = claimed[0]["gang_key"] if claimed else compatible_with
                    if seed_key is not None:
                        sql += " AND gang_key = ?"
                        params.append(seed_key)
                    sql += " ORDER BY enqueued_at, rowid LIMIT 1"
                    row = conn.execute(sql, params).fetchone()
                    if row is None:
                        break
                    if row["attempts"] + 1 > self.max_attempts:
                        conn.execute(
                            "UPDATE jobs SET status = 'failed', worker_id = NULL, "
                            "error = COALESCE(error, 'exceeded max attempts') "
                            "WHERE spec_id = ?",
                            (row["spec_id"],),
                        )
                        continue
                    conn.execute(
                        "UPDATE jobs SET status = 'running', worker_id = ?, "
                        "lease_expires = ?, attempts = attempts + 1 WHERE spec_id = ?",
                        (worker_id, expires, row["spec_id"]),
                    )
                    claimed.append(row)
                    if row["gang_key"] is None:
                        break
            finally:
                if conn.in_transaction:
                    conn.execute("COMMIT")
        return [
            Job(
                spec_id=row["spec_id"],
                spec=json.loads(row["spec_json"]),
                campaign_id=row["campaign_id"],
                worker_id=worker_id,
                lease_expires=expires,
                attempts=row["attempts"] + 1,
                gang_key=row["gang_key"],
            )
            for row in claimed
        ]

    def heartbeat(
        self,
        spec_id: str,
        worker_id: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> bool:
        """Renew the lease; ``False`` means ownership was lost (stop work)."""
        expires = self._clock() + float(lease_seconds)
        with closing(self._connect()) as conn:
            # Autocommit connection: the single UPDATE is already atomic.
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE spec_id = ? AND worker_id = ? AND status = 'running'",
                (expires, spec_id, worker_id),
            )
            return cursor.rowcount == 1

    def complete(self, spec_id: str, worker_id: str) -> bool:
        """Mark a claimed job done (lease-guarded); ``False`` if not owner."""
        with closing(self._connect()) as conn:
            cursor = conn.execute(
                "UPDATE jobs SET status = 'done', completions = completions + 1, "
                "completed_at = ?, error = NULL "
                "WHERE spec_id = ? AND worker_id = ? AND status = 'running'",
                (self._clock(), spec_id, worker_id),
            )
            return cursor.rowcount == 1

    def fail(self, spec_id: str, worker_id: str, error: str) -> bool:
        """Record a failed execution (lease-guarded).

        The job returns to ``pending`` for another attempt until its attempt
        budget is spent, at which point it is parked as ``failed``.
        """
        with closing(self._connect()) as conn:
            cursor = conn.execute(
                """
                UPDATE jobs SET
                    status = CASE WHEN attempts >= ? THEN 'failed' ELSE 'pending' END,
                    worker_id = NULL, lease_expires = NULL, error = ?
                WHERE spec_id = ? AND worker_id = ? AND status = 'running'
                """,
                (self.max_attempts, error, spec_id, worker_id),
            )
            return cursor.rowcount == 1

    # --------------------------------------------------------------- state
    def job_status(self, spec_id: str) -> dict[str, Any] | None:
        """The job row for ``spec_id`` as plain data, or ``None``."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT spec_id, campaign_id, status, worker_id, lease_expires, "
                "attempts, completions, error, enqueued_at, completed_at "
                "FROM jobs WHERE spec_id = ?",
                (spec_id,),
            ).fetchone()
        return dict(row) if row is not None else None

    def counts(self) -> dict[str, int]:
        """Job counts by status (always includes the four statuses)."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    def claimable(self) -> int:
        """Jobs a worker could claim right now (pending + expired leases)."""
        now = self._clock()
        with closing(self._connect()) as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE status = 'pending' "
                "OR (status = 'running' AND lease_expires < ?)",
                (now,),
            ).fetchone()[0]

    def campaign_status(self, campaign_id: str) -> dict[str, Any]:
        """Progress of one campaign: stored results vs outstanding jobs."""
        with closing(self._connect()) as conn:
            members = [
                row["spec_id"]
                for row in conn.execute(
                    "SELECT spec_id FROM campaigns WHERE campaign_id = ? "
                    "ORDER BY position",
                    (campaign_id,),
                )
            ]
            if not members:
                raise ValidationError(f"unknown campaign {campaign_id!r}")
            placeholders = ",".join("?" * len(members))
            stored = conn.execute(
                f"SELECT COUNT(*) FROM results WHERE spec_id IN ({placeholders})",
                members,
            ).fetchone()[0]
            jobs = {
                row["spec_id"]: row["status"]
                for row in conn.execute(
                    f"SELECT spec_id, status FROM jobs WHERE spec_id IN ({placeholders})",
                    members,
                )
            }
        by_status = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for status in jobs.values():
            by_status[status] += 1
        return {
            "campaign_id": campaign_id,
            "specs": len(members),
            "stored": stored,
            "complete": stored == len(members),
            **by_status,
        }


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "EnqueueReport",
    "Job",
    "WorkQueue",
    "campaign_id_for",
]
