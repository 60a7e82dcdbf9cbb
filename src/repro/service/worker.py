"""Queue worker: claim -> simulate -> store -> complete, restart-safe.

:func:`run_worker` is the execution half of the campaign service.  Any
number of workers (processes on one machine, or repeated invocations after
crashes) point at the same SQLite file and drain the same queue; the
lease/heartbeat protocol of :class:`~repro.service.queue.WorkQueue`
guarantees no job runs on two live workers at once, and the
content-addressed :class:`~repro.service.store.ResultStore` makes the rare
post-crash recomputation idempotent (specs are deterministic, so a reclaimed
job writes a bit-identical payload).

The result is written to the store *before* the job is marked done: a crash
between the two steps re-runs the job, which merely re-upserts the same
payload — never the other way around, where a "done" job would have no
result.

With ``batch_size > 1`` (CLI ``repro work --batch N``) the worker leases up
to N gang-compatible jobs per claim
(:meth:`~repro.service.queue.WorkQueue.claim_batch`) — specs that name the
``vec`` engine and share one compiled network; every other job claims alone
— and executes them as one fused vec kernel
(:func:`~repro.experiments.scheduler.run_unit`, the unit function the
campaign runner executes too); the heartbeat renews every
lease of the batch, and each job still follows its own store-before-complete
sequence, so crash semantics are identical to the single-job path.  If the
fused run raises, the batch falls back to per-spec execution under the same
leases — one poison spec fails alone instead of taking its gang down with
it — and the fallback is counted in :attr:`WorkerStats.fused_fallbacks`.
Every attempt of a claim takes its artifacts from one
:class:`~repro.experiments.scheduler.SharedBuilds` scope, so the per-spec
reruns reuse what the failed fused attempt built, and each result is stored
under the ``trace_id`` of the trace it replayed.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.experiments.scheduler import SharedBuilds, run_unit
from repro.experiments.serialization import prediction_to_dict
from repro.experiments.spec import ExperimentSpec
from repro.service.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.service.store import ResultStore
from repro.utils.validation import ValidationError


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did.

    Attributes
    ----------
    worker_id:
        Identity the worker claimed jobs under.
    computed:
        Jobs executed and marked done by this worker.
    failed:
        Jobs whose execution raised (recorded via ``WorkQueue.fail``).
    lost_leases:
        Jobs computed whose lease was lost before completion (another
        worker reclaimed them; the store write was idempotent).
    fused_fallbacks:
        Multi-job batches whose fused run raised and whose jobs were rerun
        one by one.
    errors:
        ``(spec_id, error)`` pairs for the failed jobs.
    """

    worker_id: str
    computed: int = 0
    failed: int = 0
    lost_leases: int = 0
    fused_fallbacks: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"worker {self.worker_id}: {self.computed} computed, "
            f"{self.failed} failed, {self.lost_leases} lost lease(s), "
            f"{self.fused_fallbacks} fused fallback(s)"
        )


class _LeaseHeartbeat:
    """Daemon thread renewing one or more leases while their jobs execute.

    Simulations can outlast any fixed lease; renewing at a third of the
    lease period keeps ownership alive for as long as the worker process
    actually lives — which is exactly the semantics a lease should have.
    A batch worker holds every lease of its gang through one heartbeat
    thread: :attr:`lost` collects the spec_ids whose lease could not be
    renewed (another worker reclaimed them), and the thread keeps renewing
    the rest.
    """

    def __init__(
        self,
        queue: WorkQueue,
        spec_ids: Iterable[str],
        worker_id: str,
        lease_seconds: float,
    ) -> None:
        self._queue = queue
        self._spec_ids = list(spec_ids)
        self._worker_id = worker_id
        self._lease_seconds = lease_seconds
        self._stop = threading.Event()
        self.lost: set[str] = set()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self._lease_seconds / 3.0, 0.05)
        while not self._stop.wait(interval):
            for spec_id in self._spec_ids:
                if spec_id in self.lost:
                    continue
                if not self._queue.heartbeat(
                    spec_id, self._worker_id, self._lease_seconds
                ):
                    self.lost.add(spec_id)
            if len(self.lost) == len(self._spec_ids):
                return

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def default_worker_id() -> str:
    """Process-unique worker identity (``pid-<pid>``)."""
    return f"pid-{os.getpid()}"


def _run_stored(
    specs: Sequence[ExperimentSpec], builds: SharedBuilds
) -> dict[str, tuple[dict, str | None]]:
    """:func:`run_unit` on ``builds``: per spec, its payload and ``trace_id``."""
    predictions, _, trace_ids = run_unit(specs, builds)
    return {
        spec.spec_id: (prediction_to_dict(prediction), trace_id)
        for spec, prediction, trace_id in zip(specs, predictions, trace_ids)
    }


def _execute_specs(
    specs: Sequence[ExperimentSpec],
) -> tuple[dict[str, tuple[dict, str | None]], dict[str, str], Exception | None]:
    """Run ``specs`` as one unit: per-spec payload and ``trace_id``, errors,
    fused failure.

    A multi-spec batch first runs as one fused :func:`run_unit` kernel; an
    exception there (including a single poison spec crashing the batch) is
    returned as the third value, and every spec reruns on its own so the
    failure is attributed to the one job that actually raises, not the
    whole gang.  All attempts share one build scope, and every attempt
    holds its specs in it, so the reruns reuse the artifacts the fused
    attempt built.  Holding a spec computes its build parameters, which can
    raise for an out-of-range architecture override, so it happens inside
    the same ``try`` as the run: such a spec fails as job data too.
    """
    builds = SharedBuilds()
    fused_error: Exception | None = None
    if len(specs) > 1:
        try:
            builds.hold(specs)
            return _run_stored(specs, builds), {}, None
        except Exception as error:  # noqa: BLE001 — isolate the poison spec below
            fused_error = error
    payloads: dict[str, tuple[dict, str | None]] = {}
    errors: dict[str, str] = {}
    for spec in specs:
        try:
            builds.hold([spec])
            payloads.update(_run_stored([spec], builds))
        except Exception as error:  # noqa: BLE001 — any failure is job data
            errors[spec.spec_id] = repr(error)
    return payloads, errors, fused_error


def run_worker(
    queue: WorkQueue | ResultStore | str | Path,
    worker_id: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_jobs: int | None = None,
    idle_exit: bool = True,
    poll_seconds: float = 0.5,
    stop: threading.Event | None = None,
    progress: bool = False,
    stream: TextIO | None = None,
    batch_size: int = 1,
) -> WorkerStats:
    """Drain jobs from a queue until it is empty (or told to stop).

    Parameters
    ----------
    queue:
        A :class:`WorkQueue`, or a :class:`ResultStore`/path to build one on.
    worker_id:
        Lease identity; defaults to a process-unique id.
    lease_seconds:
        Lease duration per claim; a heartbeat thread renews it while the
        job executes, so this only bounds how long a *dead* worker's job
        stays unclaimable.
    max_jobs:
        Stop after claiming this many jobs (``None`` = unbounded).
    idle_exit:
        When ``True`` (the default), return as soon as no job is claimable —
        the "drain the queue" mode of ``repro work``.  When ``False``, keep
        polling every ``poll_seconds`` until ``stop`` is set — the mode of
        the ``repro serve`` background workers.
    stop:
        Cooperative stop signal (checked between jobs).
    progress:
        Emit one line per processed claim on ``stream`` (default stderr).
    batch_size:
        Lease up to this many gang-compatible jobs per claim and execute
        them as one fused vec kernel; jobs that do not name ``vec`` claim
        and run alone whatever the size.  ``1`` (the default) preserves the
        classic one-job-at-a-time loop; higher values change throughput
        only — every job's payload, store write, and completion are
        identical to the single-job path.

    Returns
    -------
    WorkerStats
        Per-worker counters; ``stats.failed`` jobs remain in the queue as
        ``pending``/``failed`` for inspection.
    """
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    if not isinstance(queue, WorkQueue):
        queue = WorkQueue(queue)
    worker_id = worker_id or default_worker_id()
    stream = stream if stream is not None else sys.stderr
    stats = WorkerStats(worker_id=worker_id)

    while stop is None or not stop.is_set():
        processed = stats.computed + stats.failed
        if max_jobs is not None and processed >= max_jobs:
            break
        want = batch_size
        if max_jobs is not None:
            want = min(want, max_jobs - processed)
        jobs = queue.claim_batch(worker_id, want, lease_seconds=lease_seconds)
        if not jobs:
            if idle_exit:
                break
            time.sleep(poll_seconds)
            continue
        specs = [job.build_spec() for job in jobs]
        if progress:
            what = (
                f"{jobs[0].spec_id} (attempt {jobs[0].attempts})"
                if len(jobs) == 1
                else f"batch of {len(jobs)} ({jobs[0].gang_key})"
            )
            print(
                f"[repro.worker {worker_id}] {what}: {specs[0].describe()}",
                file=stream,
                flush=True,
            )
        with _LeaseHeartbeat(
            queue, [job.spec_id for job in jobs], worker_id, lease_seconds
        ) as beat:
            payloads, errors, fused_error = _execute_specs(specs)
        if fused_error is not None:
            stats.fused_fallbacks += 1
            if progress:
                print(
                    f"[repro.worker {worker_id}] fused batch failed, reran "
                    f"{len(specs)} jobs one by one: {fused_error!r}",
                    file=stream,
                    flush=True,
                )
        for job, spec in zip(jobs, specs):
            if job.spec_id in errors:
                queue.fail(job.spec_id, worker_id, errors[job.spec_id])
                stats.failed += 1
                stats.errors.append((job.spec_id, errors[job.spec_id]))
                continue
            payload, trace_id = payloads[job.spec_id]
            queue.store.put(spec, payload, trace_id=trace_id)
            if job.spec_id in beat.lost or not queue.complete(
                job.spec_id, worker_id
            ):
                # Lease expired mid-run and someone else owns (or finished)
                # the job now; our store write was idempotent, so just
                # account for it.
                stats.lost_leases += 1
            else:
                stats.computed += 1
    if progress:
        print(f"[repro.worker] {stats.summary()}", file=stream, flush=True)
    return stats


__all__ = ["WorkerStats", "default_worker_id", "run_worker"]
