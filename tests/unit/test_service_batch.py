"""Batched claiming and fused workers: gang leases, exactly-once, migration.

The service-side half of the gang scheduler: ``WorkQueue.claim_batch`` must
lease only gang-compatible jobs in one atomic transaction, the batch worker
must keep per-job store-before-complete semantics (so concurrent batch
workers never double-complete a job), and a v1 database must transparently
migrate to the gang-aware v2 schema.
"""

from __future__ import annotations

import io
import json
import sqlite3
import threading

import pytest

from repro.experiments.spec import ExperimentSpec
from repro.experiments.scheduler import gang_key_id
from repro.service.queue import WorkQueue
from repro.service.store import STORE_SCHEMA_VERSION, ResultStore
from repro.service.worker import run_worker
from repro.utils.validation import ValidationError

#: Cycle counts small enough for unit tests; the worker tests below run
#: real simulations, so every lane must stay cheap.
FAST_SIM = {"warmup_cycles": 40, "measurement_cycles": 120, "drain_max_cycles": 400}


def sim_spec(seed: int, topology: str = "mesh", engine: str = "vec") -> ExperimentSpec:
    sim = {"engine": engine, "seed": seed, **FAST_SIM}
    return ExperimentSpec(topology=topology, rows=4, cols=4,
                          performance_mode="simulation", sim=sim, label=f"s{seed}")


def analytical_spec() -> ExperimentSpec:
    return ExperimentSpec(topology="mesh", rows=4, cols=4,
                          performance_mode="analytical")


@pytest.fixture
def queue(tmp_path) -> WorkQueue:
    return WorkQueue(tmp_path / "store.sqlite")


# ----------------------------------------------------------- claim_batch

def test_enqueue_records_gang_key(queue):
    queue.enqueue(sim_spec(1))
    queue.enqueue(analytical_spec())
    sim_job = queue.claim("w")
    other_job = queue.claim("w")
    keys = {job.gang_key for job in (sim_job, other_job)}
    assert gang_key_id(sim_spec(1)) in keys
    assert None in keys


def test_claim_batch_leases_one_gang_atomically(queue):
    mesh = [sim_spec(i) for i in range(1, 7)]
    for spec in mesh + [sim_spec(10, topology="torus"), analytical_spec()]:
        queue.enqueue(spec)

    batch = queue.claim_batch("w1", 8)
    assert len(batch) == 6
    assert {job.gang_key for job in batch} == {gang_key_id(mesh[0])}

    # The torus singleton and the analytical job each claim alone;
    # the analytical job (gang_key NULL) never shares a batch.
    assert len(queue.claim_batch("w2", 8)) == 1
    solo = queue.claim_batch("w3", 8)
    assert len(solo) == 1 and solo[0].gang_key is None
    assert queue.claim_batch("w4", 8) == []


def test_claim_batch_respects_compatible_with(queue):
    for spec in [sim_spec(1), sim_spec(2), sim_spec(9, topology="torus")]:
        queue.enqueue(spec)
    torus_key = gang_key_id(sim_spec(9, topology="torus"))
    batch = queue.claim_batch("w", 8, compatible_with=torus_key)
    # The older mesh jobs are skipped: only the requested gang is leased.
    assert [job.gang_key for job in batch] == [torus_key]


def test_claim_batch_validates_batch_size(queue):
    with pytest.raises(ValidationError):
        queue.claim_batch("w", 0)


def test_claim_delegates_to_batch_of_one(queue):
    queue.enqueue(sim_spec(1))
    job = queue.claim("w")
    assert job is not None and job.gang_key == gang_key_id(sim_spec(1))
    assert queue.claim("w") is None


# ------------------------------------------------------- schema migration

def test_v1_database_migrates_and_backfills_gang_keys(tmp_path):
    db = tmp_path / "store.sqlite"
    queue = WorkQueue(db)
    for spec in [sim_spec(1), sim_spec(2), analytical_spec()]:
        queue.enqueue(spec)

    # Rewind the database to the v1 shape: no gang column, version 1.
    conn = sqlite3.connect(db)
    conn.execute("DROP INDEX IF EXISTS idx_jobs_gang")
    conn.execute("ALTER TABLE jobs DROP COLUMN gang_key")
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'store_schema_version'")
    conn.commit()
    conn.close()

    migrated = WorkQueue(db)  # opening the store runs the migration
    conn = sqlite3.connect(db)
    conn.row_factory = sqlite3.Row
    version = conn.execute(
        "SELECT value FROM meta WHERE key = 'store_schema_version'"
    ).fetchone()["value"]
    assert int(version) == STORE_SCHEMA_VERSION
    keys = {
        row["spec_id"]: row["gang_key"]
        for row in conn.execute("SELECT spec_id, gang_key FROM jobs")
    }
    conn.close()
    assert keys[sim_spec(1).spec_id] == gang_key_id(sim_spec(1))
    assert keys[analytical_spec().spec_id] is None
    # And the backfilled keys drive batched claiming.
    batch = migrated.claim_batch("w", 8)
    assert len(batch) == 2


# ---------------------------------------------------------- batch worker

def test_batch_worker_payloads_match_single_worker(tmp_path):
    specs = [sim_spec(i) for i in (1, 2, 3)] + [analytical_spec()]

    single = WorkQueue(tmp_path / "single.sqlite")
    batched = WorkQueue(tmp_path / "batched.sqlite")
    for spec in specs:
        single.enqueue(spec)
        batched.enqueue(spec)

    assert run_worker(single, worker_id="one-by-one").computed == len(specs)
    stats = run_worker(batched, worker_id="fused", batch_size=8)
    assert stats.computed == len(specs)
    assert stats.failed == 0 and stats.lost_leases == 0

    for spec in specs:
        want = single.store.get(spec.spec_id).result
        got = batched.store.get(spec.spec_id).result
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_concurrent_batch_workers_complete_each_job_once(tmp_path):
    queue = WorkQueue(tmp_path / "store.sqlite")
    specs = [sim_spec(i) for i in range(1, 7)]
    for spec in specs:
        queue.enqueue(spec)

    results = {}

    def drain(name: str) -> None:
        results[name] = run_worker(queue, worker_id=name, batch_size=3)

    threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert sum(stats.computed for stats in results.values()) == len(specs)
    assert all(stats.failed == 0 for stats in results.values())
    conn = sqlite3.connect(tmp_path / "store.sqlite")
    rows = conn.execute("SELECT spec_id, status, completions FROM jobs").fetchall()
    conn.close()
    assert len(rows) == len(specs)
    assert all(status == "done" and completions == 1 for _, status, completions in rows)


def test_batch_worker_falls_back_per_spec_on_fused_failure(tmp_path, monkeypatch):
    import repro.service.worker as worker_module

    def explode(specs):
        raise RuntimeError("fused kernel blew up")

    monkeypatch.setattr(worker_module, "run_unit", explode)
    queue = WorkQueue(tmp_path / "store.sqlite")
    specs = [sim_spec(i) for i in (1, 2)]
    for spec in specs:
        queue.enqueue(spec)
    stream = io.StringIO()
    stats = run_worker(queue, worker_id="w", batch_size=2, progress=True, stream=stream)
    # The fused attempt failed, but every job still completed solo.
    assert stats.computed == len(specs) and stats.failed == 0
    assert stats.fused_fallbacks == 1
    assert "1 fused fallback(s)" in stats.summary()
    assert "RuntimeError('fused kernel blew up')" in stream.getvalue()
    for spec in specs:
        assert queue.store.get(spec.spec_id) is not None
