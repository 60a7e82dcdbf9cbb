"""Content-addressed result store: SQLite rows keyed by ``spec_id``.

The store is the runner's only memoization backend (it replaced a
one-JSON-file-per-spec directory, which :meth:`ResultStore.import_cache_dir`
still imports).  Every row holds one executed
:class:`~repro.experiments.spec.ExperimentSpec` — the canonical spec JSON,
the serialized prediction payload (see
:mod:`repro.experiments.serialization`), and denormalized identity columns
(topology family, grid, scenario, workload name, ``trace_id``,
``search_id``) with secondary indexes so accumulated campaigns can be
*queried* without re-running anything.

Properties the rest of the service layer builds on:

* **Content addressing** — the primary key is
  :attr:`~repro.experiments.spec.ExperimentSpec.spec_id`, a content hash of
  the spec, so a row can only ever describe one experiment and re-running
  any campaign against the store is a 100% hit.
* **Atomic upserts** — writes are single ``INSERT .. ON CONFLICT DO
  UPDATE`` statements inside SQLite transactions; a killed worker can never
  leave a torn row.  Results are deterministic, so concurrent writers of
  the same spec converge on identical payloads.
* **Schema versioning** — a ``meta`` table records the store schema
  version and every row records the result-payload schema version; opening
  a store written by a newer layout fails loudly instead of corrupting it.
* **Migration** — :meth:`ResultStore.import_cache_dir` imports a legacy
  memoization directory in one shot, validating each entry (including that
  the file name matches the content hash of the stored spec).

Concurrency model: every operation opens its own short-lived connection
(WAL journal, 30 s busy timeout), which makes the store safe to share
between threads *and* processes — the queue workers, the HTTP API, and
offline ``repro query`` calls all point at the same file.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.experiments.runner import ExperimentResult, ResultSet
from repro.experiments.serialization import (
    RESULT_SCHEMA_VERSION,
    prediction_from_dict,
    validate_result_payload,
)
from repro.experiments.scheduler import gang_key_id
from repro.experiments.spec import ExperimentSpec
from repro.toolchain.results import PredictionResult
from repro.utils.validation import ValidationError

#: Version of the SQLite layout (tables/columns/indexes) itself.
#: v2 added ``jobs.gang_key`` (compiled-network compatibility hash used by
#: the batch-claiming gang worker); v3 re-keys jobs queued before only
#: ``vec`` specs gang.  Older stores are migrated in place on open.
STORE_SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    spec_id          TEXT PRIMARY KEY,
    schema_version   INTEGER NOT NULL,
    topology         TEXT NOT NULL,
    rows             INTEGER NOT NULL,
    cols             INTEGER NOT NULL,
    scenario         TEXT,
    traffic          TEXT,
    workload         TEXT,
    trace_id         TEXT,
    search_id        TEXT,
    performance_mode TEXT NOT NULL,
    spec_json        TEXT NOT NULL,
    result_json      TEXT NOT NULL,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_topology ON results (topology);
CREATE INDEX IF NOT EXISTS idx_results_trace    ON results (trace_id);
CREATE INDEX IF NOT EXISTS idx_results_search   ON results (search_id);
CREATE TABLE IF NOT EXISTS jobs (
    spec_id      TEXT PRIMARY KEY,
    campaign_id  TEXT,
    spec_json    TEXT NOT NULL,
    status       TEXT NOT NULL,
    worker_id    TEXT,
    lease_expires REAL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    completions  INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    enqueued_at  REAL NOT NULL,
    completed_at REAL,
    gang_key     TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status   ON jobs (status);
CREATE INDEX IF NOT EXISTS idx_jobs_campaign ON jobs (campaign_id);
CREATE INDEX IF NOT EXISTS idx_jobs_gang     ON jobs (gang_key);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT NOT NULL,
    position    INTEGER NOT NULL,
    spec_id     TEXT NOT NULL,
    name        TEXT,
    PRIMARY KEY (campaign_id, position)
);
"""


@dataclass(frozen=True)
class StoredResult:
    """One store row, decoded.

    Attributes
    ----------
    spec_id:
        Content hash of the spec (the primary key).
    spec:
        The spec as plain data (``ExperimentSpec.to_dict`` form).
    result:
        The serialized prediction payload
        (:func:`~repro.experiments.serialization.prediction_to_dict` form).
    trace_id, search_id:
        Secondary identities (``None`` when not applicable).
    schema_version:
        Result-payload schema version the row was written with.
    created_at, updated_at:
        Unix timestamps of first insert and last upsert.
    """

    spec_id: str
    spec: dict[str, Any]
    result: dict[str, Any]
    topology: str
    rows: int
    cols: int
    scenario: str | None
    traffic: str | None
    workload: str | None
    trace_id: str | None
    search_id: str | None
    performance_mode: str
    schema_version: int
    created_at: float
    updated_at: float

    def build_spec(self) -> ExperimentSpec:
        """Rebuild the live :class:`ExperimentSpec` this row describes."""
        return ExperimentSpec.from_dict(self.spec)

    def prediction(self) -> PredictionResult:
        """Rebuild the stored prediction."""
        return prediction_from_dict(self.result)


def validate_cache_payload(payload: Any, spec_id: str) -> None:
    """Validate a legacy ``{"spec": ..., "result": ...}`` cache entry.

    Parameters
    ----------
    payload:
        The decoded JSON payload.
    spec_id:
        The spec the entry's file name says it describes; the stored spec is
        rebuilt and re-hashed, and an id mismatch (a renamed file, a stale
        entry from an older spec schema) is rejected.

    Raises
    ------
    ValidationError
        On any structural problem — the entry must not be imported.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(
            f"cache entry must be a JSON object, got {type(payload).__name__}"
        )
    if "spec" not in payload or "result" not in payload:
        missing = [key for key in ("spec", "result") if key not in payload]
        raise ValidationError(f"cache entry is missing keys: {missing}")
    if not isinstance(payload["spec"], Mapping):
        raise ValidationError("cache entry 'spec' must be a mapping")
    stored_spec = ExperimentSpec.from_dict(payload["spec"])
    if stored_spec.spec_id != spec_id:
        raise ValidationError(
            f"cache entry describes spec {stored_spec.spec_id}, "
            f"but {spec_id} was requested"
        )
    validate_result_payload(payload["result"])


@dataclass
class MigrationReport:
    """Outcome of :meth:`ResultStore.import_cache_dir`.

    Attributes
    ----------
    imported:
        Entries upserted into the store.
    already_present:
        Entries whose spec_id was already stored (payload refreshed).
    invalid:
        ``(file name, reason)`` pairs for entries that failed validation.
    """

    imported: int = 0
    already_present: int = 0
    invalid: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Files examined."""
        return self.imported + self.already_present + len(self.invalid)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"{self.imported} imported, {self.already_present} refreshed, "
            f"{len(self.invalid)} invalid of {self.total} entries"
        )


class ResultStore:
    """Content-addressed, indexed prediction store in one SQLite file.

    Parameters
    ----------
    path:
        SQLite database file (created, along with parent directories, if
        missing).  In-memory databases are rejected: the store's whole point
        is durability, and the per-operation connections would each see a
        different empty database.

    Examples
    --------
    >>> store = ResultStore("results.sqlite")           # doctest: +SKIP
    >>> store.put(spec, prediction_to_dict(spec.run())) # doctest: +SKIP
    >>> store.get(spec.spec_id).result["noc_power_w"]   # doctest: +SKIP
    1.57
    >>> len(store.query(topology="mesh"))               # doctest: +SKIP
    12
    """

    def __init__(self, path: str | Path) -> None:
        if str(path) == ":memory:":
            raise ValidationError(
                "ResultStore needs a file path; in-memory databases do not "
                "survive the store's per-operation connections"
            )
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._init_schema()

    # ------------------------------------------------------------ plumbing
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA busy_timeout = 30000")
        return conn

    def _init_schema(self) -> None:
        with closing(self._connect()) as conn:
            # WAL lets readers (the serve API) proceed while a worker writes.
            conn.execute("PRAGMA journal_mode = WAL")
            # Old tables must grow their new columns before _SCHEMA's
            # CREATE INDEX statements reference them.
            job_columns = {
                row[1] for row in conn.execute("PRAGMA table_info(jobs)")
            }
            if job_columns and "gang_key" not in job_columns:
                conn.execute("ALTER TABLE jobs ADD COLUMN gang_key TEXT")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'store_schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('store_schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
                conn.commit()
            elif int(row["value"]) > STORE_SCHEMA_VERSION:
                raise ValidationError(
                    f"store {self.path} uses schema version {row['value']}, "
                    f"newer than this code understands ({STORE_SCHEMA_VERSION}); "
                    "upgrade repro instead of rewriting the store"
                )
            elif int(row["value"]) < STORE_SCHEMA_VERSION:
                self._rekey_jobs(conn)

    @staticmethod
    def _rekey_jobs(conn: sqlite3.Connection) -> None:
        """Recompute every ``jobs.gang_key`` of an older store from its spec.

        A v1 store has just gained the column; a v2 store may hold keys from
        before gangs were limited to ``vec`` specs.
        """
        rows = conn.execute("SELECT spec_id, spec_json FROM jobs").fetchall()
        for row in rows:
            try:
                key = gang_key_id(ExperimentSpec.from_dict(json.loads(row["spec_json"])))
            except (ValidationError, ValueError, KeyError, TypeError):
                # An undecodable legacy job simply never gangs.
                key = None
            conn.execute(
                "UPDATE jobs SET gang_key = ? WHERE spec_id = ?",
                (key, row["spec_id"]),
            )
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'store_schema_version'",
            (str(STORE_SCHEMA_VERSION),),
        )
        conn.commit()

    # -------------------------------------------------------------- writes
    def put(
        self,
        spec: ExperimentSpec,
        result: Mapping[str, Any],
        search_id: str | None = None,
        trace_id: str | None = None,
    ) -> str:
        """Atomically upsert one result; returns the ``spec_id`` row key.

        Parameters
        ----------
        spec:
            The executed spec (its ``spec_id`` is the row key; identity
            columns are derived from it).
        result:
            Serialized prediction
            (:func:`~repro.experiments.serialization.prediction_to_dict`).
        search_id:
            Optional owning search; on upsert an existing non-NULL
            ``search_id`` is preserved when the new write has none.
        trace_id:
            The ``trace_id`` of the workload trace the result replayed, from
            a caller that already built it.  Omitted for a workload spec,
            it is derived by generating the spec's trace.
        """
        validate_result_payload(result)
        if trace_id is None and spec.workload is not None:
            trace_id = spec.build_workload_trace().trace_id
        now = time.time()
        with closing(self._connect()) as conn:
            conn.execute(
                """
                INSERT INTO results (
                    spec_id, schema_version, topology, rows, cols, scenario,
                    traffic, workload, trace_id, search_id, performance_mode,
                    spec_json, result_json, created_at, updated_at
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (spec_id) DO UPDATE SET
                    schema_version   = excluded.schema_version,
                    result_json      = excluded.result_json,
                    search_id        = COALESCE(excluded.search_id, results.search_id),
                    updated_at       = excluded.updated_at
                """,
                (
                    spec.spec_id,
                    RESULT_SCHEMA_VERSION,
                    spec.topology,
                    spec.rows,
                    spec.cols,
                    spec.scenario,
                    None if spec.workload is not None else spec.traffic,
                    spec.workload["name"] if spec.workload is not None else None,
                    trace_id,
                    search_id,
                    spec.performance_mode,
                    spec.to_json(),
                    json.dumps(dict(result), sort_keys=True),
                    now,
                    now,
                ),
            )
            conn.commit()
        return spec.spec_id

    def delete(self, spec_id: str) -> bool:
        """Remove one row; returns whether it existed."""
        with closing(self._connect()) as conn:
            cursor = conn.execute("DELETE FROM results WHERE spec_id = ?", (spec_id,))
            conn.commit()
            return cursor.rowcount > 0

    # --------------------------------------------------------------- reads
    @staticmethod
    def _decode(row: sqlite3.Row) -> StoredResult:
        return StoredResult(
            spec_id=row["spec_id"],
            spec=json.loads(row["spec_json"]),
            result=json.loads(row["result_json"]),
            topology=row["topology"],
            rows=row["rows"],
            cols=row["cols"],
            scenario=row["scenario"],
            traffic=row["traffic"],
            workload=row["workload"],
            trace_id=row["trace_id"],
            search_id=row["search_id"],
            performance_mode=row["performance_mode"],
            schema_version=row["schema_version"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )

    def get(self, spec_id: str) -> StoredResult | None:
        """The row for ``spec_id``, or ``None``."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT * FROM results WHERE spec_id = ?", (spec_id,)
            ).fetchone()
        return self._decode(row) if row is not None else None

    def __contains__(self, spec_id: str) -> bool:
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT 1 FROM results WHERE spec_id = ?", (spec_id,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with closing(self._connect()) as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def spec_ids(self) -> list[str]:
        """All stored spec_ids, in insertion order."""
        with closing(self._connect()) as conn:
            rows = conn.execute("SELECT spec_id FROM results ORDER BY rowid").fetchall()
        return [row["spec_id"] for row in rows]

    def query(
        self,
        spec_id: str | None = None,
        topology: str | None = None,
        trace_id: str | None = None,
        search_id: str | None = None,
        scenario: str | None = None,
        workload: str | None = None,
        limit: int | None = None,
    ) -> list[StoredResult]:
        """Indexed lookup over the identity columns (AND of the given filters).

        Rows come back in insertion order, so repeated queries over an
        append-only store are stable.
        """
        clauses, params = [], []
        for column, value in (
            ("spec_id", spec_id),
            ("topology", topology),
            ("trace_id", trace_id),
            ("search_id", search_id),
            ("scenario", scenario),
            ("workload", workload),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT * FROM results"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY rowid"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with closing(self._connect()) as conn:
            rows = conn.execute(sql, params).fetchall()
        return [self._decode(row) for row in rows]

    def result_set(self, **filters: Any) -> ResultSet:
        """Materialize a query as an analysis-ready :class:`ResultSet`.

        Every entry is marked ``cached=True`` — nothing was computed, the
        predictions come straight out of the store.
        """
        return ResultSet(
            ExperimentResult(
                spec=row.build_spec(), prediction=row.prediction(), cached=True
            )
            for row in self.query(**filters)
        )

    def stats(self) -> dict[str, Any]:
        """Row counts, per-family/workload breakdowns, queue state, file size."""
        with closing(self._connect()) as conn:
            total = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            by_topology = {
                row["topology"]: row["n"]
                for row in conn.execute(
                    "SELECT topology, COUNT(*) AS n FROM results "
                    "GROUP BY topology ORDER BY topology"
                )
            }
            by_workload = {
                (row["workload"] or "(synthetic)"): row["n"]
                for row in conn.execute(
                    "SELECT workload, COUNT(*) AS n FROM results "
                    "GROUP BY workload ORDER BY workload"
                )
            }
            searches = conn.execute(
                "SELECT COUNT(DISTINCT search_id) FROM results "
                "WHERE search_id IS NOT NULL"
            ).fetchone()[0]
            jobs = {
                row["status"]: row["n"]
                for row in conn.execute(
                    "SELECT status, COUNT(*) AS n FROM jobs "
                    "GROUP BY status ORDER BY status"
                )
            }
        return {
            "path": str(self.path),
            "store_schema_version": STORE_SCHEMA_VERSION,
            "result_schema_version": RESULT_SCHEMA_VERSION,
            "results": total,
            "by_topology": by_topology,
            "by_workload": by_workload,
            "searches": searches,
            "jobs": jobs,
            "size_bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    # ----------------------------------------------------------- migration
    def import_cache_dir(self, cache_dir: str | Path) -> MigrationReport:
        """One-shot import of a legacy memoization directory.

        Every ``*.json`` entry is validated by :func:`validate_cache_payload`
        — including that the file name matches the content hash of the
        stored spec — and then upserted.  Invalid entries are reported, not
        fatal.

        Parameters
        ----------
        cache_dir:
            A directory of ``<spec_id>.json`` entries, each holding
            ``{"spec": ..., "result": ...}``, as older releases of the
            runner wrote them.

        Returns
        -------
        MigrationReport
            Counts plus a ``(file, reason)`` list of rejected entries.
        """
        cache_dir = Path(cache_dir)
        if not cache_dir.is_dir():
            raise ValidationError(f"cache directory {cache_dir} does not exist")
        report = MigrationReport()
        for path in sorted(cache_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                validate_cache_payload(payload, spec_id=path.stem)
            except (OSError, json.JSONDecodeError, ValidationError) as error:
                report.invalid.append((path.name, str(error)))
                continue
            spec = ExperimentSpec.from_dict(payload["spec"])
            existed = spec.spec_id in self
            self.put(spec, payload["result"])
            if existed:
                report.already_present += 1
            else:
                report.imported += 1
        return report

    def __iter__(self) -> Iterator[StoredResult]:
        return iter(self.query())


__all__ = [
    "STORE_SCHEMA_VERSION",
    "MigrationReport",
    "ResultStore",
    "StoredResult",
    "validate_cache_payload",
]
