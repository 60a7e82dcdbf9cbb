"""Unit tests of the content-addressed SQLite result store."""

from __future__ import annotations

import json

import pytest

import shutil
from pathlib import Path

from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.serialization import (
    RESULT_SCHEMA_VERSION,
    prediction_to_dict,
)
from repro.service.store import STORE_SCHEMA_VERSION, ResultStore
from repro.utils.validation import ValidationError


def spec_for(topology: str = "mesh", **overrides) -> ExperimentSpec:
    kwargs = dict(topology=topology, rows=4, cols=4, traffic="uniform",
                  performance_mode="analytical")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store.sqlite")


def test_put_get_roundtrip(store):
    spec = spec_for()
    payload = prediction_to_dict(spec.run())
    assert store.put(spec, payload) == spec.spec_id

    row = store.get(spec.spec_id)
    assert row is not None
    assert row.spec_id == spec.spec_id
    assert row.topology == "mesh"
    assert row.rows == 4 and row.cols == 4
    assert row.traffic == "uniform"
    assert row.workload is None and row.trace_id is None
    assert row.schema_version == RESULT_SCHEMA_VERSION
    assert row.result == payload
    assert row.build_spec() == spec
    # The decoded prediction reproduces the stored scalars exactly.
    assert prediction_to_dict(row.prediction()) == payload


def test_membership_len_and_delete(store):
    spec = spec_for()
    assert spec.spec_id not in store
    assert len(store) == 0
    store.put(spec, prediction_to_dict(spec.run()))
    assert spec.spec_id in store
    assert len(store) == 1
    assert store.delete(spec.spec_id) is True
    assert store.delete(spec.spec_id) is False
    assert len(store) == 0


def test_upsert_is_idempotent_and_preserves_search_id(store):
    spec = spec_for()
    payload = prediction_to_dict(spec.run())
    store.put(spec, payload, search_id="search-1")
    # A later write without a search_id must not erase the recorded one.
    store.put(spec, payload)
    row = store.get(spec.spec_id)
    assert row.search_id == "search-1"
    assert len(store) == 1
    # An explicit new search_id wins.
    store.put(spec, payload, search_id="search-2")
    assert store.get(spec.spec_id).search_id == "search-2"


def test_put_rejects_malformed_payload(store):
    spec = spec_for()
    with pytest.raises(ValidationError):
        store.put(spec, {"not": "a result"})
    assert len(store) == 0


def test_query_filters_and_order(store):
    specs = [spec_for(), spec_for("torus"), spec_for(scenario="a")]
    for spec in specs:
        store.put(spec, prediction_to_dict(spec.run()))

    assert store.spec_ids() == [spec.spec_id for spec in specs]
    assert [r.spec_id for r in store.query()] == store.spec_ids()
    assert [r.topology for r in store.query(topology="torus")] == ["torus"]
    assert [r.scenario for r in store.query(scenario="a")] == ["a"]
    assert len(store.query(topology="mesh")) == 2
    assert len(store.query(topology="mesh", limit=1)) == 1
    assert store.query(topology="ring") == []


def test_result_set_is_fully_cached(store):
    spec = spec_for()
    store.put(spec, prediction_to_dict(spec.run()))
    results = store.result_set(topology="mesh")
    assert len(results) == 1
    assert results.num_cached == 1
    record = results.to_records()[0]
    assert record["topology"] == "mesh"
    assert record["cached"] is True


def test_stats_shape(store):
    spec = spec_for()
    store.put(spec, prediction_to_dict(spec.run()), search_id="s-1")
    stats = store.stats()
    assert stats["results"] == 1
    assert stats["store_schema_version"] == STORE_SCHEMA_VERSION
    assert stats["by_topology"] == {"mesh": 1}
    assert stats["by_workload"] == {"(synthetic)": 1}
    assert stats["searches"] == 1
    assert stats["size_bytes"] > 0


def test_rejects_in_memory_database():
    with pytest.raises(ValidationError, match="in-memory"):
        ResultStore(":memory:")


def test_rejects_newer_schema_version(tmp_path):
    path = tmp_path / "future.sqlite"
    store = ResultStore(path)
    import sqlite3

    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'store_schema_version'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
    with pytest.raises(ValidationError, match="newer"):
        ResultStore(path)
    del store


def test_store_cache_backend_roundtrip(store):
    runner = ExperimentRunner(store=store, search_id="s-9")
    spec = spec_for()
    miss = runner.run(spec)[0]
    assert miss.cached is False
    hit = runner.run(spec)[0]
    assert hit.cached is True
    assert prediction_to_dict(hit.prediction) == prediction_to_dict(miss.prediction)
    assert store.get(spec.spec_id).search_id == "s-9"


#: Three entries a legacy memoization directory holds for the mesh, torus
#: and hypercube 4x4 uniform-traffic campaign.
LEGACY_CACHE = Path(__file__).resolve().parents[1] / "fixtures" / "legacy-cache"


def test_import_cache_dir_validates_entries(store, tmp_path):
    cache_dir = tmp_path / "cache"
    shutil.copytree(LEGACY_CACHE, cache_dir)
    entry = sorted(cache_dir.glob("exp-*.json"))[0]
    payload = json.loads(entry.read_text())

    # Truncated file, junk JSON, a renamed (hash-mismatched) entry, and an
    # entry without its result.
    (cache_dir / "exp-truncated.json").write_text('{"spec": {"topo')
    (cache_dir / "exp-junk.json").write_text('[1, 2, 3]')
    renamed = cache_dir / "exp-0000000000000000.json"
    renamed.write_text(entry.read_text())
    no_result = cache_dir / "exp-1111111111111111.json"
    no_result.write_text(json.dumps({"spec": payload["spec"]}))

    report = store.import_cache_dir(cache_dir)
    assert report.imported == 3
    assert report.already_present == 0
    assert sorted(name for name, _ in report.invalid) == [
        "exp-0000000000000000.json",
        "exp-1111111111111111.json",
        "exp-junk.json",
        "exp-truncated.json",
    ]
    reasons = dict(report.invalid)
    assert "missing keys: ['result']" in reasons["exp-1111111111111111.json"]
    assert "but exp-0000000000000000 was requested" in reasons["exp-0000000000000000.json"]
    assert report.total == 7
    assert entry.stem in store

    # Importing again refreshes rather than duplicating.
    again = store.import_cache_dir(cache_dir)
    assert again.imported == 0
    assert again.already_present == 3
    assert len(store) == 3


def test_import_cache_dir_missing_directory(store, tmp_path):
    with pytest.raises(ValidationError, match="does not exist"):
        store.import_cache_dir(tmp_path / "nope")
