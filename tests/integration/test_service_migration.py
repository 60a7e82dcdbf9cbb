"""Store-migration round trip: legacy cache dir -> SQLite store -> 100% hits.

The migration acceptance criterion: importing an existing memoization
directory preserves every payload spec-for-spec, and a subsequent run of the
same campaign against the store computes nothing.  The legacy directory is a
committed fixture: the entries older releases of the runner wrote for the
mesh/torus/hypercube 4x4 uniform-traffic campaign.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import Campaign, ExperimentRunner
from repro.service.queue import WorkQueue
from repro.service.store import ResultStore

LEGACY_CACHE = Path(__file__).resolve().parents[1] / "fixtures" / "legacy-cache"


def legacy_campaign() -> Campaign:
    return Campaign.grid(
        topologies=("mesh", "torus", "hypercube"),
        sizes=((4, 4),),
        traffics=("uniform",),
        name="service-smoke",
    )


def test_migration_round_trip_and_store_hits(tmp_path):
    campaign = legacy_campaign()
    store_path = tmp_path / "store.sqlite"

    # 1. The legacy directory holds one entry per spec of the campaign.
    entries = sorted(LEGACY_CACHE.glob("*.json"))
    assert len(entries) == len(campaign.specs)
    assert {path.stem for path in entries} == {spec.spec_id for spec in campaign.specs}

    # 2. One-shot migration imports every entry.
    store = ResultStore(store_path)
    report = store.import_cache_dir(LEGACY_CACHE)
    assert report.imported == len(campaign.specs)
    assert report.already_present == 0
    assert report.invalid == []
    assert len(store) == len(campaign.specs)

    # 3. Spec-for-spec payload equality with the files on disk.
    for path in entries:
        payload = json.loads(path.read_text())
        row = store.get(path.stem)
        assert row is not None
        assert row.spec == payload["spec"]
        assert row.result == payload["result"]

    # 4. Re-running the campaign against the store is a 100% hit, serving
    # the predictions a fresh run computes...
    live = ExperimentRunner().run(campaign)
    replay = ExperimentRunner(store=store).run(campaign)
    assert replay.num_cached == len(campaign.specs)
    for before, after in zip(live, replay):
        assert before.spec == after.spec
        assert before.prediction.zero_load_latency_cycles == (
            after.prediction.zero_load_latency_cycles
        )
        assert before.prediction.noc_power_w == after.prediction.noc_power_w

    # ...and enqueueing it creates zero jobs.
    report = WorkQueue(store).enqueue(campaign)
    assert report.enqueued == 0
    assert report.already_stored == len(campaign.specs)

    # 5. The store-backed ResultSet matches the fresh run's records.
    from_store = store.result_set()
    live_records = {record["spec_id"]: record for record in live.to_records()}
    assert len(from_store) == len(live)
    for record in from_store.to_records():
        reference = live_records[record["spec_id"]]
        for key, value in reference.items():
            if key == "cached":
                continue
            assert record[key] == value, key
