"""Regression tests of the runner's memoization backends.

Satellite coverage for two historical failure modes:

* a worker killed mid-write leaving a *truncated* cache entry that poisoned
  every later run of the same spec — writes are now atomic
  (temp file + ``os.replace``);
* a stale or renamed entry whose payload did not match the requested
  ``spec_id`` crashing the load — malformed or mismatched entries are now
  treated as cache misses (warned once per cache) and recomputed.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.experiments import DirectoryCache, ExperimentRunner, ExperimentSpec
from repro.experiments.serialization import prediction_to_dict


def spec_for(topology: str = "mesh", **overrides) -> ExperimentSpec:
    kwargs = dict(topology=topology, rows=4, cols=4, traffic="uniform",
                  performance_mode="analytical")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_atomic_save_leaves_no_temp_files(tmp_path):
    cache = DirectoryCache(tmp_path)
    spec = spec_for()
    cache.save(spec, spec.run())
    entries = sorted(path.name for path in tmp_path.iterdir())
    assert entries == [f"{spec.spec_id}.json"]
    assert not any(name.endswith(".tmp") for name in entries)


def test_save_replaces_atomically_over_existing_entry(tmp_path):
    cache = DirectoryCache(tmp_path)
    spec = spec_for()
    prediction = spec.run()
    cache.save(spec, prediction)
    before = cache.path_for(spec).read_text()
    cache.save(spec, prediction)
    assert cache.path_for(spec).read_text() == before
    assert sorted(tmp_path.iterdir()) == [cache.path_for(spec)]


def test_truncated_entry_is_miss_and_recomputed(tmp_path):
    """A partial write (simulated kill mid-write) must not poison the cache."""
    runner = ExperimentRunner(cache_dir=tmp_path)
    spec = spec_for()
    reference = runner.run(spec)[0]
    assert reference.cached is False

    # Simulate the pre-atomic-write failure mode: a torn, half-written file.
    path = runner.cache.path_for(spec)
    full = path.read_text()
    path.write_text(full[: len(full) // 2])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.run(spec)[0]
    assert result.cached is False
    assert prediction_to_dict(result.prediction) == prediction_to_dict(
        reference.prediction
    )
    assert runner.cache.invalid_entries == 1
    assert any("invalid cache entry" in str(w.message) for w in caught)

    # The recompute healed the entry on disk: next run is a clean hit.
    assert runner.run(spec)[0].cached is True


def test_spec_id_mismatch_is_miss(tmp_path):
    """An entry whose stored spec hashes differently is rejected, not served."""
    runner = ExperimentRunner(cache_dir=tmp_path)
    mesh, torus = spec_for(), spec_for("torus")
    runner.run(torus)
    # A renamed/stale file: torus payload sitting at the mesh spec's path.
    os.replace(runner.cache.path_for(torus), runner.cache.path_for(mesh))

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        result = runner.run(mesh)[0]
    assert result.cached is False
    assert result.spec.topology == "mesh"
    assert runner.cache.invalid_entries == 1


def test_missing_result_key_is_miss(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    spec = spec_for()
    runner.run(spec)
    path = runner.cache.path_for(spec)
    payload = json.loads(path.read_text())
    del payload["result"]
    path.write_text(json.dumps(payload))

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert runner.run(spec)[0].cached is False


def test_invalid_entries_warn_once_per_cache(tmp_path):
    runner = ExperimentRunner(cache_dir=tmp_path)
    mesh, torus = spec_for(), spec_for("torus")
    runner.run(mesh)
    runner.run(torus)
    for spec in (mesh, torus):
        runner.cache.path_for(spec).write_text("{broken")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner.run(mesh)
        runner.run(torus)
    cache_warnings = [w for w in caught if "invalid cache entry" in str(w.message)]
    assert len(cache_warnings) == 1
    assert runner.cache.invalid_entries == 2


def test_finished_units_persist_when_a_later_unit_crashes(tmp_path, monkeypatch):
    from repro.toolchain.predict import PredictionToolchain

    first, second = spec_for("mesh"), spec_for("torus")
    original = PredictionToolchain.predict
    calls = []

    def crash_on_second_unit(self, topology, traffic=None):
        calls.append(topology.name)
        if len(calls) == 2:
            raise RuntimeError("second unit crashed")
        return original(self, topology, traffic=traffic)

    monkeypatch.setattr(PredictionToolchain, "predict", crash_on_second_unit)
    with pytest.raises(RuntimeError, match="second unit crashed"):
        ExperimentRunner(cache_dir=tmp_path).run([first, second])
    monkeypatch.undo()

    again = ExperimentRunner(cache_dir=tmp_path).run([first, second])
    assert [result.cached for result in again] == [True, False]
