"""Regression tests of the runner's memoization in the result store."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentRunner, ExperimentSpec


def spec_for(topology: str = "mesh", **overrides) -> ExperimentSpec:
    kwargs = dict(topology=topology, rows=4, cols=4, traffic="uniform",
                  performance_mode="analytical")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_finished_units_persist_when_a_later_unit_crashes(tmp_path, monkeypatch):
    from repro.toolchain.predict import PredictionToolchain

    first, second = spec_for("mesh"), spec_for("torus")
    store = tmp_path / "results.sqlite"
    original = PredictionToolchain.assemble
    calls = []

    def crash_on_second_unit(self, topology, physical, outcome):
        calls.append(topology.name)
        if len(calls) == 2:
            raise RuntimeError("second unit crashed")
        return original(self, topology, physical, outcome)

    monkeypatch.setattr(PredictionToolchain, "assemble", crash_on_second_unit)
    with pytest.raises(RuntimeError, match="second unit crashed"):
        ExperimentRunner(store=store).run([first, second])
    monkeypatch.undo()

    again = ExperimentRunner(store=store).run([first, second])
    assert [result.cached for result in again] == [True, False]
