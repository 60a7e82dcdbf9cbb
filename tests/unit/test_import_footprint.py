"""Cold start: each entry point imports only the modules it runs.

The footprint tests run in fresh interpreters (subprocesses), because the
test session itself has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Every package whose ``__init__`` re-exports names lazily.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.arch",
    "repro.core",
    "repro.devtools",
    "repro.experiments",
    "repro.optimize",
    "repro.physical",
    "repro.service",
    "repro.simulator",
    "repro.simulator.engine",
    "repro.toolchain",
    "repro.topologies",
    "repro.utils",
    "repro.verify",
    "repro.viz",
    "repro.workloads",
)


def loaded_modules(probe: str) -> set[str]:
    """``sys.modules`` after running ``probe`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"{probe}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro", "repro.experiments.cli"])
def test_import_leaves_networkx_unloaded(module):
    assert "networkx" not in loaded_modules(f"import {module}")


def test_import_repro_loads_no_submodule():
    loaded = loaded_modules("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


@pytest.mark.parametrize("argv", [["--version"], ["list-engines"]])
def test_light_cli_commands_load_no_numpy(argv):
    probe = (
        "from repro.experiments.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "numpy" not in loaded_modules(probe)


def test_simulation_spec_loads_only_what_it_runs():
    probe = (
        "from repro import ExperimentRunner, ExperimentSpec\n"
        "spec = ExperimentSpec('mesh', 4, 4, performance_mode='simulation',\n"
        "    sim={'warmup_cycles': 50, 'measurement_cycles': 100})\n"
        "ExperimentRunner().run(spec)"
    )
    loaded = loaded_modules(probe)
    assert "repro.simulator.engine.soa" in loaded
    for module in (
        "repro.optimize.search",
        "repro.verify.static",
        "repro.service.api",
        "repro.simulator.engine.vec",
    ):
        assert module not in loaded


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_resolves_to_its_defining_module(package_name):
    package = importlib.import_module(package_name)
    homes = {name: module for module, names in package._EXPORTS.items() for name in names}
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listed
        if name in homes:
            assert value is getattr(importlib.import_module(homes[name]), name)
        else:  # defined (or, for the toolchain, imported) by the package itself
            assert name in vars(package)
    assert set(homes) <= set(package.__all__)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_engine_registry_resolves_each_engine_by_name():
    from repro.simulator.engine import ENGINE_FACTORIES, available_engines

    assert available_engines() == ["reference", "sanitizer", "soa", "vec"]
    assert {name: engine.name for name, engine in ENGINE_FACTORIES.items()} == {
        name: name for name in available_engines()
    }
    with pytest.raises(KeyError):
        ENGINE_FACTORIES["no_such_engine"]


def test_perfbench_hooks_and_stages_find_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    benchtrace = importlib.import_module("benchtrace")
    targets = [hook[:2] for hook in benchtrace.HOOKS] + list(benchtrace.STAGES)
    for module_name, attribute in targets:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            assert method in vars(getattr(module, class_name)), (module_name, attribute)
        else:
            # The hook replaces the module's own reference, so it must be there.
            assert callable(vars(module).get(attribute)), (module_name, attribute)

    # The batched kernel is looked up at call time, so its hook still fires.
    from repro.simulator.simulation import SimulationConfig
    from repro.simulator.sweep import run_batch
    from repro.topologies.mesh import MeshTopology

    recorder = benchtrace.Recorder()
    uninstall = benchtrace.install(recorder)
    try:
        config = SimulationConfig(
            injection_rate=0.05, warmup_cycles=20, measurement_cycles=40, engine="vec"
        )
        run_batch(MeshTopology(2, 2), [config, config])
    finally:
        uninstall()
    assert [span.name for span in recorder.spans].count("engine.batched") == 1
    assert recorder.counters["engine.lanes"] == 2
