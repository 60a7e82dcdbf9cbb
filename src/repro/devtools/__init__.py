"""Developer tooling: differential-test scenario generation and replay.

Not part of the prediction toolchain — these helpers exist so that the
engine-differential harness (``tests/unit/test_engine_equivalence.py``), the
``tools/gen_scenarios.py`` script and the ``repro devtools replay-scenario``
CLI all draw their randomized scenarios from one shared, seeded generator.
A failing differential test can then print a one-line command that rebuilds
the exact failing scenario from ``(generator seed, index)`` alone.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.devtools.scenarios": (
        "Scenario",
        "diff_stats",
        "generate_scenarios",
        "get_scenario",
        "run_scenario",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Scenario",
    "diff_stats",
    "generate_scenarios",
    "get_scenario",
    "run_scenario",
]
