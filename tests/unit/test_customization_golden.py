"""Golden trajectory of the customization loop (Section V-a).

``tests/fixtures/customization_golden.json`` pins, bit for bit, what
:func:`~repro.optimize.greedy.customize_sparse_hamming` does on the four
KNC scenarios ``a``-``d`` with the analytical model, the paper's 40% area
budget and ``max_iterations=12``: every accepted step's action, ``S_R`` and
``S_C`` and its four metrics (as ``float.hex``), plus the number of
evaluations the search made.  A change to the move order, a tie-break, the
evaluation count or any model output on the way shows up here.
Regenerate it only for an intentional change of the loop or a model::

    PYTHONPATH=src python tests/unit/test_customization_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.arch.knc import KNC_SCENARIOS
from repro.experiments.spec import ExperimentSpec
from repro.optimize.greedy import CustomizationGoal, customize_sparse_hamming

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "customization_golden.json"
SCENARIOS = ("a", "b", "c", "d")
METRICS = (
    "area_overhead",
    "noc_power_w",
    "zero_load_latency_cycles",
    "saturation_throughput",
)


def compute_trajectory(key: str) -> dict:
    """The customization trajectory of KNC scenario ``key``."""
    target = KNC_SCENARIOS[key]
    base = ExperimentSpec(
        topology="sparse_hamming",
        rows=target.rows,
        cols=target.cols,
        scenario=key,
        topology_kwargs={"endpoints_per_tile": target.cores_per_tile},
    )
    result = customize_sparse_hamming(
        base, goal=CustomizationGoal(max_area_overhead=0.40), max_iterations=12
    )
    return {
        "evaluations": result.evaluations,
        "steps": [
            {
                "iteration": step.iteration,
                "action": step.action,
                "s_r": sorted(step.s_r),
                "s_c": sorted(step.s_c),
                **{name: float.hex(getattr(step, name)) for name in METRICS},
            }
            for step in result.steps
        ],
    }


def compute_golden() -> dict:
    """Trajectories of every golden scenario, keyed by scenario."""
    return {key: compute_trajectory(key) for key in SCENARIOS}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_scenario(expected):
    assert sorted(expected) == list(SCENARIOS)


@pytest.mark.parametrize("key", SCENARIOS)
def test_customization_matches_golden(expected, key):
    assert compute_trajectory(key) == expected[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_customization_golden.py --write")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
