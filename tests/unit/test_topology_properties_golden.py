"""Golden differential test of the graph-level analysis (Table I) and routing tables.

``tests/fixtures/topology_properties_golden.json`` pins, bit for bit, what
:func:`~repro.topologies.properties.analyze_topology`,
:func:`~repro.core.design_principles.score_design_principles` and
:func:`~repro.simulator.routing_tables.build_routing_tables` produce for every
registered topology family applicable to 4x4, 8x8, 8x16 and 16x16 grids, plus
the dense 8x16 sparse Hamming graph configurations of the scenario ``c``
design-space campaign.  Per case it stores:

* every :class:`~repro.topologies.properties.TopologyProperties` field, floats
  as ``float.hex``;
* every design-principle compliance rating;
* sha256 digests of the minimal, escape and hop-distance routing tables and
  of the escape tree's parents.

Any change to a hop count, an average's summation, a minimal-path verdict, a
rating threshold or a routing tie-break shows up here.  Regenerate it only for
an intentional change of analysis output::

    PYTHONPATH=src python tests/unit/test_topology_properties_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import design_space_campaign
from repro.core.design_principles import Compliance, score_design_principles
from repro.simulator.routing_tables import build_routing_tables
from repro.topologies.registry import applicable_topologies, available_topologies, make_topology

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "topology_properties_golden.json"
GRIDS = ((4, 4), (8, 8), (8, 16), (16, 16))
FAMILIES = tuple(available_topologies())


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _case(topology) -> dict:
    scores = score_design_principles(topology)
    properties = {}
    for item in fields(scores.properties):
        value = getattr(scores.properties, item.name)
        properties[item.name] = float.hex(value) if isinstance(value, float) else value
    ratings = {
        item.name: getattr(scores, item.name).value
        for item in fields(scores)
        if isinstance(getattr(scores, item.name), Compliance)
    }
    tables = build_routing_tables(topology)
    return {
        "properties": properties,
        "ratings": ratings,
        "routing": {
            "minimal": _digest(tables.minimal),
            "escape": _digest(tables.escape),
            "hop_distance": _digest(tables.hop_distance),
            "tree_parent": _digest(tables.tree_parent),
        },
    }


def golden_cases():
    """``(key, topology)`` of every golden case."""
    for rows, cols in GRIDS:
        for name in applicable_topologies(rows, cols, FAMILIES):
            yield f"{rows}x{cols}/{name}", make_topology(name, rows, cols)
    for spec in design_space_campaign(8, 16, scenario="c", max_configurations=5).specs:
        s_r = ",".join(map(str, spec.topology_kwargs["s_r"]))
        s_c = ",".join(map(str, spec.topology_kwargs["s_c"]))
        yield f"8x16/sparse_hamming/c/s_r={s_r}/s_c={s_c}", spec.build_topology()


def compute_golden() -> dict:
    """Analysis outputs of every golden case, keyed by case name."""
    return {key: _case(topology) for key, topology in golden_cases()}


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_family_and_dense_configuration(expected):
    assert sorted(expected) == sorted(key for key, _ in golden_cases())
    assert len(expected) == 38
    assert sum("/c/" in key for key in expected) == 5
    # Every combination of the two Table I columns occurs, so neither is
    # pinned only as True.
    verdicts = {
        (case["properties"]["minimal_paths_present"], case["properties"]["minimal_paths_used"])
        for case in expected.values()
    }
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("part", ["properties", "ratings", "routing"])
def test_topology_analysis_matches_golden(computed, expected, part):
    assert {key: case[part] for key, case in computed.items()} == {
        key: case[part] for key, case in expected.items()
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_topology_properties_golden.py --write")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
