"""Golden differential test of the cheap models (analytical model + routing tables).

``tests/fixtures/cheap_models_golden.json`` pins, bit for bit, what the
analytical performance model and the routing-table builder return for every
registered topology family applicable to 4x4, 5x7 and 8x8 grids, under every registered
synthetic traffic pattern plus the traffic matrix of one ``dnn_inference``
trace.  Floats are stored as ``float.hex`` so the comparison is exact; a case
that raises stores the exception type instead.  Routing tables are pinned as
sha256 digests of their off-diagonal next-hop entries, hop counts and
spanning-tree parents.

The fixture is the oracle for the array implementation of both models: any
change to a summation order, a tie-break or a traversal order shows up here.
Regenerate it only for an intentional change of model output::

    PYTHONPATH=src python tests/unit/test_cheap_models_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.simulator.traffic import TRAFFIC_FACTORIES
from repro.toolchain.analytical import analytical_performance, pair_weights_from_trace
from repro.topologies.base import Topology
from repro.topologies.registry import applicable_topologies, available_topologies, make_topology
from repro.workloads.generators import generate_dnn_inference

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "cheap_models_golden.json"
GRIDS = ((4, 4), (5, 7), (8, 8))
FAMILIES = tuple(available_topologies())
TRACE_CASE = "trace:dnn_inference"
FIELDS = (
    "zero_load_latency_cycles",
    "saturation_throughput",
    "average_hops",
    "max_channel_load",
)


def _link_latencies(topology: Topology) -> dict:
    """Deterministic fractional link latencies; every fifth link is left out.

    Fractions exercise the model's ``int`` truncation, short links its
    one-cycle floor, and the missing links its one-cycle default.
    """
    return {
        link: 0.6 * topology.link_grid_length(link)
        for index, link in enumerate(sorted(topology.links))
        if index % 5
    }


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _table_digests(tables: RoutingTables, num: int) -> dict[str, str]:
    def off_diagonal(table) -> list[list[int]]:
        return [
            [int(table[node][dst]) for dst in range(num) if dst != node]
            for node in range(num)
        ]

    return {
        "minimal": _digest(off_diagonal(tables.minimal)),
        "escape": _digest(off_diagonal(tables.escape)),
        "hops": _digest(
            [[int(tables.hop_distance[node][dst]) for dst in range(num)] for node in range(num)]
        ),
        "tree": _digest([int(parent) for parent in tables.tree_parent]),
    }


def _case(topology, latencies, routing, **kwargs) -> dict[str, str]:
    try:
        perf = analytical_performance(
            topology, link_latencies=latencies, routing=routing, **kwargs
        )
    except Exception as error:  # the fixture pins which cases raise, and how
        return {"error": type(error).__name__}
    return {field: float.hex(getattr(perf, field)) for field in FIELDS}


def compute_golden() -> dict:
    """Model outputs of every golden case, keyed ``RxC/topology``."""
    golden: dict = {}
    for rows, cols in GRIDS:
        weights = pair_weights_from_trace(generate_dnn_inference(rows, cols, seed=0))
        for name in applicable_topologies(rows, cols, FAMILIES):
            topology = make_topology(name, rows, cols)
            routing = build_routing_tables(topology)
            latencies = _link_latencies(topology)
            cases = {
                traffic: _case(topology, latencies, routing, traffic=traffic)
                for traffic in sorted(TRAFFIC_FACTORIES)
            }
            cases[TRACE_CASE] = _case(topology, latencies, routing, pair_weights=weights)
            golden[f"{rows}x{cols}/{name}"] = {
                "tables": _table_digests(routing, topology.num_tiles),
                "analytical": cases,
            }
    return golden


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_golden_covers_every_family_and_pattern(expected):
    assert sorted(expected) == sorted(
        f"{rows}x{cols}/{name}"
        for rows, cols in GRIDS
        for name in applicable_topologies(rows, cols, FAMILIES)
    )
    for entry in expected.values():
        assert sorted(entry["analytical"]) == sorted([*TRAFFIC_FACTORIES, TRACE_CASE])


def test_routing_tables_match_golden(computed, expected):
    assert {key: entry["tables"] for key, entry in computed.items()} == {
        key: entry["tables"] for key, entry in expected.items()
    }


def test_analytical_model_matches_golden(computed, expected):
    assert {key: entry["analytical"] for key, entry in computed.items()} == {
        key: entry["analytical"] for key, entry in expected.items()
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cheap_models_golden.py --write")
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
