"""Error paths and blocking of the cheap models (analytical model + routing tables)."""

from __future__ import annotations

import pytest

from repro.simulator.routing_tables import RoutingTables, build_routing_tables
from repro.toolchain import analytical
from repro.toolchain.analytical import analytical_performance
from repro.topologies.base import Topology
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology
from repro.utils.validation import ValidationError


def _two_cycle_tables(topology: Topology, as_dicts: bool) -> RoutingTables:
    """Mesh tables where tiles 0 and 1 bounce packets for tile 3 between them."""
    tables = build_routing_tables(topology)
    minimal = [
        {dst: hop for dst, hop in enumerate(row) if dst != node} if as_dicts else list(row)
        for node, row in enumerate(tables.minimal)
    ]
    minimal[0][3], minimal[1][3] = 1, 0
    return RoutingTables(
        minimal=minimal,
        escape=tables.escape,
        hop_distance=tables.hop_distance,
        tree_parent=tables.tree_parent,
    )


@pytest.mark.parametrize("as_dicts", [False, True], ids=["lists", "dicts"])
def test_routing_loop_raises_instead_of_hanging(as_dicts):
    topology = MeshTopology(2, 2)
    tables = _two_cycle_tables(topology, as_dicts)
    with pytest.raises(ValidationError, match="routing table loop detected from 0 to 3"):
        tables.path(0, 3)
    with pytest.raises(ValidationError, match="routing table loop detected from 0 to 3"):
        analytical_performance(topology, routing=tables)
    with pytest.raises(ValidationError, match="routing table loop detected from 1 to 3"):
        analytical_performance(topology, routing=tables, pair_weights={(1, 3): 1.0})


def test_hand_built_dict_tables_match_built_tables():
    topology = TorusTopology(4, 4)
    tables = build_routing_tables(topology)
    as_dicts = RoutingTables(
        minimal=[
            {dst: hop for dst, hop in enumerate(row) if dst != node}
            for node, row in enumerate(tables.minimal)
        ],
        escape=tables.escape,
        hop_distance=tables.hop_distance,
        tree_parent=tables.tree_parent,
    )
    assert analytical_performance(topology, routing=as_dicts) == analytical_performance(
        topology, routing=tables
    )


@pytest.mark.parametrize("pair", [(0, 16), (16, 0), (-1, 3), (2, -5)])
def test_pair_outside_grid_raises(pair):
    with pytest.raises(ValidationError, match=r"outside the 16-tile grid"):
        analytical_performance(MeshTopology(4, 4), pair_weights={(1, 2): 1.0, pair: 0.5})


@pytest.mark.parametrize(
    "weights",
    [{(3, 3): 1.0}, {(0, 1): 0.0}, {(0, 0): 2.0, (1, 2): 0.0, (2, 1): -1.0}],
    ids=["diagonal", "zero", "mixed"],
)
def test_pair_weights_without_usable_pairs_raise(weights):
    with pytest.raises(ValidationError, match="no usable pairs"):
        analytical_performance(MeshTopology(4, 4), pair_weights=weights)


def test_unusable_pairs_are_dropped():
    topology = MeshTopology(4, 4)
    kept = analytical_performance(topology, pair_weights={(0, 5): 1.0, (2, 7): 3.0})
    padded = analytical_performance(
        topology, pair_weights={(4, 4): 9.0, (0, 5): 1.0, (1, 6): 0.0, (2, 7): 3.0}
    )
    assert padded == kept


def test_disconnected_topology_has_no_routing_tables():
    topology = Topology(2, 2, links=[(0, 1), (2, 3)], name="two islands")
    with pytest.raises(ValidationError, match="not connected"):
        build_routing_tables(topology)


@pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
def test_block_size_does_not_change_results(monkeypatch, traffic):
    topology = TorusTopology(8, 8)
    routing = build_routing_tables(topology)
    latencies = {link: 1 + topology.link_grid_length(link) for link in topology.links}
    whole = analytical_performance(
        topology, link_latencies=latencies, routing=routing, traffic=traffic
    )
    monkeypatch.setattr(analytical, "_BLOCK_PAIRS", 7)
    blocked = analytical_performance(
        topology, link_latencies=latencies, routing=routing, traffic=traffic
    )
    assert [float.hex(value) for value in vars(blocked).values()] == [
        float.hex(value) for value in vars(whole).values()
    ]


def test_loop_in_a_later_block_names_its_pair(monkeypatch):
    topology = MeshTopology(2, 2)
    tables = _two_cycle_tables(topology, as_dicts=False)
    monkeypatch.setattr(analytical, "_BLOCK_PAIRS", 2)
    weights = {(2, 0): 1.0, (3, 0): 1.0, (2, 1): 1.0, (1, 3): 1.0, (0, 3): 1.0}
    with pytest.raises(ValidationError, match="routing table loop detected from 1 to 3"):
        analytical_performance(topology, routing=tables, pair_weights=weights)
