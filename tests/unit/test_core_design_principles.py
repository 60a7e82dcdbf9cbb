"""Unit tests for design-principle scoring and the configuration space."""

import pytest

from repro.core.config_space import (
    candidate_col_skips,
    candidate_row_skips,
    configuration_count,
    enumerate_configurations,
    random_configuration,
)
from repro.core.design_principles import (
    Compliance,
    _channel_loads,
    score_design_principles,
)
from repro.core.sparse_hamming import SparseHammingGraph
from repro.topologies import (
    FlattenedButterflyTopology,
    FoldedTorusTopology,
    MeshTopology,
    RingTopology,
    TorusTopology,
)
from repro.topologies.registry import applicable_topologies, make_topology
from repro.utils.validation import ValidationError


def channel_loads_by_walking(topology):
    """Reference: walk each link's row-first route one channel at a time."""
    rows, cols = topology.rows, topology.cols
    horizontal = [[0] * (cols - 1) for _ in range(rows)]
    vertical = [[0] * cols for _ in range(rows - 1)]
    for link in topology.links:
        a, b = topology.coord(link.src), topology.coord(link.dst)
        for c in range(min(a.col, b.col), max(a.col, b.col)):
            horizontal[a.row][c] += 1
        for r in range(min(a.row, b.row), max(a.row, b.row)):
            vertical[r][b.col] += 1
    return [n for row in horizontal for n in row], [n for row in vertical for n in row]


class TestCompliance:
    def test_symbols(self):
        assert Compliance.YES.symbol == "✔"
        assert Compliance.PARTIAL.symbol == "∼"
        assert Compliance.NO.symbol == "✘"


class TestScoreDesignPrinciples:
    def test_mesh_satisfies_cost_principles(self):
        scores = score_design_principles(MeshTopology(8, 8))
        assert scores.low_radix is Compliance.YES
        assert scores.short_links is Compliance.YES
        assert scores.aligned_links is Compliance.YES
        assert scores.uniform_link_density is Compliance.YES
        assert scores.optimized_port_placement is Compliance.YES
        # ... but not the performance principle of a low diameter.
        assert scores.low_diameter is Compliance.NO
        assert scores.minimal_paths_present is Compliance.YES
        assert scores.minimal_paths_used is Compliance.YES

    def test_torus_short_links_violated(self):
        scores = score_design_principles(TorusTopology(8, 8))
        assert scores.short_links is Compliance.NO
        assert scores.minimal_paths_present is Compliance.YES
        assert scores.minimal_paths_used is Compliance.NO

    def test_folded_torus_short_links_partial(self):
        scores = score_design_principles(FoldedTorusTopology(8, 8))
        assert scores.short_links is Compliance.PARTIAL
        assert scores.minimal_paths_present is Compliance.NO

    def test_flattened_butterfly_low_diameter_high_radix(self):
        scores = score_design_principles(FlattenedButterflyTopology(8, 8))
        assert scores.low_diameter is Compliance.YES
        assert scores.low_radix is not Compliance.YES
        assert scores.aligned_links is Compliance.YES

    def test_ring_low_radix_but_high_diameter(self):
        scores = score_design_principles(RingTopology(8, 8))
        assert scores.low_radix is Compliance.YES
        assert scores.low_diameter is Compliance.NO

    def test_as_row_contains_all_table1_columns(self):
        row = score_design_principles(MeshTopology(4, 4)).as_row()
        for column in ("Topology", "Router Radix", "SL", "AL", "ULD", "OPP",
                       "Network Diameter", "Minimal Paths Present", "Minimal Paths Used"):
            assert column in row

    def test_sparse_hamming_spans_compliance_range(self):
        sparse = score_design_principles(SparseHammingGraph(8, 8, s_r={2}, s_c={2}))
        dense = score_design_principles(
            SparseHammingGraph(8, 8, s_r=range(2, 8), s_c=range(2, 8))
        )
        assert sparse.low_radix in (Compliance.YES, Compliance.PARTIAL)
        assert dense.low_radix is not Compliance.YES
        assert dense.low_diameter is Compliance.YES


@pytest.mark.parametrize("rows,cols", [(1, 8), (4, 4), (3, 6), (8, 16), (16, 16)])
def test_channel_loads_match_walking_every_route(rows, cols):
    topologies = [make_topology(key, rows, cols) for key in applicable_topologies(rows, cols)]
    topologies.append(SparseHammingGraph(rows, cols, s_r=range(2, cols), s_c=range(2, rows)))
    for topology in topologies:
        assert _channel_loads(topology) == channel_loads_by_walking(topology), topology.name


class TestConfigurationSpace:
    def test_count_matches_table1_formula(self):
        assert configuration_count(8, 8) == 2 ** (8 + 8 - 4)
        assert configuration_count(8, 16) == 2 ** (8 + 16 - 4)
        assert configuration_count(4, 4) == 2**4

    def test_degenerate_grids(self):
        assert configuration_count(1, 8) == 2**6
        assert configuration_count(2, 2) == 1

    def test_rejects_invalid_grid(self):
        with pytest.raises(ValidationError):
            configuration_count(0, 4)

    def test_candidate_skips(self):
        assert candidate_row_skips(8) == [2, 3, 4, 5, 6, 7]
        assert candidate_col_skips(4) == [2, 3]
        assert candidate_row_skips(2) == []

    def test_enumeration_is_exhaustive_and_unique(self):
        configs = list(enumerate_configurations(4, 4))
        assert len(configs) == configuration_count(4, 4)
        assert len(set(configs)) == len(configs)
        assert (frozenset(), frozenset()) in configs
        assert (frozenset({2, 3}), frozenset({2, 3})) in configs

    def test_every_enumerated_configuration_is_constructible(self):
        for s_r, s_c in enumerate_configurations(3, 4):
            shg = SparseHammingGraph(3, 4, s_r=s_r, s_c=s_c)
            assert shg.is_connected()

    def test_random_configuration_reproducible(self):
        a = random_configuration(8, 8, seed=5)
        b = random_configuration(8, 8, seed=5)
        assert a == b

    def test_random_configuration_density_extremes(self):
        empty = random_configuration(8, 8, seed=1, density=0.0)
        full = random_configuration(8, 8, seed=1, density=1.0)
        assert empty == (frozenset(), frozenset())
        assert full == (frozenset(range(2, 8)), frozenset(range(2, 8)))

    def test_random_configuration_rejects_bad_density(self):
        with pytest.raises(ValidationError):
            random_configuration(8, 8, density=1.5)
