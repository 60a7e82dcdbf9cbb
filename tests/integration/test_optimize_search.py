"""Integration tests for the two-stage topology search (:mod:`repro.optimize`).

Covers the acceptance properties of the optimizer: determinism (same seed and
search space produce the identical winner and trajectory), full memoization
(re-running a search against the same cache directory is served entirely from
cache), constraint filtering, screening/simulation bookkeeping, and the
analysis helpers built on the result.
"""

from __future__ import annotations

import pytest

from repro.analysis.search import (
    best_screened_per_family,
    compare_with_baseline,
    trajectory_records,
)
from repro.experiments import ExperimentRunner
from repro.optimize import SearchSpec, run_search
from repro.utils.validation import ValidationError

#: A small, fast search: 4x4 grid, stencil workload (replays in ~50 ms),
#: 18-candidate space, 4 survivors.
WORKLOAD_SPEC = SearchSpec(
    rows=4,
    cols=4,
    space={
        "mesh": {},
        "torus": {},
        "sparse_hamming": {"max_configurations": 16},
    },
    objective={
        "metric": "workload_latency",
        "workload": {"name": "mpi_collective", "params": {"collective": "alltoall"}},
    },
    constraints={"max_area_overhead": 0.60},
    sim={"drain_max_cycles": 2000},
    survivors=4,
    seed=0,
)


def _trajectory_signature(result):
    """Comparable, prediction-free digest of a search trajectory."""
    return (
        [(r.candidate.sort_key, r.feasible, r.reasons, r.score) for r in result.screening],
        [
            (rung.rung, dict(rung.sim_overrides), [(e.candidate.sort_key, e.spec_id, e.score) for e in rung.entries])
            for rung in result.rungs
        ],
        result.winner.sort_key,
        result.winner_score,
    )


class TestDeterminism:
    def test_same_spec_yields_identical_winner_and_trajectory(self):
        first = run_search(WORKLOAD_SPEC)
        second = run_search(WORKLOAD_SPEC)
        assert _trajectory_signature(first) == _trajectory_signature(second)
        assert first.winner == second.winner
        assert first.winner_score == second.winner_score
        assert first.baseline_score == second.baseline_score

    def test_different_seed_can_change_the_sampled_space(self):
        # The sampled sparse-Hamming configurations depend on the seed (the
        # mesh/butterfly endpoints are always included, the rest is drawn).
        # A cap of 6 < 16 total configurations forces actual sampling.
        sampled = WORKLOAD_SPEC.with_overrides(
            space={"mesh": {}, "torus": {}, "sparse_hamming": {"max_configurations": 6}}
        )
        reseeded = sampled.with_overrides(seed=5)
        first = run_search(sampled)
        second = run_search(reseeded)
        first_space = {r.candidate.sort_key for r in first.screening}
        second_space = {r.candidate.sort_key for r in second.screening}
        assert first_space != second_space


class TestMemoization:
    def test_rerun_is_served_entirely_from_cache(self, tmp_path):
        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        first = run_search(WORKLOAD_SPEC, runner=runner)
        assert first.num_cached == 0
        second = run_search(WORKLOAD_SPEC, runner=runner)
        # Every cycle-accurate evaluation — all rungs plus the baseline —
        # must hit the cache on the second run.
        assert second.num_cached == second.simulations + 1
        assert all(
            entry.cached for rung in second.rungs for entry in rung.entries
        )
        assert _trajectory_signature(first) == _trajectory_signature(second)

    def test_cached_predictions_rank_like_live_ones(self, tmp_path):
        # Workload scores read per-phase stats, which survive serialization;
        # the cached re-run must therefore reproduce the exact scores.
        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        live = run_search(WORKLOAD_SPEC, runner=runner)
        cached = run_search(WORKLOAD_SPEC, runner=runner)
        assert [e.score for r in live.rungs for e in r.entries] == [
            e.score for r in cached.rungs for e in r.entries
        ]


class TestSearchStructure:
    def test_bookkeeping_counts_are_consistent(self):
        result = run_search(WORKLOAD_SPEC)
        assert result.candidates_screened == 18
        assert result.candidates_simulated == 4
        # 4 -> 2 -> 1: two rungs, 6 evaluations.
        assert len(result.rungs) == 2
        assert result.simulations == 6
        assert result.screening_ratio == pytest.approx(18 / 4)
        # The final rung runs at the spec's full budget.
        assert result.rungs[-1].sim_overrides == {}
        # Earlier rungs scale the drain budget down, never up.
        for rung in result.rungs[:-1]:
            assert rung.sim_overrides["drain_max_cycles"] <= 2000

    def test_winner_comes_from_final_rung(self):
        result = run_search(WORKLOAD_SPEC)
        final = result.rungs[-1]
        assert result.winner == final.entries[0].candidate
        assert result.winner_score == final.entries[0].score
        assert result.winner_prediction is final.entries[0].prediction

    def test_alltoall_favours_richer_connectivity_than_mesh(self):
        # Alltoall exercises every pair; a 4x4 mesh cannot beat the denser
        # sparse-Hamming configurations under a loose area budget.
        result = run_search(WORKLOAD_SPEC)
        assert result.winner.topology != "mesh"
        assert result.speedup_over_baseline > 1.0

    def test_link_length_budget_filters_candidates(self):
        spec = WORKLOAD_SPEC.with_overrides(constraints={"max_link_length": 1})
        result = run_search(spec)
        # Only the mesh (and the mesh-configuration sparse Hamming graph)
        # have unit-length links on a 4x4 grid.
        for record in result.screening:
            if record.feasible:
                assert record.candidate.topology in ("mesh", "sparse_hamming")
        assert result.winner_prediction.area_overhead < 0.05

    def test_infeasible_everything_raises(self):
        spec = WORKLOAD_SPEC.with_overrides(constraints={"max_area_overhead": 0.001})
        with pytest.raises(ValidationError, match="no candidate satisfies"):
            run_search(spec)

    def test_baseline_none_skips_comparison(self):
        spec = WORKLOAD_SPEC.with_overrides(baseline=None)
        result = run_search(spec)
        assert result.baseline_prediction is None
        assert result.speedup_over_baseline is None

    def test_result_serializes_to_json_form(self):
        import json

        result = run_search(WORKLOAD_SPEC)
        payload = result.to_dict()
        text = json.dumps(payload)  # must not raise
        assert payload["counts"]["screened"] == 18
        assert payload["winner"]["topology"] == result.winner.topology
        assert json.loads(text)["baseline"]["topology"] == "mesh"


class TestAnalysisHelpers:
    def test_trajectory_records_cover_both_stages(self):
        result = run_search(WORKLOAD_SPEC)
        rows = trajectory_records(result)
        stages = {row["stage"] for row in rows}
        assert "screen" in stages and "rung0" in stages and "rung1" in stages
        screen_rows = [row for row in rows if row["stage"] == "screen"]
        assert len(screen_rows) == result.candidates_screened

    def test_best_screened_per_family_is_feasible_minimum(self):
        result = run_search(WORKLOAD_SPEC)
        best = best_screened_per_family(result)
        assert set(best) <= {"mesh", "torus", "sparse_hamming"}
        for family, record in best.items():
            family_scores = [
                r.score
                for r in result.screening
                if r.feasible and r.candidate.topology == family
            ]
            assert record.score == min(family_scores)

    def test_compare_with_baseline_reports_phase_speedups(self):
        result = run_search(WORKLOAD_SPEC)
        comparison = compare_with_baseline(result)
        assert comparison["baseline"] == "2D Mesh"
        assert comparison["objective_speedup"] == result.speedup_over_baseline
        assert set(comparison["phase_speedups"]) == {"alltoall"}

    def test_compare_without_baseline_raises(self):
        result = run_search(WORKLOAD_SPEC.with_overrides(baseline=None))
        with pytest.raises(ValidationError, match="without a baseline"):
            compare_with_baseline(result)
