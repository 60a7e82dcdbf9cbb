"""Unit tests for :mod:`repro.optimize`: spaces, specs, objectives, constraints,
and the toolchain screening layer they drive."""

from __future__ import annotations

import pytest

from repro.arch.knc import KNC_SCENARIOS
from repro.optimize import Candidate, Constraints, Objective, SearchSpace, SearchSpec
from repro.physical.model import NoCPhysicalModel
from repro.simulator.routing_tables import build_routing_tables
from repro.toolchain import pair_weights_from_trace, screen_topologies
from repro.toolchain.screening import screen_topology
from repro.toolchain.results import PredictionResult
from repro.simulator.statistics import PhaseStats
from repro.topologies.mesh import MeshTopology
from repro.utils.validation import ValidationError
from repro.workloads import make_workload_trace


# --------------------------------------------------------------- search space
class TestSearchSpace:
    def test_enumerates_default_and_sampled_families(self):
        space = SearchSpace(
            rows=4,
            cols=4,
            families={
                "mesh": {},
                "torus": {},
                "sparse_hamming": {"max_configurations": 8},
            },
        )
        candidates = space.enumerate_candidates()
        assert len(candidates) == 10
        assert space.size() == 10
        families = {candidate.topology for candidate in candidates}
        assert families == {"mesh", "torus", "sparse_hamming"}

    def test_small_sparse_hamming_space_is_exhaustive(self):
        # 3x3: 2^(1+1) = 4 configurations; a larger cap enumerates them all.
        space = SearchSpace(
            rows=3, cols=3, families={"sparse_hamming": {"max_configurations": 16}}
        )
        assert space.size() == 4

    def test_enumeration_is_deterministic_per_seed(self):
        def expand(seed):
            return SearchSpace(
                rows=8,
                cols=8,
                families={"sparse_hamming": {"max_configurations": 12}},
                seed=seed,
            ).enumerate_candidates()

        assert expand(3) == expand(3)
        assert expand(3) != expand(4)

    def test_grid_block_expands_cartesian_product(self):
        space = SearchSpace(
            rows=4,
            cols=4,
            families={"ruche": {"grid": {"row_skip": [2, 3], "col_skip": [0, 2]}}},
        )
        candidates = space.enumerate_candidates()
        assert len(candidates) == 4
        assert all(candidate.topology == "ruche" for candidate in candidates)
        kwargs = [dict(candidate.topology_kwargs) for candidate in candidates]
        assert {"row_skip": 3, "col_skip": 2} in kwargs

    def test_inapplicable_families_are_skipped(self):
        # Hypercube needs power-of-two dimensions; 3x3 drops it silently.
        space = SearchSpace(rows=3, cols=3, families={"mesh": {}, "hypercube": {}})
        assert [c.topology for c in space.enumerate_candidates()] == ["mesh"]

    def test_duplicate_candidates_collapse(self):
        space = SearchSpace(
            rows=4,
            cols=4,
            families={"ruche": {"grid": {"row_skip": [2, 2]}}},
        )
        assert space.size() == 1

    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown topology"):
            SearchSpace(rows=4, cols=4, families={"nope": {}})

    def test_rejects_unknown_block_keys(self):
        with pytest.raises(ValidationError, match="unknown block keys"):
            SearchSpace(rows=4, cols=4, families={"mesh": {"radix": 4}})

    def test_rejects_max_configurations_off_sparse_hamming(self):
        with pytest.raises(ValidationError, match="sparse_hamming"):
            SearchSpace(rows=4, cols=4, families={"mesh": {"max_configurations": 4}})

    def test_rejects_grid_and_sample_together(self):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            SearchSpace(
                rows=4,
                cols=4,
                families={
                    "sparse_hamming": {"max_configurations": 4, "grid": {"s_r": [[2]]}}
                },
            )

    def test_rejects_empty_family_set(self):
        with pytest.raises(ValidationError, match="at least one topology family"):
            SearchSpace(rows=4, cols=4, families={})


class TestCandidate:
    def test_builds_the_described_topology(self):
        candidate = Candidate(
            topology="sparse_hamming", topology_kwargs={"s_r": [2], "s_c": []}
        )
        topology = candidate.build(4, 4)
        assert topology.num_tiles == 16
        assert "Hamming" in topology.name

    def test_sort_key_is_canonical(self):
        a = Candidate(topology="sparse_hamming", topology_kwargs={"s_r": [2], "s_c": []})
        b = Candidate(topology="sparse_hamming", topology_kwargs={"s_c": [], "s_r": [2]})
        assert a.sort_key == b.sort_key

    def test_candidates_are_hashable(self):
        a = Candidate(topology="sparse_hamming", topology_kwargs={"s_r": [2], "s_c": []})
        b = Candidate(topology="sparse_hamming", topology_kwargs={"s_c": [], "s_r": [2]})
        assert len({a, b}) == 1
        assert hash(a) == hash(b)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValidationError):
            Candidate(topology="nope")

    def test_build_rejects_bad_generator_kwargs_cleanly(self):
        candidate = Candidate(topology="torus", topology_kwargs={"bogus": 1})
        with pytest.raises(ValidationError, match="invalid topology kwargs"):
            candidate.build(4, 4)


# ----------------------------------------------------------------- objectives
def _prediction(latency=10.0, throughput=0.5, phases=None):
    return PredictionResult(
        topology_name="t",
        area_overhead=0.1,
        total_area_mm2=100.0,
        noc_power_w=5.0,
        zero_load_latency_cycles=latency,
        saturation_throughput=throughput,
        performance_mode="simulation",
        physical=None,
        details={"phases": phases} if phases else {},
    )


def _phase(name, created=10, delivered=10, latency=20.0):
    return PhaseStats(
        name=name,
        start_cycle=0,
        end_cycle=64,
        packets_created=created,
        packets_delivered=delivered,
        flits_delivered=delivered * 4,
        offered_load=0.1,
        throughput=0.1,
        average_packet_latency=latency,
        p99_packet_latency=latency,
        average_hops=2.0,
    )


class TestObjective:
    def test_latency_objective_scores_latency(self):
        objective = Objective(metric="zero_load_latency")
        assert objective.lower_is_better
        assert objective.prediction_score(_prediction(latency=12.0)) == 12.0

    def test_throughput_objective_negates(self):
        objective = Objective(metric="saturation_throughput")
        assert not objective.lower_is_better
        better = objective.prediction_score(_prediction(throughput=0.6))
        worse = objective.prediction_score(_prediction(throughput=0.3))
        assert better < worse

    def test_workload_objective_requires_workload(self):
        with pytest.raises(ValidationError, match="needs a workload"):
            Objective(metric="workload_latency")

    def test_synthetic_objective_rejects_workload_and_phase(self):
        with pytest.raises(ValidationError, match="does not take a workload"):
            Objective(metric="zero_load_latency", workload={"name": "onoff"})
        with pytest.raises(ValidationError, match="does not take a phase"):
            Objective(metric="zero_load_latency", phase="layer0")

    def test_undelivered_packets_dominate_workload_score(self):
        objective = Objective(
            metric="workload_latency", workload={"name": "dnn_inference"}
        )
        clean = _prediction(latency=50.0, phases={"p": _phase("p")})
        lossy = _prediction(
            latency=5.0, phases={"p": _phase("p", created=10, delivered=9)}
        )
        assert objective.prediction_score(clean) < objective.prediction_score(lossy)

    def test_unphased_replays_still_pay_the_undelivered_penalty(self):
        # An onoff trace with phases=0 replays without per-phase stats; the
        # penalty must then come from the overall replay counters (live or
        # the serialized replay_counts of a cached prediction).
        objective = Objective(metric="workload_latency", workload={"name": "onoff"})
        clean = _prediction(latency=50.0)
        clean.details["replay_counts"] = {"packets_created": 40, "packets_delivered": 40}
        lossy = _prediction(latency=5.0)
        lossy.details["replay_counts"] = {"packets_created": 40, "packets_delivered": 30}
        assert objective.prediction_score(clean) < objective.prediction_score(lossy)

    def test_phase_objective_scores_that_phase_only(self):
        objective = Objective(
            metric="workload_latency",
            workload={"name": "dnn_inference"},
            phase="hot",
        )
        prediction = _prediction(
            latency=99.0,
            phases={"cold": _phase("cold", latency=5.0), "hot": _phase("hot", latency=42.0)},
        )
        assert objective.prediction_score(prediction) == 42.0

    def test_phase_objective_rejects_unknown_phase(self):
        objective = Objective(
            metric="workload_latency",
            workload={"name": "dnn_inference"},
            phase="missing",
        )
        with pytest.raises(ValidationError, match="no phase 'missing'"):
            objective.prediction_score(_prediction(phases={"p": _phase("p")}))

    def test_round_trips_through_dict(self):
        objective = Objective(
            metric="workload_latency",
            workload={"name": "stencil2d", "seed": 3},
            phase="iter0",
        )
        assert Objective.from_dict(objective.to_dict()) == objective

    def test_rejects_unknown_metric_and_keys(self):
        with pytest.raises(ValidationError, match="unknown objective metric"):
            Objective(metric="latency")
        with pytest.raises(ValidationError, match="unknown objective keys"):
            Objective.from_dict({"metric": "zero_load_latency", "extra": 1})


class TestConstraints:
    def test_violations_cover_all_three_budgets(self):
        constraints = Constraints(
            max_area_overhead=0.10, max_power_w=1.0, max_link_length=2
        )
        estimates = screen_topologies(
            [MeshTopology(4, 4)], KNC_SCENARIOS["a"].parameters().scaled(num_tiles=16)
        )
        # A mesh is cheap: only the (absurdly tight) power budget can trip.
        reasons = constraints.violations(estimates[0])
        assert any("power" in reason for reason in reasons)
        assert not any("link length" in reason for reason in reasons)

    def test_link_length_violation_is_standalone(self):
        constraints = Constraints(max_link_length=1)
        assert constraints.link_length_violation(1) is None
        assert "budget 1" in constraints.link_length_violation(3)

    def test_round_trips_through_dict(self):
        constraints = Constraints(max_area_overhead=0.4, max_link_length=4)
        assert Constraints.from_dict(constraints.to_dict()) == constraints
        assert Constraints.from_dict({}) == Constraints()

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValidationError):
            Constraints(max_area_overhead=0.0)
        with pytest.raises(ValidationError):
            Constraints(max_power_w=-1.0)
        with pytest.raises(ValidationError):
            Constraints(max_link_length=0)
        with pytest.raises(ValidationError, match="unknown constraint keys"):
            Constraints.from_dict({"max_area": 0.4})


# ------------------------------------------------------------------ screening
class TestScreening:
    def test_trace_weights_sum_to_one(self):
        trace = make_workload_trace("stencil2d", 4, 4, iterations=2)
        weights = pair_weights_from_trace(trace)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(src != dst for src, dst in weights)

    def test_trace_weighted_estimate_differs_from_uniform(self):
        # Stencil traffic is pure nearest-neighbour: its trace-weighted
        # latency must undercut the all-pairs uniform estimate on a mesh.
        trace = make_workload_trace("stencil2d", 4, 4, iterations=2)
        [estimate] = screen_topologies(
            [MeshTopology(4, 4)], KNC_SCENARIOS["a"].parameters().scaled(num_tiles=16), trace=trace
        )
        assert estimate.trace_latency_cycles is not None
        assert estimate.trace_latency_cycles < estimate.zero_load_latency_cycles

    def test_no_trace_means_no_trace_metrics(self):
        [estimate] = screen_topologies(
            [MeshTopology(4, 4)], KNC_SCENARIOS["a"].parameters().scaled(num_tiles=16)
        )
        assert estimate.trace_latency_cycles is None
        assert estimate.trace_saturation_throughput is None
        assert estimate.max_link_length == 1

    def test_screening_builds_routing_tables_once_per_candidate(self, monkeypatch):
        import repro.optimize.search as search
        import repro.simulator.network as network
        import repro.toolchain.screening as screening

        built = []

        def counting_build(topology):
            built.append(topology.name)
            return build_routing_tables(topology)

        for module in (search, screening, network):
            monkeypatch.setattr(module, "build_routing_tables", counting_build)
        spec = SearchSpec(
            rows=4,
            cols=4,
            space={"mesh": {}, "torus": {}, "sparse_hamming": {"max_configurations": 2}},
            objective={"metric": "zero_load_latency"},
        )
        candidates = spec.build_space().enumerate_candidates()
        records = search._screen(
            spec, candidates, spec.build_objective(), spec.build_constraints()
        )
        assert all(record.verified for record in records)
        assert len(built) == len(candidates) == len(records)

    def test_screen_topology_reuses_given_routing_tables(self):
        topology = MeshTopology(4, 4)
        model = NoCPhysicalModel(KNC_SCENARIOS["a"].parameters().scaled(num_tiles=16))
        assert screen_topology(
            topology, model, routing=build_routing_tables(topology)
        ) == screen_topology(topology, model)


# ---------------------------------------------------------------- search spec
class TestSearchSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            rows=4,
            cols=4,
            space={"mesh": {}, "sparse_hamming": {"max_configurations": 4}},
            objective={"metric": "zero_load_latency"},
            survivors=2,
        )
        kwargs.update(overrides)
        return SearchSpec(**kwargs)

    def test_json_round_trip_preserves_identity(self):
        spec = self._spec(
            objective={
                "metric": "workload_latency",
                "workload": {"name": "stencil2d", "seed": 1},
            },
            constraints={"max_area_overhead": 0.4},
        )
        rebuilt = SearchSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.search_id == spec.search_id

    def test_label_not_part_of_identity(self):
        assert self._spec(label="a") == self._spec(label="b")
        assert self._spec(label="a").search_id == self._spec(label="b").search_id

    def test_different_seed_changes_identity(self):
        assert self._spec(seed=0).search_id != self._spec(seed=1).search_id

    def test_rejects_unknown_fields_and_missing_space(self):
        with pytest.raises(ValidationError, match="unknown search-spec fields"):
            SearchSpec.from_dict({"rows": 4, "cols": 4, "space": {"mesh": {}}, "x": 1})
        with pytest.raises(ValidationError, match="missing required fields"):
            SearchSpec.from_dict({"rows": 4, "cols": 4})

    def test_probe_validates_shared_sim_and_arch(self):
        with pytest.raises(ValidationError, match="unknown simulation override"):
            self._spec(sim={"bogus": 1})
        with pytest.raises(ValidationError, match="unknown arch override"):
            self._spec(arch={"bogus": 1})

    def test_rejects_bad_survivors_and_baseline(self):
        with pytest.raises(ValidationError, match="survivors"):
            self._spec(survivors=0)
        with pytest.raises(ValidationError, match="unknown baseline"):
            self._spec(baseline="nope")

    def test_rejects_bad_baseline_kwargs_at_construction(self):
        # Invalid baseline kwargs must fail here, not after the whole search
        # has run and the baseline is finally evaluated.
        with pytest.raises(ValidationError, match="invalid topology kwargs"):
            self._spec(baseline="torus", baseline_kwargs={"bogus": 1})
        # An inapplicable baseline fails fast too (hypercube needs 2^k dims).
        with pytest.raises(ValidationError, match="not applicable"):
            SearchSpec(
                rows=3, cols=3, space={"mesh": {}}, survivors=1, baseline="hypercube"
            )

    def test_candidate_spec_merges_rung_overrides(self):
        spec = self._spec(sim={"drain_max_cycles": 2000}, scenario="a")
        candidate = Candidate(topology="mesh")
        full = spec.candidate_spec(candidate)
        scaled = spec.candidate_spec(candidate, sim_overrides={"drain_max_cycles": 500})
        assert full.sim["drain_max_cycles"] == 2000
        assert scaled.sim["drain_max_cycles"] == 500
        assert full.performance_mode == "simulation"
        assert full.spec_id != scaled.spec_id

    def test_workload_objective_flows_into_candidate_specs(self):
        spec = self._spec(
            objective={
                "metric": "workload_latency",
                "workload": {"name": "stencil2d", "seed": 2},
            }
        )
        candidate_spec = spec.candidate_spec(Candidate(topology="torus"))
        assert candidate_spec.workload == {"name": "stencil2d", "seed": 2}

    def test_describe_mentions_objective_and_families(self):
        text = self._spec().describe()
        assert "mesh" in text and "sparse_hamming" in text
        assert "zero-load" in text


class TestEngineInSearch:
    def test_engine_flows_into_every_candidate_spec(self):
        spec = SearchSpec(
            rows=4,
            cols=4,
            space={"mesh": {}, "torus": {}},
            objective={"metric": "zero_load_latency"},
            sim={"engine": "soa", "drain_max_cycles": 500},
            survivors=2,
        )
        candidate_spec = spec.candidate_spec(Candidate(topology="torus"))
        assert candidate_spec.build_simulation_config().engine == "soa"
        # Rung budget overrides merge on top without dropping the engine.
        scaled = spec.candidate_spec(
            Candidate(topology="torus"), sim_overrides={"drain_max_cycles": 250}
        )
        assert scaled.sim["engine"] == "soa"
        assert scaled.sim["drain_max_cycles"] == 250

    def test_engine_does_not_change_candidate_identity(self):
        base = SearchSpec(
            rows=4, cols=4, space={"mesh": {}},
            objective={"metric": "zero_load_latency"},
            sim={"engine": "reference"},
        )
        soa = base.with_overrides(sim={"engine": "soa"})
        # The search ids differ (different declarative spec) but the derived
        # experiment specs share their memoization identity.
        assert (
            base.candidate_spec(Candidate(topology="mesh")).spec_id
            == soa.candidate_spec(Candidate(topology="mesh")).spec_id
        )

    def test_unknown_engine_rejected_at_spec_construction(self):
        with pytest.raises(ValidationError, match="unknown simulation engine"):
            SearchSpec(
                rows=4, cols=4, space={"mesh": {}},
                objective={"metric": "zero_load_latency"},
                sim={"engine": "numpy"},
            )
