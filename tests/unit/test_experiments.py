"""Unit tests of the declarative experiment API (specs, campaigns, CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import Campaign, ExperimentRunner, ExperimentSpec, figure6_campaign
from repro.experiments.cli import main as cli_main
from repro.utils.validation import ValidationError

SRC_DIR = Path(repro.__file__).resolve().parents[1]


def small_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        topology="sparse_hamming",
        rows=4,
        cols=4,
        topology_kwargs={"s_r": {2}, "s_c": (2,)},
        arch={"endpoint_area_ge": 5e6},
        traffic="uniform",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSpec:
    def test_json_round_trip_equality(self):
        spec = small_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.spec_id == spec.spec_id

    def test_kwargs_normalised_to_canonical_form(self):
        # Sets and tuples are accepted and canonicalised to sorted lists, so
        # differently-spelled but identical specs share one identity.
        a = small_spec(topology_kwargs={"s_r": {2}, "s_c": (2,)})
        b = small_spec(topology_kwargs={"s_r": [2], "s_c": [2]})
        assert a == b
        assert a.spec_id == b.spec_id

    def test_label_is_not_part_of_identity(self):
        assert small_spec(label="x").spec_id == small_spec(label="y").spec_id

    def test_spec_id_stable_across_processes(self):
        spec = small_spec()
        program = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_json(sys.stdin.read())\n"
            "print(spec.spec_id)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", program],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert completed.stdout.strip() == spec.spec_id

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValidationError, match="unknown topology"):
            ExperimentSpec(topology="moebius", rows=4, cols=4)

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValidationError, match="unknown traffic"):
            small_spec(traffic="avalanche")

    def test_unknown_arch_override_rejected(self):
        with pytest.raises(ValidationError, match="unknown arch override"):
            small_spec(arch={"warp_factor": 9})

    def test_unknown_sim_override_rejected(self):
        with pytest.raises(ValidationError, match="unknown simulation override"):
            small_spec(sim={"cycles": 10})

    def test_traffic_sim_override_rejected(self):
        # Traffic has exactly one spelling (the spec-level field); a sim
        # override would create contradictory specs with distinct spec_ids.
        with pytest.raises(ValidationError, match="spec-level 'traffic' field"):
            small_spec(sim={"traffic": "tornado"})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            small_spec(scenario="z")

    def test_non_serializable_kwargs_rejected(self):
        with pytest.raises(ValidationError, match="not JSON-serializable"):
            small_spec(topology_kwargs={"s_r": object()})

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown spec fields"):
            ExperimentSpec.from_dict(data)

    def test_run_matches_direct_toolchain(self):
        spec = small_spec()
        direct = spec.build_toolchain().predict(spec.build_topology())
        via_spec = spec.run()
        assert via_spec.zero_load_latency_cycles == direct.zero_load_latency_cycles
        assert via_spec.saturation_throughput == direct.saturation_throughput
        assert via_spec.area_overhead == direct.area_overhead

    def test_scenario_supplies_architecture_and_paper_config(self):
        spec = ExperimentSpec(topology="sparse_hamming", rows=8, cols=8, scenario="a")
        params = spec.build_parameters()
        assert params.num_tiles == 64
        assert params.endpoint_area_ge == 35e6
        topology = spec.build_topology()
        assert topology.s_r == frozenset({4})
        assert topology.s_c == frozenset({2, 5})


class TestCampaign:
    def test_grid_skips_inapplicable_topologies(self):
        # 4x4: hypercube applies (16 = 2^4) but SlimNoC does not; 3x3 flips
        # both off; 8x16 (128 tiles = 2*8^2) re-admits SlimNoC.
        names = {spec.topology for spec in Campaign.grid(sizes=[(4, 4)])}
        assert "hypercube" in names and "slimnoc" not in names
        names = {spec.topology for spec in Campaign.grid(sizes=[(3, 3)])}
        assert "hypercube" not in names and "slimnoc" not in names
        names = {spec.topology for spec in Campaign.grid(sizes=[(8, 16)])}
        assert "slimnoc" in names

    def test_grid_raises_when_skipping_disabled(self):
        with pytest.raises(ValidationError, match="not applicable"):
            Campaign.grid(topologies=["slimnoc"], sizes=[(4, 4)], skip_inapplicable=False)

    def test_grid_cartesian_expansion(self):
        campaign = Campaign.grid(
            topologies=["mesh", "torus"],
            sizes=[(4, 4), (4, 8)],
            traffics=["uniform", "tornado"],
            performance_modes=["analytical"],
        )
        assert len(campaign) == 2 * 2 * 2
        assert len({spec.spec_id for spec in campaign}) == len(campaign)

    def test_campaign_json_round_trip(self, tmp_path):
        campaign = Campaign.grid(sizes=[(4, 4)], name="round-trip")
        path = campaign.save(tmp_path / "campaign.json")
        loaded = Campaign.load(path)
        assert loaded.name == "round-trip"
        assert [s.spec_id for s in loaded] == [s.spec_id for s in campaign]

    def test_declarative_grid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {"name": "g", "grid": {"sizes": [[4, 4]], "topologies": ["mesh", "ring"]}}
            )
        )
        campaign = Campaign.load(path)
        assert campaign.name == "g"
        assert [spec.topology for spec in campaign] == ["mesh", "ring"]

    def test_figure6_campaign_matches_paper_setup(self):
        campaign = figure6_campaign("c")
        topologies = [spec.topology for spec in campaign]
        assert "slimnoc" in topologies
        shg = next(s for s in campaign if s.topology == "sparse_hamming")
        assert shg.topology_kwargs["s_r"] == [3]
        assert shg.topology_kwargs["s_c"] == [2, 5]

    def test_deduplicated(self):
        # Specs with one spec_id run once: the runner deduplicates them.
        spec = small_spec()
        campaign = Campaign(specs=[spec, small_spec(label="other")])
        assert len({spec.spec_id for spec in campaign}) == 1
        results = ExperimentRunner().run(campaign)
        assert results[0].prediction is results[1].prediction


class TestCli:
    def test_list_topologies(self, capsys):
        assert cli_main(["list-topologies", "--rows", "4", "--cols", "4"]) == 0
        out = capsys.readouterr().out
        assert "sparse_hamming" in out and "slimnoc" in out

    def test_list_traffic(self, capsys):
        assert cli_main(["list-traffic"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "tornado" in out

    def test_predict_json(self, capsys):
        code = cli_main(
            [
                "predict",
                "--topology",
                "mesh",
                "--rows",
                "4",
                "--cols",
                "4",
                "--arch",
                '{"endpoint_area_ge": 5e6}',
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec_id"].startswith("exp-")
        assert payload["result"]["topology_name"] == "2D Mesh"

    def test_campaign_command(self, tmp_path, capsys):
        campaign = Campaign.grid(
            topologies=["mesh"], sizes=[(4, 4)], arch={"endpoint_area_ge": 5e6}
        )
        path = campaign.save(tmp_path / "campaign.json")
        csv_path = tmp_path / "out.csv"
        code = cli_main(
            ["campaign", "--spec", str(path), "--csv", str(csv_path)]
        )
        assert code == 0
        assert csv_path.exists()
        assert "mesh" in capsys.readouterr().out

    def test_campaign_rerun_against_store_is_served_from_cache(self, tmp_path, capsys):
        campaign = Campaign.grid(
            topologies=["mesh", "torus"], sizes=[(4, 4)],
            arch={"endpoint_area_ge": 5e6},
        )
        path = campaign.save(tmp_path / "campaign.json")
        argv = ["campaign", "--spec", str(path), "--store", str(tmp_path / "r.sqlite")]
        assert cli_main(argv) == 0
        assert "served from cache" not in capsys.readouterr().out
        assert cli_main(argv) == 0
        assert "(2/2 results served from cache)" in capsys.readouterr().out

    def test_optimize_store_rows_are_queryable_by_search_id(self, tmp_path, capsys):
        store = str(tmp_path / "r.sqlite")
        code = cli_main(
            ["optimize", "--rows", "4", "--cols", "4",
             "--space", '{"mesh": {}, "torus": {}}', "--survivors", "2",
             "--baseline", "none",
             "--sim", '{"warmup_cycles": 10, "measurement_cycles": 30, "drain_max_cycles": 150}',
             "--store", store, "--json"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        search_id = result["search_id"]
        evaluated = {
            entry["spec_id"] for rung in result["rungs"] for entry in rung["entries"]
        }
        assert cli_main(["query", "--db", store, "--search-id", search_id, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["spec"]["topology"] for row in rows} == {"mesh", "torus"}
        assert len(rows) == len(evaluated)

    def test_validation_error_is_reported_not_raised(self, capsys):
        code = cli_main(
            ["predict", "--topology", "mesh", "--rows", "4", "--cols", "4",
             "--traffic", "bogus"]
        )
        assert code == 2
        assert "unknown traffic" in capsys.readouterr().err

    def test_work_lease_help_names_the_queue_default(self, capsys):
        # The parser does not import the queue, so the help spells the default.
        from repro.service.queue import DEFAULT_LEASE_SECONDS

        with pytest.raises(SystemExit):
            cli_main(["work", "--help"])
        assert f"default {DEFAULT_LEASE_SECONDS:g};" in capsys.readouterr().out


WORKLOAD ={"name": "stencil2d", "seed": 3, "params": {"iterations": 2, "iteration_window": 16}}


class TestWorkloadSpecs:
    def test_workload_spec_round_trips_and_hashes(self):
        spec = small_spec(
            topology="mesh", performance_mode="simulation", workload=WORKLOAD
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_id == spec.spec_id
        other = small_spec(
            topology="mesh",
            performance_mode="simulation",
            workload={**WORKLOAD, "seed": 4},
        )
        assert other.spec_id != spec.spec_id

    def test_workloadless_identity_matches_pre_workload_format(self):
        # Old serialized specs carry no 'workload' key; they must load and
        # share their identity with freshly built workload-less specs, so
        # existing on-disk memoization caches stay valid.
        spec = small_spec()
        legacy = spec.to_dict()
        legacy.pop("workload")
        assert ExperimentSpec.from_dict(legacy).spec_id == spec.spec_id
        assert "workload" not in spec._identity_dict()

    def test_workload_validation(self):
        with pytest.raises(ValidationError, match="unknown workload"):
            small_spec(performance_mode="simulation", workload={"name": "bogus"})
        with pytest.raises(ValidationError, match="require performance_mode='simulation'"):
            small_spec(workload=WORKLOAD)
        with pytest.raises(ValidationError, match="unknown workload keys"):
            small_spec(
                performance_mode="simulation",
                workload={"name": "stencil2d", "sizes": 4},
            )
        with pytest.raises(ValidationError, match="needs a 'name'"):
            small_spec(performance_mode="simulation", workload={"seed": 1})
        with pytest.raises(ValidationError, match="'params' must be a mapping"):
            small_spec(
                performance_mode="simulation",
                workload={"name": "stencil2d", "params": 3},
            )
        with pytest.raises(ValidationError, match="unknown parameters"):
            small_spec(
                performance_mode="simulation",
                workload={"name": "stencil2d", "params": {"bogus": 1}},
            )

    def test_seed_normalised_away_for_seed_independent_workloads(self):
        a = small_spec(
            performance_mode="simulation",
            workload={"name": "mpi_collective", "seed": 1},
        )
        b = small_spec(
            performance_mode="simulation",
            workload={"name": "mpi_collective", "seed": 2},
        )
        assert a.spec_id == b.spec_id
        assert "seed" not in a.workload

    def test_traffic_not_part_of_workload_spec_identity(self):
        # The synthetic traffic pattern is ignored (and documented so) when a
        # workload is set; it must not split spec_ids or cache entries.
        a = small_spec(performance_mode="simulation", workload=WORKLOAD)
        b = small_spec(
            performance_mode="simulation", workload=WORKLOAD, traffic="tornado"
        )
        assert a == b
        assert a.spec_id == b.spec_id

    def test_cached_workload_results_keep_phase_stats(self, tmp_path):
        from repro.experiments import ExperimentRunner

        spec = small_spec(
            topology="mesh",
            topology_kwargs={},
            performance_mode="simulation",
            workload=WORKLOAD,
            sim={"drain_max_cycles": 4000},
        )
        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        fresh = runner.run(spec)[0]
        assert not fresh.cached
        assert set(fresh.prediction.details["replay"].phases) == {"iter0", "iter1"}
        cached = runner.run(spec)[0]
        assert cached.cached
        phases = cached.prediction.details["phases"]
        assert set(phases) == {"iter0", "iter1"}
        assert phases["iter0"].packets_delivered == (
            fresh.prediction.details["replay"].phases["iter0"].packets_delivered
        )

    def test_cached_workload_results_keep_overall_replay_counts(self, tmp_path):
        # The overall packet counters are the only delivery evidence for
        # unphased traces (and feed the optimizer's undelivered penalty), so
        # they must survive the cache round-trip alongside the phase stats.
        from repro.experiments import ExperimentRunner

        spec = small_spec(
            topology="mesh",
            topology_kwargs={},
            performance_mode="simulation",
            workload=WORKLOAD,
            sim={"drain_max_cycles": 4000},
        )
        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        fresh = runner.run(spec)[0]
        replay = fresh.prediction.details["replay"]
        cached = runner.run(spec)[0]
        assert cached.cached
        assert cached.prediction.details["replay_counts"] == {
            "packets_created": replay.packets_created,
            "packets_delivered": replay.packets_delivered,
        }

    def test_build_workload_trace_is_deterministic(self):
        spec = small_spec(
            topology="mesh", performance_mode="simulation", workload=WORKLOAD
        )
        first, second = spec.build_workload_trace(), spec.build_workload_trace()
        assert first is not None
        assert first.to_jsonl_bytes() == second.to_jsonl_bytes()
        assert small_spec().build_workload_trace() is None

    def test_workload_spec_runs_end_to_end(self):
        spec = small_spec(
            topology="mesh",
            topology_kwargs={},
            performance_mode="simulation",
            workload=WORKLOAD,
            sim={"drain_max_cycles": 4000},
        )
        result = spec.run()
        assert result.performance_mode == "simulation"
        replay = result.details["replay"]
        assert replay.drained
        assert set(replay.phases) == {"iter0", "iter1"}
        assert result.zero_load_latency_cycles == replay.average_packet_latency
        assert result.saturation_throughput == replay.accepted_load

    def test_grid_workload_axis(self):
        campaign = Campaign.grid(
            topologies=("mesh", "torus"),
            sizes=((4, 4),),
            traffics=("uniform", "tornado"),
            workloads=(None, "stencil2d", {"name": "onoff", "seed": 2}),
        )
        workload_specs = [spec for spec in campaign if spec.workload is not None]
        synthetic_specs = [spec for spec in campaign if spec.workload is None]
        # Synthetic entries expand over the traffic axis; workload entries
        # do not (the trace carries its own traffic) and force simulation.
        assert len(synthetic_specs) == 2 * 2
        assert len(workload_specs) == 2 * 2
        assert all(spec.performance_mode == "simulation" for spec in workload_specs)
        names = {spec.workload["name"] for spec in workload_specs}
        assert names == {"stencil2d", "onoff"}
        with pytest.raises(ValidationError, match="workloads entries"):
            Campaign.grid(topologies=("mesh",), sizes=((4, 4),), workloads=(7,))

    def test_grid_workload_round_trips_through_json(self, tmp_path):
        campaign = Campaign.grid(
            topologies=("mesh",), sizes=((4, 4),), workloads=("stencil2d",)
        )
        path = campaign.save(tmp_path / "campaign.json")
        assert [spec.spec_id for spec in Campaign.load(path)] == [
            spec.spec_id for spec in campaign
        ]


class TestWorkloadCli:
    def test_list_workloads(self, capsys):
        assert cli_main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "dnn_inference" in out and "onoff" in out

    def test_gen_trace_and_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(
            ["gen-trace", "--workload", "dnn_inference", "--rows", "4", "--cols", "4",
             "--seed", "7", "--output", str(trace_path)]
        )
        assert code == 0
        assert trace_path.exists()
        assert "trace id: trace-" in capsys.readouterr().out
        code = cli_main(
            ["replay", "--trace", str(trace_path), "--topology", "mesh",
             "--rows", "4", "--cols", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drained"] is True
        assert [row["phase"] for row in payload["phases"]] == [
            "layer0", "layer1", "layer2", "layer3",
        ]

    def test_replay_generates_inline_workload(self, capsys):
        code = cli_main(
            ["replay", "--workload", "mpi_collective", "--params",
             '{"collective": "allreduce_tree"}', "--topology", "torus",
             "--rows", "4", "--cols", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduce" in out and "broadcast" in out

    def test_replay_requires_a_trace_source(self, capsys):
        code = cli_main(["replay", "--topology", "mesh", "--rows", "4", "--cols", "4"])
        assert code == 2
        assert "provide --trace FILE or --workload NAME" in capsys.readouterr().err

    def test_replay_rejects_mismatched_tile_count_with_exit_2(self, tmp_path, capsys):
        # A trace generated for one grid replayed on another must exit with a
        # clean one-line error, not a traceback.
        trace_path = tmp_path / "t44.jsonl"
        assert cli_main(
            ["gen-trace", "--workload", "stencil2d", "--rows", "4", "--cols", "4",
             "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()
        code = cli_main(
            ["replay", "--trace", str(trace_path), "--topology", "mesh",
             "--rows", "8", "--cols", "8"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "16 tiles" in err and "64" in err
        assert len(err.strip().splitlines()) == 1

    def test_replay_rejects_trace_and_workload_together(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert cli_main(
            ["gen-trace", "--workload", "stencil2d", "--rows", "4", "--cols", "4",
             "--output", str(trace_path)]
        ) == 0
        capsys.readouterr()
        code = cli_main(
            ["replay", "--trace", str(trace_path), "--workload", "onoff",
             "--topology", "mesh", "--rows", "4", "--cols", "4"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_replay_rejects_bad_overrides_with_exit_2(self, capsys):
        code = cli_main(
            ["replay", "--workload", "stencil2d", "--topology", "mesh",
             "--rows", "4", "--cols", "4", "--sim", '{"bogus": 1}']
        )
        assert code == 2
        assert "unknown simulation override" in capsys.readouterr().err
        code = cli_main(
            ["replay", "--workload", "stencil2d", "--topology", "mesh",
             "--rows", "4", "--cols", "4", "--topology-kwargs", '{"bogus": 1}']
        )
        assert code == 2
        assert "invalid topology kwargs" in capsys.readouterr().err
        predict = ["predict", "--topology", "mesh", "--rows", "4", "--cols", "4"]
        for flags, message in (
            (["--topology-kwargs", '{"bogus": 1}'], "invalid topology kwargs"),
            (["--topology-kwargs", "5"], "--topology-kwargs must be a JSON object"),
            (["--arch", "[1]"], "--arch must be a JSON object"),
        ):
            assert cli_main(predict + flags) == 2
            assert message in capsys.readouterr().err
        code = cli_main(
            ["gen-trace", "--workload", "stencil2d", "--rows", "4", "--cols", "4",
             "--params", '{"bogus": 1}', "--output", "/tmp/never.jsonl"]
        )
        assert code == 2
        assert "unknown parameters" in capsys.readouterr().err
        code = cli_main(
            ["replay", "--workload", "stencil2d", "--topology", "mesh",
             "--rows", "4", "--cols", "4", "--params", "[1]"]
        )
        assert code == 2
        assert "--params must be a JSON object" in capsys.readouterr().err

    def test_replay_reports_malformed_trace_files_with_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"format":"repro-trace","version":1,"num_tiles":4,"phases":[],"meta":{}}\n'
            "[0,1,2]\n"
        )
        code = cli_main(
            ["replay", "--trace", str(bad), "--topology", "mesh",
             "--rows", "2", "--cols", "2"]
        )
        assert code == 2
        assert "malformed trace record" in capsys.readouterr().err

    def test_predict_with_workload_flag(self, capsys):
        code = cli_main(
            ["predict", "--topology", "mesh", "--rows", "4", "--cols", "4",
             "--arch", '{"endpoint_area_ge": 5e6}', "--workload", "stencil2d",
             "--sim", '{"drain_max_cycles": 4000}', "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["workload"]["name"] == "stencil2d"
        assert payload["spec"]["performance_mode"] == "simulation"

    OPTIMIZE_ARGS = [
        "optimize", "--rows", "4", "--cols", "4",
        "--space", '{"mesh": {}, "torus": {}, "sparse_hamming": {"max_configurations": 8}}',
        "--workload", '{"name": "mpi_collective", "params": {"collective": "alltoall"}}',
        "--survivors", "2", "--sim", '{"drain_max_cycles": 2000}',
    ]

    def test_optimize_reports_winner_and_baseline(self, capsys):
        assert cli_main(self.OPTIMIZE_ARGS) == 0
        out = capsys.readouterr().out
        assert "screened 10 candidates" in out
        assert "winner:" in out
        assert "speedup over baseline" in out

    def test_optimize_json_payload_is_complete(self, capsys):
        assert cli_main(self.OPTIMIZE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["screened"] == 10
        assert payload["counts"]["simulated_candidates"] == 2
        assert payload["baseline"]["topology"] == "mesh"
        assert payload["spec"]["objective"]["metric"] == "workload_latency"
        assert len(payload["rungs"]) == 1
        # The spec in the payload round-trips back into an equal SearchSpec.
        from repro.optimize import SearchSpec

        assert SearchSpec.from_dict(payload["spec"]).search_id == payload["search_id"]

    def test_optimize_trajectory_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "trajectory.csv"
        assert cli_main(self.OPTIMIZE_ARGS + ["--csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        # Header + 10 screening rows + 2 rung rows.
        assert len(lines) == 1 + 10 + 2
        assert lines[0].startswith("stage,")

    def test_optimize_spec_file_round_trip(self, tmp_path, capsys):
        from repro.optimize import SearchSpec

        spec = SearchSpec(
            rows=4, cols=4,
            space={"mesh": {}, "torus": {}},
            objective={"metric": "workload_latency",
                       "workload": {"name": "stencil2d", "params": {"iterations": 2}}},
            survivors=2,
            sim={"drain_max_cycles": 1500},
        )
        path = tmp_path / "search.json"
        path.write_text(spec.to_json())
        assert cli_main(["optimize", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert spec.search_id in out

    def test_optimize_rejects_search_flags_alongside_spec_file(self, tmp_path, capsys):
        path = tmp_path / "search.json"
        path.write_text(
            '{"rows": 4, "cols": 4, "space": {"mesh": {}}, '
            '"objective": {"metric": "zero_load_latency"}}'
        )
        code = cli_main(["optimize", "--spec", str(path), "--rows", "8", "--cols", "8"])
        assert code == 2
        assert "drop --cols, --rows" in capsys.readouterr().err
        # Every search-defining flag is rejected, not just the grid — a
        # silently ignored --survivors or budget would mislead the user.
        code = cli_main(["optimize", "--spec", str(path), "--survivors", "2"])
        assert code == 2
        assert "drop --survivors" in capsys.readouterr().err
        code = cli_main(["optimize", "--spec", str(path), "--max-area-overhead", "0.2"])
        assert code == 2
        assert "drop --max-area-overhead" in capsys.readouterr().err

    def test_optimize_requires_grid_without_spec(self, capsys):
        assert cli_main(["optimize"]) == 2
        assert "--rows and --cols" in capsys.readouterr().err

    def test_optimize_workload_objective_needs_workload(self, capsys):
        code = cli_main(
            ["optimize", "--rows", "4", "--cols", "4",
             "--objective", "workload_latency"]
        )
        assert code == 2
        assert "needs a workload" in capsys.readouterr().err


class TestEngineThreading:
    """The simulation engine threads through specs, runner, and CLI."""

    FAST_SIM = {"warmup_cycles": 10, "measurement_cycles": 30, "drain_max_cycles": 150}

    def test_engine_excluded_from_spec_id(self):
        from repro.simulator.engine import DEFAULT_ENGINE

        base = small_spec(
            performance_mode="simulation", sim={**self.FAST_SIM, "engine": "reference"}
        )
        soa = base.with_overrides(sim={**self.FAST_SIM, "engine": "soa"})
        # Engines are bit-identical, so the engine must not split the
        # identity (or the memoization cache key space).
        assert base.spec_id == soa.spec_id
        assert base == soa
        # ... but the choice must reach the simulation configuration.
        assert base.build_simulation_config().engine == "reference"
        assert soa.build_simulation_config().engine == "soa"
        # A spec that names no engine runs the fast kernel.
        assert DEFAULT_ENGINE == "soa"
        engineless = small_spec(performance_mode="simulation", sim=self.FAST_SIM)
        assert engineless.build_simulation_config().engine == DEFAULT_ENGINE
        assert engineless.spec_id == base.spec_id

    @pytest.mark.parametrize(
        "fields",
        [
            # Windows long enough that the search probes several load
            # points and finds a saturation throughput above its first probe.
            {"sim": {"warmup_cycles": 50, "measurement_cycles": 150,
                     "drain_max_cycles": 300}},
            {"workload": {"name": "dnn_inference", "seed": 7},
             "sim": {"drain_max_cycles": 2000}},
        ],
        ids=["saturation_search", "dnn_inference_replay"],
    )
    def test_default_engine_reproduces_reference(self, fields):
        # Each spec runs on its own, with no store, so neither side can be
        # served from the other's memoized payload.
        from repro.experiments.serialization import prediction_to_dict

        default = ExperimentSpec(
            topology="mesh", rows=4, cols=4, arch={"endpoint_area_ge": 5e6},
            performance_mode="simulation", **fields,
        )
        reference = default.with_overrides(
            sim={**fields["sim"], "engine": "reference"}
        )
        assert default.build_simulation_config().engine == "soa"
        assert default.spec_id == reference.spec_id
        assert json.dumps(prediction_to_dict(default.run()), sort_keys=True) == (
            json.dumps(prediction_to_dict(reference.run()), sort_keys=True)
        )

    def test_audit_interval_excluded_from_spec_id(self):
        base = small_spec(performance_mode="simulation", sim=self.FAST_SIM)
        sampled = base.with_overrides(
            sim={**self.FAST_SIM, "engine": "sanitizer", "audit_interval": 25}
        )
        # The sanitizer's audit sampling period never changes statistics, so
        # (like the engine) it must not split the identity.
        assert base.spec_id == sampled.spec_id
        assert base == sampled
        assert sampled.build_simulation_config().audit_interval == 25
        assert base.build_simulation_config().audit_interval == 1

    def test_engine_survives_json_round_trip(self):
        spec = small_spec(
            performance_mode="simulation", sim={**self.FAST_SIM, "engine": "soa"}
        )
        rebuilt = ExperimentSpec.from_json(spec.to_json())
        assert rebuilt.sim["engine"] == "soa"

    def test_unknown_engine_rejected(self):
        from repro.simulator.simulation import SimulationConfig

        with pytest.raises(ValidationError, match="unknown simulation engine"):
            SimulationConfig(engine="numpy")
        with pytest.raises(ValidationError):
            small_spec(
                performance_mode="simulation", sim={"engine": "numpy"}
            ).build_simulation_config()

    def test_runner_cache_is_shared_across_engines(self, tmp_path):
        from repro.experiments import ExperimentRunner

        reference = ExperimentSpec(
            topology="mesh", rows=3, cols=3,
            performance_mode="simulation", sim={**self.FAST_SIM, "engine": "reference"},
        )
        soa = reference.with_overrides(sim={**self.FAST_SIM, "engine": "soa"})
        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        first = runner.run(reference)
        assert first.num_cached == 0
        # The engine-distinct spec hits the same cache entry.
        second = runner.run(soa)
        assert second.num_cached == 1
        assert (
            second[0].prediction.zero_load_latency_cycles
            == first[0].prediction.zero_load_latency_cycles
        )

    def test_progress_reporting_writes_stderr_lines(self, capsys):
        from repro.experiments import ExperimentRunner

        specs = [
            small_spec(label="a"),
            small_spec(label="b", traffic="tornado"),
        ]
        ExperimentRunner().run(specs, progress=True)
        err = capsys.readouterr().err
        assert "[repro] 1/2" in err
        assert "[repro] 2/2" in err
        assert "elapsed" in err

    def test_progress_reports_cache_hits_once(self, tmp_path, capsys):
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(store=tmp_path / "results.sqlite")
        runner.run([small_spec(), small_spec(traffic="tornado")])
        capsys.readouterr()
        runner.run(
            [small_spec(), small_spec(traffic="tornado"), small_spec(traffic="neighbor")],
            progress=True,
        )
        err = capsys.readouterr().err
        assert "2 result(s) served from cache" in err
        assert "[repro] 1/1" in err

    def test_progress_off_is_silent(self, capsys):
        from repro.experiments import ExperimentRunner

        ExperimentRunner().run(small_spec())
        assert capsys.readouterr().err == ""


class TestEngineCli:
    """CLI surface of the engine layer plus ``repro --version``."""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_version_is_single_sourced_by_setup(self):
        # setup.py must carry no version literal of its own: it parses the
        # __version__ assignment out of src/repro/__init__.py (checked by
        # reproducing the parse here — importing setup.py would run setup()).
        import re

        setup_text = (SRC_DIR.parent / "setup.py").read_text()
        assert 'version=read_version()' in setup_text
        assert not re.search(r'version="\d', setup_text)
        source = (SRC_DIR / "repro" / "__init__.py").read_text()
        match = re.search(r'^__version__ = "([^"]+)"', source, re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__

    def test_list_engines(self, capsys):
        assert cli_main(["list-engines"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "soa" in out and "sanitizer" in out
        assert "vec" in out
        assert cli_main(["list-engines", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            "reference",
            "sanitizer",
            "soa",
            "vec",
        ]

    def test_predict_engine_flag_is_bit_identical(self, capsys):
        argv = [
            "predict", "--topology", "mesh", "--rows", "3", "--cols", "3",
            "--mode", "simulation",
            "--sim", '{"warmup_cycles": 10, "measurement_cycles": 30, "drain_max_cycles": 150}',
            "--json",
        ]
        assert cli_main(argv + ["--engine", "reference"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--engine", "soa"]) == 0
        soa = json.loads(capsys.readouterr().out)
        assert soa["spec_id"] == reference["spec_id"]
        assert (
            soa["result"]["zero_load_latency_cycles"]
            == reference["result"]["zero_load_latency_cycles"]
        )
        assert (
            soa["result"]["saturation_throughput"]
            == reference["result"]["saturation_throughput"]
        )

    def test_replay_engine_flag(self, capsys):
        base = [
            "replay", "--workload", "mpi_collective",
            "--params", '{"collective": "alltoall"}',
            "--topology", "mesh", "--rows", "3", "--cols", "3", "--json",
        ]
        assert cli_main(base + ["--engine", "reference"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert cli_main(base + ["--engine", "soa"]) == 0
        soa = json.loads(capsys.readouterr().out)
        assert soa == reference

    def test_replay_rejects_unknown_engine(self, capsys):
        code = cli_main(
            ["replay", "--workload", "onoff", "--topology", "mesh",
             "--rows", "3", "--cols", "3", "--sim", '{"engine": "numpy"}']
        )
        assert code == 2
        assert "unknown simulation engine" in capsys.readouterr().err

    def test_optimize_rejects_engine_flag_alongside_spec_file(self, tmp_path, capsys):
        path = tmp_path / "search.json"
        path.write_text(
            '{"rows": 4, "cols": 4, "space": {"mesh": {}}, '
            '"objective": {"metric": "zero_load_latency"}}'
        )
        for flag, value in (("--engine", "soa"), ("--audit-interval", "5")):
            code = cli_main(["optimize", "--spec", str(path), flag, value])
            assert code == 2
            assert f"drop {flag}" in capsys.readouterr().err


class TestVerifyLintCli:
    """``repro verify`` and ``repro lint``."""

    def test_verify_single_topology(self, capsys):
        assert cli_main(["verify", "--topology", "mesh", "--rows", "4", "--cols", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "escape CDG acyclic" in out

    def test_verify_all_topologies(self, capsys):
        assert cli_main(["verify", "--all-topologies"]) == 0
        out = capsys.readouterr().out
        # Every registered family verifies, including SlimNoC on its
        # fallback grid (4x4 is not 2*q^2).
        assert "slimnoc (3x6)" in out
        assert "all 9 topologies OK" in out

    def test_verify_json_output(self, capsys):
        assert cli_main(["verify", "--topology", "torus", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        report = payload[0]
        assert report["ok"] is True
        assert report["key"] == "torus"
        assert report["violations"] == []
        assert report["minimal_cdg_cyclic"] in (True, False)

    def test_verify_requires_a_target(self, capsys):
        assert cli_main(["verify"]) == 2
        assert "--topology" in capsys.readouterr().err

    def test_verify_rejects_conflicting_flags(self, capsys):
        code = cli_main(["verify", "--topology", "mesh", "--all-topologies"])
        assert code == 2
        assert "exclusive" in capsys.readouterr().err

    def test_verify_unknown_topology_exits_2(self, capsys):
        assert cli_main(["verify", "--topology", "nope"]) == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_lint_clean_tree(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        assert cli_main(["lint", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_lint_reports_violations_with_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nvalue = random.random()\n")
        assert cli_main(["lint", "--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "unseeded-global-rng" in captured.out
        assert "1 violation(s)" in captured.err
