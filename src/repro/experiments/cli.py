"""``repro`` — the command-line front end of the experiment API.

Subcommands
-----------
``repro list-topologies``
    Registered topology generators, optionally filtered by grid applicability.
``repro list-traffic``
    Registered traffic patterns.
``repro list-workloads``
    Registered trace-driven workload generators.
``repro list-engines``
    Registered simulation engines (see :mod:`repro.simulator.engine`).
``repro predict``
    Run one experiment spec built from command-line flags.
``repro campaign``
    Run a JSON campaign (explicit spec list or declarative grid) with
    optional process parallelism, on-disk memoization, and CSV/JSON export.
``repro figure6``
    Reproduce one (or all) Figure 6 panels of the paper.
``repro gen-trace``
    Generate a workload trace and write it to a ``.jsonl``/``.npz`` file.
``repro replay``
    Replay a trace (from a file or generated on the fly) through the
    cycle-accurate simulator and report overall + per-phase statistics.
``repro optimize``
    Search a topology design space for an objective under constraints:
    analytical screening of the full space, then successive-halving
    cycle-accurate evaluation of the survivors (see ``docs/OPTIMIZER.md``).
``repro verify``
    Statically verify compiled routing tables (escape-CDG acyclicity,
    reachability, minimality, config sanity) for one topology or every
    registered one (see ``docs/VERIFICATION.md``).  Exits 1 on violations.
``repro lint``
    Run the determinism/consistency lint over the repo source tree
    (:mod:`repro.verify.lint`).  Exits 1 on violations.
``repro devtools replay-scenario``
    Rebuild one randomized differential scenario from its generator
    ``(seed, index)`` and re-run it under any set of engines, reporting
    statistics divergences field by field (see
    :mod:`repro.devtools.scenarios`).  Exits 1 on divergence.
``repro store migrate`` / ``repro store stats``
    Manage the content-addressed SQLite result store
    (:mod:`repro.service.store`): one-shot import of a legacy memoization
    directory, and store/queue statistics.
``repro query``
    Offline store lookups (by spec_id, topology, trace_id, search_id, ...)
    with the usual table/CSV/JSON exports — no simulation runs.
``repro enqueue``
    Enqueue a campaign as durable work items in the store's work queue
    (re-enqueueing a fully stored campaign enqueues nothing).
``repro work``
    Run one queue worker: claim jobs under an expiring lease, simulate,
    store, repeat until the queue is drained.  Run N of these (or restart
    after a crash) against one store file to shard a campaign.
``repro serve``
    Async query API (:mod:`repro.service.api`): answers predictions from
    the store, enqueues misses, optionally drains them with background
    worker threads (see ``docs/SERVICE.md``).

Every subcommand that launches cycle-accurate simulations (``predict``,
``replay``, ``campaign``, ``optimize``) accepts ``--engine`` to pick the
simulation kernel (``soa`` by default, or ``reference``, ``sanitizer`` or
``vec``; all are bit-identical, so the choice only affects speed and
checking — ``vec`` additionally batches sweep load points into one fused
kernel).  ``predict``,
``campaign``, ``figure6`` and ``optimize`` memoize results in the durable
SQLite result store named by ``--store``.  Flags shared by several
subcommands are declared once, as parent parsers (see :func:`build_parser`).
``repro --version`` prints the installed package version.  ``campaign`` and
``optimize`` report per-experiment progress on stderr when it is a terminal.

The console script is registered in ``setup.py``; without installing, use
``PYTHONPATH=src python -m repro.experiments.cli ...``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

# Building the parser needs only these light modules; each handler imports
# the subsystem it runs, so ``repro --version`` and ``repro list-engines``
# load no numpy and ``repro serve`` loads no optimizer or verifier.
from repro import __version__
from repro.arch.knc import KNC_SCENARIOS
from repro.simulator.engine import available_engines
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.experiments.runner import ResultSet
    from repro.optimize.spec import SearchSpec
    from repro.workloads.trace import WorkloadTrace


def _print_table(rows: list[dict[str, Any]]) -> None:
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print(" | ".join(c.ljust(widths[c]) for c in columns))
    print("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        print(" | ".join(str(row[c]).ljust(widths[c]) for c in columns))


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _result_rows(results: ResultSet) -> list[dict[str, Any]]:
    rows = []
    for record in results.to_records():
        rows.append(
            {
                "topology": record["topology"],
                "grid": f"{record['rows']}x{record['cols']}",
                "scenario": record["scenario"] or "-",
                # Workload replays carry their own traffic; show the trace name.
                "traffic": record["workload"] or record["traffic"],
                "mode": record["performance_mode"],
                "area ovh [%]": f"{100 * record['area_overhead']:.2f}",
                "power [W]": f"{record['noc_power_w']:.2f}",
                "latency [cyc]": f"{record['zero_load_latency_cycles']:.1f}",
                "sat. thr [%]": f"{100 * record['saturation_throughput']:.2f}",
                "cached": "yes" if record["cached"] else "no",
            }
        )
    return rows


def _emit_results(
    results: ResultSet, args: argparse.Namespace, table: bool = True
) -> None:
    """Apply the ``--json-out``/``--csv``/``--json`` export flags.

    Without ``--json`` the results are printed as a table (unless ``table``
    is false, for callers that printed their own).
    """
    if args.json_out:
        results.to_json(args.json_out)
        print(f"wrote {len(results)} results to {args.json_out}")
    if args.csv:
        results.to_csv(args.csv)
        print(f"wrote {len(results)} results to {args.csv}")
    if args.as_json:
        print(results.to_json(), end="")
    elif table:
        _print_table(_result_rows(results))
        if results.num_cached:
            print(f"({results.num_cached}/{len(results)} results served from cache)")


# ------------------------------------------------------------- subcommands
def _cmd_list_topologies(args: argparse.Namespace) -> int:
    from repro.topologies.registry import DISPLAY_NAMES, available_topologies, is_applicable

    rows = []
    for key in available_topologies():
        row: dict[str, Any] = {"key": key, "name": DISPLAY_NAMES.get(key, key)}
        if args.rows and args.cols:
            row["applicable"] = "yes" if is_applicable(key, args.rows, args.cols) else "no"
        rows.append(row)
    if args.as_json:
        print(json.dumps(rows, indent=2))
    else:
        _print_table(rows)
    return 0


#: ``repro list-*`` subcommands that print the names of one registry:
#: command -> (help, module, function listing the registry's names).
_NAME_LISTS = {
    "list-traffic": (
        "list registered traffic patterns",
        "repro.simulator.traffic",
        "available_traffic_patterns",
    ),
    "list-workloads": (
        "list registered workload generators",
        "repro.workloads.generators",
        "available_workloads",
    ),
    "list-engines": (
        "list registered simulation engines",
        "repro.simulator.engine",
        "available_engines",
    ),
}


def _cmd_list_names(args: argparse.Namespace) -> int:
    _, module, function = _NAME_LISTS[args.command]
    names = getattr(importlib.import_module(module), function)()
    if args.as_json:
        _print_json(names)
    else:
        for name in names:
            print(name)
    return 0


def _json_object(text: str, flag: str) -> dict[str, Any]:
    """Parse a JSON-object CLI argument, rejecting non-object values."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValidationError(f"{flag} must be a JSON object, got {value!r}")
    return value


def _merge_engine(args: argparse.Namespace) -> dict[str, Any]:
    """``--sim`` JSON with the ``--engine``/``--audit-interval`` flags on top.

    :func:`main` stores the result as ``args.sim_overrides`` for every
    subcommand with the engine flags; ``campaign`` has no ``--sim``, so its
    overrides are just the flags, applied to each spec of the campaign.
    The flags win over conflicting entries in the JSON — the explicit flag
    is the more specific spelling.  Both knobs are excluded from spec
    identity (engines are bit-identical; the sanitizer audit only reads
    state), so neither splits the memoization key space.
    """
    sim_overrides = _json_object(getattr(args, "sim", "{}"), "--sim")
    if args.engine:
        sim_overrides["engine"] = args.engine
    if args.audit_interval is not None:
        sim_overrides["audit_interval"] = args.audit_interval
    return sim_overrides


def _workload_arg(text: str) -> dict[str, Any]:
    """``--workload``: a JSON workload spec or a bare registry name."""
    if text.lstrip().startswith(("{", "[", '"')):
        # Looks like JSON: parse strictly so a typo in a long
        # {name, seed, params} spec surfaces as a JSON error, not as a
        # bogus registry-name miss.
        workload = json.loads(text)
    else:
        workload = text
    return {"name": workload} if isinstance(workload, str) else workload


def _progress_enabled() -> bool:
    """Progress lines are only useful (and only emitted) on a live terminal."""
    return sys.stderr.isatty()


def _build_trace(args: argparse.Namespace) -> WorkloadTrace:
    """Trace from ``--trace FILE`` or generated from ``--workload NAME``."""
    from repro.workloads.generators import make_workload_trace
    from repro.workloads.trace import WorkloadTrace

    if getattr(args, "trace", None):
        if getattr(args, "workload", None):
            raise ValidationError(
                "--trace and --workload are mutually exclusive; pass one"
            )
        if getattr(args, "seed", 0) or getattr(args, "params", "{}") != "{}":
            # Generator flags have no effect on a loaded file; failing loudly
            # beats replaying a trace the user thinks they reconfigured.
            raise ValidationError(
                "--seed/--params only apply with --workload, not with --trace"
            )
        return WorkloadTrace.load(args.trace)
    if not getattr(args, "workload", None):
        raise ValidationError("provide --trace FILE or --workload NAME")
    return make_workload_trace(
        args.workload,
        args.rows,
        args.cols,
        seed=args.seed,
        **_json_object(args.params, "--params"),
    )


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    trace = _build_trace(args)  # gen-trace has no --trace flag: always generates
    path = trace.save(args.output)
    print(
        f"wrote {trace.name}: {trace.num_packets} packets, "
        f"{trace.total_flits} flits, {len(trace.phases)} phases, "
        f"{trace.duration} cycles, {trace.num_tiles} tiles -> {path}"
    )
    print(f"trace id: {trace.trace_id}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.analysis.phases import phase_records
    from repro.experiments.spec import check_sim_overrides
    from repro.simulator.simulation import SimulationConfig
    from repro.simulator.sweep import replay_trace
    from repro.topologies.registry import make_topology

    trace = _build_trace(args)
    topology = make_topology(
        args.topology,
        args.rows,
        args.cols,
        **_json_object(args.topology_kwargs, "--topology-kwargs"),
    )
    sim_overrides = args.sim_overrides
    if "traffic" in sim_overrides:
        raise ValidationError("trace replay ignores synthetic traffic; drop 'traffic'")
    check_sim_overrides(sim_overrides)
    stats = replay_trace(topology, trace, config=SimulationConfig(**sim_overrides))
    phases = phase_records(stats)
    if args.as_json:
        _print_json(
            {
                "trace": {
                    "name": trace.name,
                    "trace_id": trace.trace_id,
                    "num_packets": trace.num_packets,
                    "duration": trace.duration,
                },
                "topology": topology.name,
                "average_packet_latency": stats.average_packet_latency,
                "p99_packet_latency": stats.p99_packet_latency,
                "accepted_load": stats.accepted_load,
                "offered_load": stats.offered_load,
                "packets_delivered": stats.packets_delivered,
                "drained": stats.drained,
                "phases": phases,
            }
        )
        return 0
    print(
        f"replayed {trace.name} ({trace.num_packets} packets, "
        f"{trace.duration} cycles) on {topology.name}"
    )
    print(
        f"latency {stats.average_packet_latency:.2f} cyc "
        f"(p99 {stats.p99_packet_latency:.2f}), "
        f"accepted {stats.accepted_load:.4f} flits/tile/cyc, "
        f"delivered {stats.packets_delivered}/{stats.packets_created}, "
        f"drained {'yes' if stats.drained else 'NO'}"
    )
    if phases:
        rows = [
            {
                "phase": row["phase"],
                "window": f"{row['start_cycle']}..{row['end_cycle']}",
                "packets": f"{row['packets_delivered']}/{row['packets_created']}",
                "latency [cyc]": f"{row['average_packet_latency']:.2f}",
                "p99 [cyc]": f"{row['p99_packet_latency']:.2f}",
                "thr [f/t/c]": f"{row['throughput']:.4f}",
                "saturated": "yes" if row["saturated"] else "no",
            }
            for row in phases
        ]
        _print_table(rows)
    return 0


#: Fallback grids ``repro verify --all-topologies`` probes for topologies
#: that are not applicable to the requested grid (SlimNoC needs
#: ``R*C = 2*q^2``, so a 4x4 request would otherwise silently skip it).
_VERIFY_FALLBACK_GRIDS = ((4, 4), (3, 6), (2, 2), (3, 3))


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.topologies.registry import available_topologies, is_applicable, make_topology
    from repro.verify.static import verify_topology

    if args.all_topologies:
        if args.topology:
            raise ValidationError("--topology and --all-topologies are exclusive")
        targets: list[tuple[str, int, int, dict[str, Any]]] = []
        for key in available_topologies():
            if is_applicable(key, args.rows, args.cols):
                targets.append((key, args.rows, args.cols, {}))
                continue
            grid = next(
                (g for g in _VERIFY_FALLBACK_GRIDS if is_applicable(key, *g)), None
            )
            if grid is None:
                raise ValidationError(
                    f"topology {key!r} is applicable to none of the probe grids"
                )
            targets.append((key, grid[0], grid[1], {}))
    else:
        if not args.topology:
            raise ValidationError("provide --topology NAME or --all-topologies")
        targets = [
            (
                args.topology,
                args.rows,
                args.cols,
                _json_object(args.topology_kwargs, "--topology-kwargs"),
            )
        ]

    reports = [
        (key, rows, cols, verify_topology(make_topology(key, rows, cols, **kwargs)))
        for key, rows, cols, kwargs in targets
    ]

    if args.as_json:
        _print_json(
            [
                {"key": key, "rows": rows, "cols": cols, **report.to_dict()}
                for key, rows, cols, report in reports
            ]
        )
    else:
        for key, rows, cols, report in reports:
            print(f"{key} ({rows}x{cols}): {report.summary()}")
            for violation in report.violations:
                print(f"  [{violation.rule}] {violation.message}")
    failed = sum(1 for _, _, _, report in reports if not report.ok)
    if failed:
        print(f"verify: {failed}/{len(reports)} topologies FAILED", file=sys.stderr)
        return 1
    if not args.as_json:
        print(f"verify: all {len(reports)} topologies OK")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.verify.lint import run_lint

    violations = run_lint(args.root)
    if args.as_json:
        _print_json(
            [
                {
                    "path": violation.path,
                    "line": violation.line,
                    "rule": violation.rule,
                    "message": violation.message,
                }
                for violation in violations
            ]
        )
    else:
        for violation in violations:
            print(violation)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    if not args.as_json:
        print("lint: clean")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.serialization import prediction_to_dict
    from repro.experiments.spec import ExperimentSpec

    workload = _workload_arg(args.workload) if args.workload else None
    spec = ExperimentSpec(
        topology=args.topology,
        rows=args.rows,
        cols=args.cols,
        topology_kwargs=_json_object(args.topology_kwargs, "--topology-kwargs"),
        scenario=args.scenario,
        arch=_json_object(args.arch, "--arch"),
        traffic=args.traffic,
        performance_mode="simulation" if workload is not None else args.mode,
        sim=args.sim_overrides,
        workload=workload,
    )
    results = ExperimentRunner(store=args.store).run(spec)
    if args.as_json:
        _print_json(
            {
                "spec_id": spec.spec_id,
                "spec": spec.to_dict(),
                "result": prediction_to_dict(results[0].prediction),
                "cached": results[0].cached,
            }
        )
    else:
        print(f"spec {spec.spec_id}: {spec.describe()}")
        _print_table(_result_rows(results))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Campaign
    from repro.experiments.runner import ExperimentRunner

    campaign = Campaign.load(args.spec)
    specs = list(campaign.specs)
    if args.sim_overrides:
        # Thread the engine through every spec of the campaign; the engine
        # (and the sanitizer's audit interval) is excluded from spec_id, so
        # memoized results stay shared.
        specs = [
            spec.with_overrides(sim={**spec.sim, **args.sim_overrides})
            for spec in specs
        ]
    results = ExperimentRunner(store=args.store).run(
        specs, parallel=args.parallel, progress=_progress_enabled()
    )
    if not args.as_json:
        print(f"campaign {campaign.name!r}: {len(campaign)} experiments")
    _emit_results(results, args)
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import figure6_campaign
    from repro.experiments.runner import ExperimentRunner, ResultSet

    keys = sorted(KNC_SCENARIOS) if args.scenario == "all" else [args.scenario]
    runner = ExperimentRunner(store=args.store)
    combined: list[Any] = []
    for key in keys:
        scenario = KNC_SCENARIOS[key]
        campaign = figure6_campaign(key, performance_mode=args.mode)
        results = runner.run(campaign, parallel=args.parallel)
        combined.extend(results)
        if args.as_json:
            continue
        print(f"Figure 6{key} — {scenario.description}")
        _print_table(_result_rows(results))
        best = results.best_within_area_budget(0.40)
        if best is not None:
            print(f"best within the 40% area budget: {best.topology_name}")
        print()
    # Exports cover every requested panel in one file (not one file per
    # panel overwriting the last), and --json emits a single JSON document.
    _emit_results(ResultSet(combined), args, table=False)
    return 0


#: Default families block of ``repro optimize``: the fixed Figure 6 baseline
#: families plus a sampled sparse-Hamming configuration space.
DEFAULT_SEARCH_SPACE = {
    "mesh": {},
    "torus": {},
    "folded_torus": {},
    "flattened_butterfly": {},
    "sparse_hamming": {"max_configurations": 64},
}


def _build_search_spec(args: argparse.Namespace) -> SearchSpec:
    """Assemble the :class:`SearchSpec` from ``repro optimize`` flags."""
    from repro.optimize.spec import SearchSpec

    if args.spec:
        # A --spec file already fixes every flag that defines the search,
        # so combining the two would silently ignore whichever the user
        # thinks won.
        overridden = sorted(
            f"--{name.replace('_', '-')}"
            for name, default in args.search_defaults.items()
            if getattr(args, name) != default
        )
        if overridden:
            raise ValidationError(
                f"--spec already defines the search; drop {', '.join(overridden)} "
                "(edit the spec file instead)"
            )
        return SearchSpec.from_json(Path(args.spec).read_text())
    if not args.rows or not args.cols:
        raise ValidationError("provide --rows and --cols (or a --spec file)")
    objective: dict[str, Any] = {"metric": args.objective}
    if args.workload:
        objective = {"metric": "workload_latency", "workload": _workload_arg(args.workload)}
    if args.phase:
        objective["phase"] = args.phase
    constraints: dict[str, Any] = {}
    if args.max_area_overhead is not None:
        constraints["max_area_overhead"] = args.max_area_overhead
    if args.max_power is not None:
        constraints["max_power_w"] = args.max_power
    if args.max_link_length is not None:
        constraints["max_link_length"] = args.max_link_length
    return SearchSpec(
        rows=args.rows,
        cols=args.cols,
        space=_json_object(args.space, "--space"),
        objective=objective,
        constraints=constraints,
        scenario=args.scenario,
        arch=_json_object(args.arch, "--arch"),
        sim=args.sim_overrides,
        traffic=args.traffic,
        survivors=args.survivors,
        seed=args.seed,
        baseline=None if args.baseline == "none" else args.baseline,
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.analysis.search import compare_with_baseline, trajectory_records
    from repro.optimize.search import run_search

    spec = _build_search_spec(args)
    result = run_search(
        spec, store=args.store, parallel=args.parallel, progress=_progress_enabled()
    )

    if args.csv:
        rows = trajectory_records(result)
        import csv as _csv

        with open(args.csv, "w", newline="") as handle:
            writer = _csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} trajectory rows to {args.csv}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote search result to {args.json_out}")
    if args.as_json:
        _print_json(result.to_dict())
        return 0

    print(f"search {spec.search_id}: {spec.describe()}")
    print(
        f"screened {result.candidates_screened} candidates "
        f"({result.candidates_feasible} feasible); "
        f"{result.candidates_simulated} entered the cycle-accurate stage "
        f"({result.simulations} simulations, "
        f"{result.screening_ratio:.1f}x screening ratio, "
        f"{result.num_cached} cached)"
    )
    for rung in result.rungs:
        budget = (
            ", ".join(f"{k}={v}" for k, v in sorted(rung.sim_overrides.items()))
            or "full budget"
        )
        best = rung.entries[0]
        print(
            f"  rung {rung.rung} ({budget}): {len(rung.entries)} candidates, "
            f"best {best.candidate.describe()} (score {best.score:.2f})"
        )
    winner = result.winner_prediction
    print(f"winner: {result.winner.describe()}")
    print(
        f"  latency {winner.zero_load_latency_cycles:.2f} cyc, "
        f"sat. thr {100 * winner.saturation_throughput:.2f}%, "
        f"area ovh {100 * winner.area_overhead:.2f}%, "
        f"power {winner.noc_power_w:.2f} W"
    )
    if result.baseline_prediction is not None:
        comparison = compare_with_baseline(result)
        baseline = result.baseline_prediction
        print(
            f"baseline {baseline.topology_name}: "
            f"latency {baseline.zero_load_latency_cycles:.2f} cyc, "
            f"sat. thr {100 * baseline.saturation_throughput:.2f}%"
        )
        print(f"objective speedup over baseline: {comparison['objective_speedup']:.2f}x")
        for phase, speedup in comparison.get("phase_speedups", {}).items():
            print(f"  {phase:>12s}: {speedup:5.2f}x")
    return 0


def _cmd_devtools_replay_scenario(args: argparse.Namespace) -> int:
    from repro.devtools.scenarios import diff_stats, get_scenario, run_scenario
    from repro.simulator.sweep import run_batch

    scenario = get_scenario(args.index, seed=args.seed)
    engines = (
        [name.strip() for name in args.engines.split(",") if name.strip()]
        if args.engines
        else available_engines()
    )
    print(f"scenario {scenario.label} (seed {args.seed}, index {args.index}):")
    print(
        f"  {scenario.topology} {scenario.rows}x{scenario.cols}, "
        f"{'workload ' + scenario.workload if scenario.workload else 'traffic ' + scenario.traffic}, "
        f"link latency {scenario.link_latency or 1}"
    )
    print(f"  config: {dict(scenario.config)}")

    per_engine = {engine: run_scenario(scenario, engine) for engine in engines}
    baseline_engine = engines[0]
    baseline = per_engine[baseline_engine]
    divergences = 0
    for engine in engines:
        stats = per_engine[engine]
        differences = diff_stats(baseline_engine, baseline, engine, stats)
        verdict = "match" if not differences else "DIVERGED"
        print(
            f"  {engine:10s} {verdict:8s} packets={stats.packets_delivered} "
            f"latency={stats.average_packet_latency:.4f} drained={stats.drained}"
        )
        for line in differences:
            print(f"    {line}")
        divergences += bool(differences)

    if args.batched and "vec" in engines:
        # Re-run the scenario as three fused vec lanes and compare each lane
        # against the solo vec run — catches batching-only divergences.
        topology = scenario.build_topology()
        link_latencies = (
            {link: scenario.link_latency for link in topology.links}
            if scenario.link_latency
            else None
        )
        config = scenario.simulation_config("vec")
        trace = scenario.build_trace()
        lanes = run_batch(
            topology,
            [config] * 3,
            link_latencies=link_latencies,
            traces=[trace] * 3 if trace is not None else None,
        )
        solo = per_engine.get("vec") or run_scenario(scenario, "vec")
        for lane_index, stats in enumerate(lanes):
            differences = diff_stats("vec-solo", solo, f"batched[{lane_index}]", stats)
            verdict = "match" if not differences else "DIVERGED"
            print(f"  vec batched lane {lane_index}: {verdict}")
            for line in differences:
                print(f"    {line}")
            divergences += bool(differences)

    if divergences:
        print(f"{divergences} divergence(s) — engines are required to be bit-identical")
        return 1
    print("all engines agree")
    return 0


# ------------------------------------------------------- service subcommands
def _cmd_store_migrate(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.db)
    report = store.import_cache_dir(args.cache_dir)
    if args.as_json:
        _print_json(
            {
                "imported": report.imported,
                "already_present": report.already_present,
                "invalid": [
                    {"file": name, "reason": reason}
                    for name, reason in report.invalid
                ],
                "total": report.total,
                "store": str(store.path),
            }
        )
    else:
        print(f"migrated {args.cache_dir} -> {store.path}: {report.summary()}")
        for name, reason in report.invalid:
            print(f"  skipped {name}: {reason}")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    stats = ResultStore(args.db).stats()
    if args.as_json:
        _print_json(stats)
        return 0
    print(f"store {stats['path']} (schema v{stats['store_schema_version']})")
    print(f"  results: {stats['results']} ({stats['size_bytes']} bytes on disk)")
    for topology, count in stats["by_topology"].items():
        print(f"    {topology}: {count}")
    if stats["by_workload"]:
        print("  workloads:")
        for workload, count in stats["by_workload"].items():
            print(f"    {workload}: {count}")
    if stats["searches"]:
        print(f"  searches recorded: {stats['searches']}")
    if stats["jobs"]:
        jobs = ", ".join(f"{status}={n}" for status, n in sorted(stats["jobs"].items()))
        print(f"  queue: {jobs}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    store = ResultStore(args.db)
    filters = {
        key: getattr(args, key)
        for key in ("spec_id", "topology", "trace_id", "search_id", "scenario", "workload")
        if getattr(args, key) is not None
    }
    if args.limit is not None:
        filters["limit"] = args.limit
    results = store.result_set(**filters)
    if not args.as_json and not args.json_out and not args.csv:
        print(f"{len(results)} stored result(s) match")
    _emit_results(results, args)
    return 0


def _cmd_enqueue(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Campaign
    from repro.service.queue import WorkQueue

    campaign = Campaign.load(args.spec)
    queue = WorkQueue(args.db)
    report = queue.enqueue(campaign)
    if args.as_json:
        _print_json(
            {
                "campaign_id": report.campaign_id,
                "total": report.total,
                "enqueued": report.enqueued,
                "already_stored": report.already_stored,
                "already_queued": report.already_queued,
            }
        )
    else:
        print(report.summary())
        print(
            f"drain with: repro work --db {args.db}  "
            "(run several times or in parallel to shard)"
        )
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service.queue import DEFAULT_LEASE_SECONDS
    from repro.service.worker import run_worker

    stats = run_worker(
        args.db,
        worker_id=args.worker_id,
        lease_seconds=DEFAULT_LEASE_SECONDS if args.lease is None else args.lease,
        max_jobs=args.max_jobs,
        poll_seconds=args.poll,
        idle_exit=not args.keep_alive,
        progress=_progress_enabled() or args.verbose,
        batch_size=args.batch,
    )
    print(stats.summary())
    for spec_id, error in stats.errors:
        print(f"  failed {spec_id}: {error}", file=sys.stderr)
    return 1 if stats.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import make_server

    server = make_server(
        args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        batch_size=args.batch,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    print(
        f"repro serve: http://{host}:{port} "
        f"(store {args.db}, {args.workers} background worker(s)); Ctrl-C stops",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser declaring one flag group that several subcommands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _topology_flags(required: bool) -> argparse.ArgumentParser:
    """``--topology``/``--rows``/``--cols``/``--topology-kwargs``.

    Required for the subcommands that build one topology; ``verify`` makes
    them optional (it also takes ``--all-topologies``) on a 4x4 default grid.
    """
    group = _flags()
    grid: dict[str, Any] = {"required": True} if required else {"default": 4}
    group.add_argument(
        "--topology", required=required, default=None, help="topology registry name"
    )
    group.add_argument("--rows", type=int, **grid)
    group.add_argument("--cols", type=int, **grid)
    group.add_argument(
        "--topology-kwargs", default="{}", help="JSON generator kwargs (e.g. s_r/s_c)"
    )
    return group


def _add_command(
    subparsers: Any,
    name: str,
    help: str,
    handler: Any,
    *parents: argparse.ArgumentParser,
    **kwargs: Any,
) -> argparse.ArgumentParser:
    """Add one subcommand with the shared flag groups ``parents``."""
    command = subparsers.add_parser(name, help=help, parents=list(parents), **kwargs)
    command.set_defaults(handler=handler)
    return command


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests).

    Every flag that several subcommands share is declared once, in a parent
    parser per flag group (``--json``; ``--csv``/``--json-out``; ``--engine``/
    ``--audit-interval``; ``--sim``; ``--store``; ``--db``; the topology and
    grid flags), and attached to each subcommand that takes it.

    Returns
    -------
    argparse.ArgumentParser
        Parser with one subparser per subcommand; each sets a ``handler``
        default that :func:`main` dispatches to.

    Examples
    --------
    >>> parser = build_parser()
    >>> args = parser.parse_args(["predict", "--topology", "mesh",
    ...                           "--rows", "4", "--cols", "4"])
    >>> args.command
    'predict'
    """
    as_json = _flags()
    as_json.add_argument("--json", dest="as_json", action="store_true", help="emit JSON")
    export = _flags(as_json)
    export.add_argument("--csv", default=None, help="write results as CSV")
    export.add_argument("--json-out", default=None, help="write results as JSON")
    engine = _flags()
    engine.add_argument(
        "--engine",
        default=None,
        choices=available_engines(),
        help="simulation engine (bit-identical; default soa, the fast kernel)",
    )
    engine.add_argument(
        "--audit-interval", type=int, default=None,
        help="sanitizer audit sampling period in cycles (default 1: every cycle)",
    )
    sim = _flags(engine)
    sim.add_argument("--sim", default="{}", help="JSON SimulationConfig overrides")
    store = _flags()
    store.add_argument("--store", default=None, help="SQLite result store memoizing results")
    db = _flags()
    db.add_argument("--db", required=True, help="SQLite store file")
    topology = _topology_flags(required=True)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative experiment runner for the sparse-Hamming-graph NoC reproduction.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = _add_command(
        sub, "list-topologies", "list registered topology generators",
        _cmd_list_topologies, as_json,
    )
    p_topo.add_argument("--rows", type=int, default=0, help="grid rows for applicability check")
    p_topo.add_argument("--cols", type=int, default=0, help="grid cols for applicability check")
    for name, (help_text, _, _) in _NAME_LISTS.items():
        _add_command(sub, name, help_text, _cmd_list_names, as_json)

    p_gen = _add_command(
        sub, "gen-trace", "generate a workload trace file", _cmd_gen_trace
    )
    p_gen.add_argument("--workload", required=True, help="workload registry name")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0, help="generator RNG seed")
    p_gen.add_argument(
        "--params", default="{}", help="JSON generator kwargs (e.g. layers, collective)"
    )
    p_gen.add_argument(
        "--output", required=True, help="trace path; suffix picks .jsonl or .npz"
    )

    p_replay = _add_command(
        sub, "replay", "replay a workload trace through the simulator",
        _cmd_replay, topology, sim, as_json,
    )
    p_replay.add_argument("--trace", default=None, help="trace file (.jsonl or .npz)")
    p_replay.add_argument(
        "--workload", default=None, help="generate this workload instead of loading a file"
    )
    p_replay.add_argument("--seed", type=int, default=0, help="generator RNG seed")
    p_replay.add_argument(
        "--params", default="{}", help="JSON generator kwargs (with --workload)"
    )

    p_predict = _add_command(
        sub, "predict", "run one experiment spec",
        _cmd_predict, topology, sim, store, as_json,
    )
    p_predict.add_argument("--scenario", default=None, choices=sorted(KNC_SCENARIOS))
    p_predict.add_argument("--arch", default="{}", help="JSON ArchitecturalParameters overrides")
    p_predict.add_argument("--traffic", default="uniform")
    p_predict.add_argument("--mode", default="analytical", choices=("analytical", "simulation"))
    p_predict.add_argument(
        "--workload",
        default=None,
        help="JSON workload spec or bare name (forces simulation mode)",
    )

    # The flags that define a search; a --spec file already fixes all of
    # them, so _build_search_spec rejects any that differs from its default.
    search = _flags(sim)
    search.add_argument("--rows", type=int, default=0)
    search.add_argument("--cols", type=int, default=0)
    search.add_argument(
        "--space",
        default=json.dumps(DEFAULT_SEARCH_SPACE),
        help="JSON families block (default: Figure 6 families + 64 sampled "
        "sparse-Hamming configurations)",
    )
    search.add_argument(
        "--objective",
        default="zero_load_latency",
        choices=("zero_load_latency", "saturation_throughput", "workload_latency"),
    )
    search.add_argument(
        "--workload",
        default=None,
        help="JSON workload spec or bare name (implies --objective workload_latency)",
    )
    search.add_argument("--phase", default=None, help="optimize one named trace phase")
    search.add_argument("--scenario", default=None, choices=sorted(KNC_SCENARIOS))
    search.add_argument("--arch", default="{}", help="JSON ArchitecturalParameters overrides")
    search.add_argument("--traffic", default="uniform")
    search.add_argument(
        "--max-area-overhead", type=float, default=None, help="area budget (fraction)"
    )
    search.add_argument("--max-power", type=float, default=None, help="NoC power budget [W]")
    search.add_argument(
        "--max-link-length", type=int, default=None, help="link-length budget [tile pitches]"
    )
    search.add_argument(
        "--survivors", type=int, default=6, help="candidates entering the simulation stage"
    )
    search.add_argument("--seed", type=int, default=0, help="search-space sampling seed")
    search.add_argument(
        "--baseline", default="mesh", help="comparison topology ('none' disables)"
    )
    p_opt = _add_command(
        sub, "optimize", "search a topology design space for an objective",
        _cmd_optimize, search, store, export,
    )
    p_opt.add_argument("--spec", default=None, help="SearchSpec JSON file (overrides flags)")
    p_opt.add_argument("--parallel", type=int, default=None, help="worker processes per rung")
    p_opt.set_defaults(search_defaults=vars(search.parse_args([])))

    p_verify = _add_command(
        sub, "verify", "statically verify compiled routing tables",
        _cmd_verify, _topology_flags(required=False), as_json,
    )
    p_verify.add_argument(
        "--all-topologies",
        action="store_true",
        help="verify every registered topology (inapplicable grids fall "
        "back to the nearest applicable probe grid)",
    )

    p_lint = _add_command(
        sub, "lint", "run the determinism/consistency lint over src/repro",
        _cmd_lint, as_json,
    )
    p_lint.add_argument(
        "--root", default=None, help="source root to lint (default: the installed repro package)"
    )

    p_campaign = _add_command(
        sub, "campaign", "run a JSON campaign file",
        _cmd_campaign, engine, store, export,
    )
    p_campaign.add_argument("--spec", required=True, help="campaign JSON (specs list or grid)")
    p_campaign.add_argument("--parallel", type=int, default=None, help="worker processes")

    p_fig6 = _add_command(
        sub, "figure6", "reproduce Figure 6 panels", _cmd_figure6, store, export
    )
    p_fig6.add_argument(
        "--scenario", default="a", choices=sorted(KNC_SCENARIOS) + ["all"]
    )
    p_fig6.add_argument("--mode", default="analytical", choices=("analytical", "simulation"))
    p_fig6.add_argument("--parallel", type=int, default=None, help="worker processes")

    p_dev = sub.add_parser(
        "devtools", help="developer utilities (differential-test tooling)"
    )
    dev_sub = p_dev.add_subparsers(dest="devtools_command", required=True)
    p_replay_scn = _add_command(
        dev_sub,
        "replay-scenario",
        "rebuild one differential scenario from (seed, index) and re-run it",
        _cmd_devtools_replay_scenario,
        description=(
            "Reconstruct a randomized differential scenario from its generator "
            "seed and index (see repro.devtools.scenarios), run it under the "
            "given engines, and report any statistics divergence field by "
            "field.  Failing differential tests print the exact command to "
            "paste here."
        ),
    )
    p_replay_scn.add_argument(
        "--seed", type=int, default=2024, help="scenario-generator seed (default: 2024)"
    )
    p_replay_scn.add_argument(
        "--index", type=int, required=True, help="0-based scenario index"
    )
    p_replay_scn.add_argument(
        "--engines",
        default=None,
        help="comma-separated engine names (default: all registered engines)",
    )
    p_replay_scn.add_argument(
        "--batched",
        action="store_true",
        help="also cross-check the vec engine's batched path against solo runs",
    )

    p_store = sub.add_parser(
        "store", help="manage the durable SQLite result store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_migrate = _add_command(
        store_sub, "migrate",
        "import a legacy memoization directory of per-spec JSON files into a store",
        _cmd_store_migrate, db, as_json,
    )
    p_migrate.add_argument(
        "--cache-dir", required=True, help="legacy per-spec JSON cache directory"
    )
    _add_command(
        store_sub, "stats", "summarize a store file", _cmd_store_stats, db, as_json
    )

    p_query = _add_command(
        sub, "query", "look up stored results offline (no simulation runs)",
        _cmd_query, db, export,
    )
    p_query.add_argument("--spec-id", dest="spec_id", default=None)
    p_query.add_argument("--topology", default=None, help="topology family filter")
    p_query.add_argument("--trace-id", dest="trace_id", default=None)
    p_query.add_argument("--search-id", dest="search_id", default=None)
    p_query.add_argument("--scenario", default=None, choices=sorted(KNC_SCENARIOS))
    p_query.add_argument("--workload", default=None, help="workload name filter")
    p_query.add_argument("--limit", type=int, default=None, help="max records returned")

    p_enq = _add_command(
        sub, "enqueue", "push a campaign's specs onto a store's work queue",
        _cmd_enqueue, db, as_json,
    )
    p_enq.add_argument("--spec", required=True, help="campaign JSON (specs list or grid)")

    p_work = _add_command(
        sub, "work", "drain queued jobs (run N copies to shard a campaign)", _cmd_work, db
    )
    p_work.add_argument(
        "--worker-id", default=None, help="lease identity (default: pid-<pid>)"
    )
    p_work.add_argument(
        "--lease", type=float, default=None,
        help="lease seconds per claim (default 300; heartbeats renew it while running)",
    )
    p_work.add_argument(
        "--max-jobs", type=int, default=None, help="stop after this many jobs"
    )
    p_work.add_argument(
        "--poll", type=float, default=0.5, help="idle poll interval with --keep-alive"
    )
    p_work.add_argument(
        "--keep-alive",
        action="store_true",
        help="keep polling when the queue is empty instead of exiting",
    )
    p_work.add_argument(
        "--batch", type=int, default=1,
        help="jobs leased per claim; >1 fuses jobs that name engine 'vec' "
        "and share one network into one batched kernel (results stay "
        "bit-identical); other jobs still run one by one",
    )
    p_work.add_argument(
        "--verbose", action="store_true", help="print one line per processed job"
    )

    p_serve = _add_command(
        sub, "serve", "HTTP prediction/query API over a store", _cmd_serve, db
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="background worker threads draining enqueued misses",
    )
    p_serve.add_argument(
        "--batch", type=int, default=8,
        help="jobs each background worker leases per claim; >1 drains "
        "misses that name engine 'vec' and share one network as fused "
        "batches; other misses run one by one",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="emit per-request access-log lines"
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script.

    Parameters
    ----------
    argv:
        Argument list without the program name; ``None`` reads
        ``sys.argv[1:]`` (the console-script path).

    Returns
    -------
    int
        ``0`` on success, ``2`` on invalid input (unknown registry name,
        malformed JSON, missing campaign file) — matching the reference in
        ``README.md``.

    Examples
    --------
    >>> main(["list-traffic"])
    bit_complement
    hotspot
    neighbor
    tornado
    transpose
    uniform
    0
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "engine" in args:
            # The one place the engine flags merge into the --sim overrides.
            args.sim_overrides = _merge_engine(args)
        return args.handler(args)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: invalid JSON: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
