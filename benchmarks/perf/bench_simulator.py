#!/usr/bin/env python
"""Simulator throughput benchmark: simulated cycles per wall-clock second.

Measures every registered simulation engine (``reference``, ``soa``,
``sanitizer``, ``vec``) on four canonical workloads (small, medium, large,
trace_replay) plus two batching cases: ``batched_sweep`` — a 24-lane
(8 rates x 3 seeds) load sweep of a 16x16 mesh run sequentially under
``reference``/``soa`` and as one fused batch under ``vec`` — and
``batched_campaign`` — 24 whole same-network ExperimentSpecs run
one-at-a-time under ``soa`` and as one gang-fused vec kernel (the gang
scheduler's cross-spec batching).  Results go to ``BENCH_simulator.json``
so the performance trajectory of the simulation kernel is tracked PR over
PR: one record per (workload, engine) pair, so the cross-engine gaps on
identical work are part of the record.

Because the engines are required to be bit-identical, the benchmark doubles
as a smoke-level equivalence check: for each workload it asserts that every
engine delivered the same packets with the same mean latency and drained
state — and for the batched sweep, that every fused ``vec`` lane's full
statistics equal its sequential ``soa`` run — failing loudly otherwise
(CI runs it on every push).

The *simulated-cycles/second* metric divides the number of kernel cycles the
run advanced through (warmup + measurement + drain, as reported by the
simulator) by the wall-clock time of ``Simulator.run()``.  Network and
routing-table construction are excluded — they are one-time costs that load
sweeps amortize across many runs.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_simulator.py
    PYTHONPATH=src python benchmarks/perf/bench_simulator.py --size small
    PYTHONPATH=src python benchmarks/perf/bench_simulator.py --engine soa
    PYTHONPATH=src python benchmarks/perf/bench_simulator.py --output BENCH_simulator.json

See ``docs/PERFORMANCE.md`` for the recorded baseline-vs-optimized numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.simulator.engine import available_engines
from repro.simulator.network import build_network
from repro.simulator.routing_tables import build_routing_tables
from repro.simulator.simulation import SimulationConfig, Simulator
from repro.topologies.mesh import MeshTopology
from repro.topologies.torus import TorusTopology
from repro.core.sparse_hamming import SparseHammingGraph
from repro.workloads import make_workload_trace

#: The benchmark matrix.  Each workload pins a topology, an injection rate and
#: the phase lengths (or, for the trace-replay case, a fixed-seed workload
#: trace); everything is fully seeded so repeated runs measure the exact same
#: simulation — and so every engine simulates the exact same work.
WORKLOADS = {
    "small": {
        "description": "4x4 mesh, moderate load",
        "topology": lambda: MeshTopology(4, 4),
        "config": SimulationConfig(
            injection_rate=0.10,
            warmup_cycles=500,
            measurement_cycles=2000,
            drain_max_cycles=3000,
            seed=7,
        ),
    },
    "medium": {
        "description": "8x8 torus, moderate load",
        "topology": lambda: TorusTopology(8, 8),
        "config": SimulationConfig(
            injection_rate=0.10,
            warmup_cycles=500,
            measurement_cycles=2000,
            drain_max_cycles=3000,
            seed=7,
        ),
    },
    "large": {
        "description": "16x16 sparse Hamming graph, light load",
        "topology": lambda: SparseHammingGraph(16, 16, s_r={4}, s_c={4}),
        "config": SimulationConfig(
            injection_rate=0.05,
            warmup_cycles=300,
            measurement_cycles=1000,
            drain_max_cycles=2000,
            seed=7,
        ),
    },
    "trace_replay": {
        "description": "8x8 mesh, DNN-inference trace replay",
        "topology": lambda: MeshTopology(8, 8),
        "config": SimulationConfig(drain_max_cycles=3000, seed=7),
        "trace": lambda: make_workload_trace(
            "dnn_inference",
            8,
            8,
            seed=7,
            layers=8,
            layer_window=256,
            activations_per_tile=4,
            fan_out=4,
        ),
    },
}

#: The batched-sweep case: one compiled network, many (rate, seed) lanes.
#: Sequential engines simulate the lanes one by one; the ``vec`` engine
#: fuses all of them into a single kernel invocation (``sweep.run_batch``).
BATCHED_SWEEP = {
    "description": "16x16 mesh, 8 rates x 3 seeds fused into one vec batch",
    "topology": lambda: MeshTopology(16, 16),
    "rates": [0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16],
    "seeds": [1, 2, 3],
    "config": SimulationConfig(
        warmup_cycles=300,
        measurement_cycles=1000,
        drain_max_cycles=2000,
    ),
}

#: The batched-campaign case: 24 whole ExperimentSpecs (one compiled
#: network, seeds 1-24) executed one-at-a-time under ``soa`` — the
#: pre-gang-scheduler campaign path — and as one gang-fused vec kernel via
#: :func:`repro.experiments.scheduler.run_gang_detailed`.  Where
#: ``batched_sweep`` batches the load points *inside* one spec, this case
#: batches *across* specs, which is what ``run_campaign``/``run_search``/
#: ``repro work --batch`` do in production.
BATCHED_CAMPAIGN = {
    "description": "24-spec trace-replay campaign (16x16 mesh) fused by the gang scheduler",
    "rows": 16,
    "cols": 16,
    "seeds": list(range(1, 25)),
    "workload": {
        "name": "dnn_inference",
        "params": {
            "layers": 8,
            "layer_window": 256,
            "activations_per_tile": 8,
            "fan_out": 8,
        },
    },
    "sim": {"drain_max_cycles": 4000},
}

#: Statistics fields every engine must agree on, workload for workload.
_EQUALITY_FIELDS = (
    "cycles_simulated",
    "packets_delivered",
    "average_packet_latency",
    "drained",
)


def run_workload(name: str, engines: list[str], repeats: int = 3) -> list[dict]:
    """Benchmark one workload on each engine; best-of-``repeats`` records."""
    workload = WORKLOADS[name]
    topology = workload["topology"]()
    base_config = workload["config"]
    trace = workload["trace"]() if "trace" in workload else None
    routing = build_routing_tables(topology)
    network = build_network(
        topology, config=base_config.network_config(), routing=routing
    )

    records = []
    for engine in engines:
        config = replace(base_config, engine=engine)
        best: dict | None = None
        for _ in range(repeats):
            simulator = Simulator(
                topology, config, routing=routing, network=network, trace=trace
            )
            start = time.perf_counter()
            stats = simulator.run()
            elapsed = time.perf_counter() - start
            cycles = simulator.cycles_simulated
            record = {
                "workload": name,
                "engine": engine,
                "description": workload["description"],
                "topology": topology.name,
                "num_tiles": topology.num_tiles,
                "injection_rate": None if trace is not None else config.injection_rate,
                "trace_packets": trace.num_packets if trace is not None else None,
                "cycles_simulated": cycles,
                "wall_seconds": round(elapsed, 4),
                "cycles_per_second": round(cycles / elapsed, 1),
                "packets_delivered": stats.packets_delivered,
                "average_packet_latency": round(stats.average_packet_latency, 4),
                "drained": stats.drained,
            }
            if best is None or record["cycles_per_second"] > best["cycles_per_second"]:
                best = record
        assert best is not None
        records.append(best)

    check_engine_equivalence(name, records)
    return records


def run_batched_sweep(engines: list[str], repeats: int = 1) -> list[dict]:
    """Benchmark the multi-point sweep: sequential engines vs one vec batch.

    The sequential baselines (``reference``, the ground-truth kernel, and
    ``soa``, the fastest single-point kernel and the default engine) run
    the 24 lanes one after another on the shared compiled network; ``vec``
    runs them as a single fused batch.  Every fused lane's statistics must
    equal its sequential ``soa`` run exactly, so this case extends the
    equivalence check to the batched path.
    """
    import dataclasses

    from repro.simulator.sweep import run_batch

    topology = BATCHED_SWEEP["topology"]()
    base = BATCHED_SWEEP["config"]
    rates = BATCHED_SWEEP["rates"]
    seeds = BATCHED_SWEEP["seeds"]
    routing = build_routing_tables(topology)
    network = build_network(topology, config=base.network_config(), routing=routing)
    lane_configs = [
        replace(base, injection_rate=rate, seed=seed)
        for seed in seeds
        for rate in rates
    ]

    def record_for(engine: str, mode: str, elapsed: float, cycles: int) -> dict:
        return {
            "workload": "batched_sweep",
            "engine": engine,
            "mode": mode,
            "description": BATCHED_SWEEP["description"],
            "topology": topology.name,
            "num_tiles": topology.num_tiles,
            "lanes": len(lane_configs),
            "cycles_simulated": cycles,
            "wall_seconds": round(elapsed, 4),
            "cycles_per_second": round(cycles / elapsed, 1),
        }

    records = []
    per_engine_stats: dict[str, list] = {}
    lane_cycles = None
    for engine in ("reference", "soa"):
        if engine not in engines:
            continue
        best = None
        for _ in range(repeats):
            simulators = [
                Simulator(
                    topology,
                    replace(config, engine=engine),
                    routing=routing,
                    network=network,
                )
                for config in lane_configs
            ]
            start = time.perf_counter()
            stats_list = [simulator.run() for simulator in simulators]
            elapsed = time.perf_counter() - start
            cycles = sum(simulator.cycles_simulated for simulator in simulators)
            lane_cycles = cycles
            record = record_for(engine, "sequential", elapsed, cycles)
            if best is None or record["wall_seconds"] < best["wall_seconds"]:
                best = record
                per_engine_stats[engine] = stats_list
        records.append(best)

    if "vec" in engines:
        if lane_cycles is None:
            # Fused lanes advance exactly the cycles of their solo runs (they
            # are bit-identical), so an untimed sequential pass counts them.
            simulators = [
                Simulator(topology, replace(config, engine="soa"), network=network)
                for config in lane_configs
            ]
            for simulator in simulators:
                simulator.run()
            lane_cycles = sum(simulator.cycles_simulated for simulator in simulators)
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            stats_list = run_batch(topology, lane_configs, network=network)
            elapsed = time.perf_counter() - start
            record = record_for("vec", "batched", elapsed, lane_cycles)
            if best is None or record["wall_seconds"] < best["wall_seconds"]:
                best = record
                per_engine_stats["vec"] = stats_list
        for engine, sequential in per_engine_stats.items():
            if engine == "vec":
                continue
            for lane, (stats_a, stats_b) in enumerate(
                zip(sequential, per_engine_stats["vec"])
            ):
                if dataclasses.asdict(stats_a) != dataclasses.asdict(stats_b):
                    raise SystemExit(
                        f"batched_sweep: vec batch lane {lane} diverged from its "
                        f"sequential {engine} run — the batched path is required "
                        "to be bit-identical"
                    )
            best[f"speedup_vs_{engine}_sequential"] = round(
                next(
                    r["wall_seconds"] for r in records if r["engine"] == engine
                )
                / best["wall_seconds"],
                2,
            )
        records.append(best)
    return records


def run_batched_campaign(engines: list[str]) -> list[dict]:
    """Benchmark a whole campaign: sequential specs vs one gang-fused kernel.

    The ``soa`` baseline runs each spec exactly as ``run_campaign`` did
    before the gang scheduler existed — one ``spec.run()`` after another,
    each building its own network and trace.  The ``vec`` run hands all 24
    specs to :func:`~repro.experiments.scheduler.run_gang_detailed`, which
    compiles the shared network once and recycles the batch lanes across
    specs.  Every spec's replay :class:`SimulationStats` must equal its
    sequential run field for field — the gang scheduler's bit-identity
    contract, asserted here on every benchmark run.
    """
    import dataclasses

    from repro.experiments.scheduler import run_gang_detailed
    from repro.experiments.spec import ExperimentSpec

    def make_specs(engine: str) -> list[ExperimentSpec]:
        return [
            ExperimentSpec(
                topology="mesh",
                rows=BATCHED_CAMPAIGN["rows"],
                cols=BATCHED_CAMPAIGN["cols"],
                performance_mode="simulation",
                sim={"engine": engine, **BATCHED_CAMPAIGN["sim"]},
                workload={**BATCHED_CAMPAIGN["workload"], "seed": seed},
                label=f"campaign-{seed}",
            )
            for seed in BATCHED_CAMPAIGN["seeds"]
        ]

    def record_for(engine: str, mode: str, elapsed: float, replays: list) -> dict:
        # Replay statistics carry the measurement window (the whole trace),
        # not the drain tail — a consistent cycle proxy for both modes.
        cycles = sum(stats.measurement_cycles for stats in replays)
        return {
            "workload": "batched_campaign",
            "engine": engine,
            "mode": mode,
            "description": BATCHED_CAMPAIGN["description"],
            "topology": "mesh",
            "num_tiles": BATCHED_CAMPAIGN["rows"] * BATCHED_CAMPAIGN["cols"],
            "specs": len(replays),
            "cycles_simulated": cycles,
            "wall_seconds": round(elapsed, 4),
            "cycles_per_second": round(cycles / elapsed, 1),
        }

    records = []
    soa_replays: list | None = None
    if "soa" in engines:
        specs = make_specs("soa")
        start = time.perf_counter()
        predictions = [spec.run() for spec in specs]
        elapsed = time.perf_counter() - start
        soa_replays = [prediction.details["replay"] for prediction in predictions]
        records.append(record_for("soa", "sequential", elapsed, soa_replays))

    if "vec" in engines:
        specs = make_specs("vec")
        start = time.perf_counter()
        predictions, lanes = run_gang_detailed(specs)
        elapsed = time.perf_counter() - start
        vec_replays = [prediction.details["replay"] for prediction in predictions]
        record = record_for("vec", "batched", elapsed, vec_replays)
        record["lanes"] = lanes
        if soa_replays is not None:
            for index, (sequential, fused) in enumerate(
                zip(soa_replays, vec_replays)
            ):
                if dataclasses.asdict(sequential) != dataclasses.asdict(fused):
                    raise SystemExit(
                        f"batched_campaign: gang-fused spec {index} diverged "
                        "from its sequential soa run — the gang scheduler is "
                        "required to be bit-identical"
                    )
            record["speedup_vs_soa_sequential"] = round(
                records[-1]["wall_seconds"] / record["wall_seconds"], 2
            )
        records.append(record)
    return records


def check_engine_equivalence(name: str, records: list[dict]) -> None:
    """Fail loudly if any engine produced different statistics on ``name``."""
    if len(records) < 2:
        return
    baseline = records[0]
    for record in records[1:]:
        for field in _EQUALITY_FIELDS:
            if record[field] != baseline[field]:
                raise SystemExit(
                    f"engine mismatch on workload {name!r}: "
                    f"{record['engine']} reports {field}={record[field]} but "
                    f"{baseline['engine']} reports {baseline[field]} — the "
                    "engines are required to be bit-identical"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size",
        choices=sorted(WORKLOADS) + ["batched_sweep", "batched_campaign", "all"],
        default="all",
        help="workload to run (default: all)",
    )
    parser.add_argument(
        "--engine",
        choices=available_engines() + ["all"],
        default="all",
        help="engine to run (default: all registered engines)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions per workload (best wins)"
    )
    parser.add_argument(
        "--output",
        default="BENCH_simulator.json",
        help="JSON output path (default: BENCH_simulator.json)",
    )
    args = parser.parse_args(argv)

    names = (
        sorted(WORKLOADS) + ["batched_sweep", "batched_campaign"]
        if args.size == "all"
        else [args.size]
    )
    engines = available_engines() if args.engine == "all" else [args.engine]
    records = []
    for name in names:
        if name == "batched_sweep":
            workload_records = run_batched_sweep(engines)
        elif name == "batched_campaign":
            workload_records = run_batched_campaign(engines)
        else:
            workload_records = run_workload(name, engines, repeats=args.repeats)
        records.extend(workload_records)
        by_engine = {record["engine"]: record for record in workload_records}
        for record in workload_records:
            mode = f" ({record['mode']})" if "mode" in record else ""
            print(
                f"{name:13s} {record['engine'] + mode:17s} {record['topology']:28s} "
                f"{record['cycles_simulated']:8d} cycles in {record['wall_seconds']:8.3f}s "
                f"-> {record['cycles_per_second']:>10.1f} cycles/s"
            )
        for fast in ("soa", "vec"):
            if "reference" in by_engine and fast in by_engine:
                if name == "batched_sweep":
                    speedup = (
                        by_engine["reference"]["wall_seconds"]
                        / by_engine[fast]["wall_seconds"]
                    )
                else:
                    speedup = (
                        by_engine[fast]["cycles_per_second"]
                        / by_engine["reference"]["cycles_per_second"]
                    )
                print(f"{name:13s} {fast}/reference speedup: {speedup:.2f}x")

    payload = {
        "benchmark": "simulator-cycles-per-second",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": records,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
