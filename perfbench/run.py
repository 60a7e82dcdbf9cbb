"""End-to-end benchmark of the four user entry points (see BENCHMARK.json).

Usage::

    python3 perfbench/run.py --workload predict_sim --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
metadata (machine, versions, seed, per-metric quartiles and sample counts).
Any failed operation or output mismatch makes the exit code 1.

``--trace 0`` runs timed iterations of a second or so each until
``--seconds`` would be exceeded (at least one; a library workload keeps five
of the seconds for reading its results back afterwards) and reports the
end-to-end metrics.  The host is a few cores of a shared machine whose speed
drifts by up to ~1.9x over seconds to minutes, so the compute times
(``setup_s``, ``wall_s``, ``miss_drain_s``) are measured in two ways that
discount it:

* *Fastest per call.*  Every iteration records the self time of each call
  into the program's layers (``benchtrace.STAGES``: topology build,
  physical and analytical models, routing tables, kernels, store writes).
  These calls repeat in the same order in every iteration, so the run's
  time is the sum over calls of each call's fastest run, plus the fastest
  remainder outside them (``benchtrace.fastest_sum``).  A slow stretch of
  the host then has to land on the same call in every iteration to count.
  If the iterations made different calls, the fastest iteration is used.
* *Reference-host seconds.*  Before each cold start and iteration, two fixed
  calibration loops run (``benchstats.calibration_runs``: one bound by the
  interpreter, one by numpy).  Their fastest runs give the host's speed
  during this run relative to a reference host, and the three compute
  times are scaled by it.  On the reference host the scale is 1; the
  metadata line records the scale and the unscaled host seconds.

Over seven-minute stretches of back-to-back iterations on a 2-vCPU VM,
the spread (quartile distance over median) of the fastest iteration of each
~15 s window was 0.14-0.17; fastest per call gave 0.07-0.16, and scaling
that 0.07-0.08.  The other metrics are medians (or percentiles) over the
run's samples:

* ``setup_s`` — cold start: a fresh interpreter importing the program and
  building the workload's inputs (``serve``: spawning ``repro serve`` until
  ``/healthz`` answers); median of seven, scaled.
* ``wall_s`` — seconds of the entry-point call (``serve``: the fastest
  whole iteration, unscaled, most of it the 2 s open-loop schedule).
* ``miss_drain_s`` — from submitting work until every result is stored
  (library workloads: the entry-point call, so the same as ``wall_s``;
  ``serve``: five POSTed misses).
* ``hit_p50_ms`` / ``hit_p90_ms`` — latency of ``GET /predict`` reads of
  stored results from ``repro serve``: ``serve`` sends 30 per iteration in
  an open loop at 15/s, each timed from its due time; a library run sends
  100 back to back after its iterations.  The p90 is the highest
  percentile with at least ten samples beyond it.
* ``hit_capacity_rps`` — hits per second back to back: ``serve`` runs a
  0.5 s closed loop on two keep-alive connections; for the library
  workloads it is the inverse of the mean latency of their 100 hits.
* ``peak_rss_mb`` — peak resident memory (``serve``: the server's VmHWM).

``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics: ``<layer>_s`` is the self time of that layer's spans
(their duration minus their child spans), ``_calls`` and the other counts
are totals, ``optimize.screen_s`` / ``optimize.rungs_s`` are stage totals
including the layers below, ``unattributed_s`` is iteration time outside
every span and ``tracing.overhead_s`` is traced minus untraced wall time.
The spans are written as Chrome trace-event JSON under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
OUTPUT = ROOT / ".perfbench"
COLD_STARTS = 7
SERVER_ID_OFFSET = 10**9
#: Runs of the calibration loops before each cold start and iteration.
CALIBRATION_RUNS = 5


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine_metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class HostSpeed:
    """The fastest calibration runs of this benchmark run, and their scale."""

    def __init__(self) -> None:
        self.fastest = [float("inf"), float("inf")]

    def probe(self) -> None:
        from benchstats import calibration_runs

        for _ in range(CALIBRATION_RUNS):
            for kind, seconds in enumerate(calibration_runs()):
                self.fastest[kind] = min(self.fastest[kind], seconds)

    @property
    def scale(self) -> float:
        """Factor from this run's host seconds to reference-host seconds:
        the geometric mean of the two loops' speed relative to the reference."""
        from benchstats import CALIBRATION_REFERENCE_S

        (interpreter, array), (ref_interpreter, ref_array) = self.fastest, CALIBRATION_REFERENCE_S
        return math.sqrt(ref_interpreter / interpreter * ref_array / array)


def measure(workload, seconds: float, host: HostSpeed) -> list:
    """Timed iterations until the next one would end past ``seconds``."""
    iterations = []
    start = time.perf_counter()
    while True:
        host.probe()
        iterations.append(workload.iterate())
        elapsed = time.perf_counter() - start
        if len(iterations) < workload.min_iterations:
            continue
        if elapsed + elapsed / len(iterations) > seconds:
            return iterations


def fastest(iterations, seconds_of) -> tuple[float, str]:
    """A compute time of the run (see the module docstring) and its method."""
    from benchtrace import fastest_sum

    timed = [(seconds_of(it), it.stage_calls) for it in iterations]
    if all(calls is not None for _, calls in timed):
        estimate = fastest_sum(timed)
        if estimate is not None:
            return estimate, "fastest_per_call"
    return min(seconds for seconds, _ in timed), "fastest_iteration"


def end_to_end(iterations, read_back, setups, wall_is_drain, scale) -> tuple[dict, dict, dict]:
    from benchstats import percentile, summary, supported_percentile

    hits = [lat for it in iterations for lat in it.hit_latencies_s]
    capacities = [it.hit_capacity_rps for it in iterations if it.hit_capacity_rps is not None]
    if read_back is not None:
        hits += read_back.latencies_s
        capacities.append(read_back.capacity_rps)
    if (supported_percentile(len(hits)) or 0) < 90:
        raise RuntimeError(f"{len(hits)} hits cannot support a p90")
    rss = [it.peak_rss_mb for it in iterations if it.peak_rss_mb is not None]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    samples = {
        "setup_s": setups,
        "wall_s": [it.wall_s for it in iterations],
        "miss_drain_s": [it.miss_drain_s for it in iterations],
        "hit_ms": [lat * 1e3 for lat in hits],
        "hit_capacity_rps": capacities,
        "peak_rss_mb": rss,
    }
    drain, drain_method = fastest(iterations, lambda it: it.miss_drain_s)
    # ``serve``'s stage calls run next to its open loop, not inside a sum.
    wall, wall_method = (
        (drain, drain_method) if wall_is_drain else (min(samples["wall_s"]), "fastest_iteration")
    )
    setup = statistics.median(setups)
    methods = {
        "scale": scale,
        "host_seconds": {"setup_s": setup, "wall_s": wall, "miss_drain_s": drain},
        "wall_s": {"method": wall_method, "fastest_iteration": min(samples["wall_s"])},
        "miss_drain_s": {
            "method": drain_method,
            "fastest_iteration": min(samples["miss_drain_s"]),
        },
    }
    metrics = {
        "setup_s": _metric(setup * scale, "s"),
        # ``serve``'s wall time is set by its open-loop schedule, not the host.
        "wall_s": _metric(wall * scale if wall_is_drain else wall, "s"),
        "miss_drain_s": _metric(drain * scale, "s"),
        "hit_p50_ms": _metric(percentile(samples["hit_ms"], 50), "ms"),
        "hit_p90_ms": _metric(percentile(samples["hit_ms"], 90), "ms"),
        "hit_capacity_rps": _metric(statistics.median(samples["hit_capacity_rps"]), "1/s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }
    return metrics, {name: summary(values) for name, values in samples.items()}, methods


def traced(workload, seed: int) -> tuple[dict, list, list[str]]:
    """One untraced then one traced iteration; per-layer metrics and report."""
    import benchtrace
    from benchstats import percentile

    begin = time.perf_counter()
    untraced = workload.iterate()
    untraced_wall = time.perf_counter() - begin
    recorder = benchtrace.Recorder()
    uninstall = benchtrace.install(recorder)
    try:
        with recorder.span("bench.iteration") as root:
            result = workload.iterate(recorder)
    finally:
        uninstall()
    spans = recorder.spans
    exported = benchtrace.export(recorder)
    counters = dict(exported["counters"])
    processes = {1: spans}
    server = result.extra.get("server_trace")
    server_spans = []
    if server is not None:
        server_spans = benchtrace.load_spans(server, SERVER_ID_OFFSET)
        processes[2] = server_spans
        for name, value in server["counters"].items():
            counters[name] = counters.get(name, 0) + value
    everything = spans + server_spans
    metrics = benchtrace.layer_metrics(everything, counters)

    main_selfs = benchtrace.self_times(s for s in spans if s.thread == root.thread)
    unattributed = main_selfs.pop("bench.iteration", 0.0)
    traced_wall = root.end - root.start
    predict_gets = [
        s.end - s.start
        for s in server_spans
        if s.name == "api.handler" and s.attrs.get("route") == "/predict"
        and s.attrs.get("method") == "GET"
    ]
    client_gets = result.extra.get("predict_service_s", [])
    lateness = result.extra.get("lateness_s", [])
    metrics.update(
        {
            "sim_cycles_per_s": untraced.sim_cycles / untraced.wall_s,
            "unattributed_s": unattributed,
            "tracing.wall_s": traced_wall,
            "tracing.overhead_s": traced_wall - untraced_wall,
            "http.client_wait_s": sum(client_gets) - sum(predict_gets) if client_gets else 0.0,
            "loadgen.late_p90_ms": percentile(lateness, 90) * 1e3 if lateness else 0.0,
        }
    )

    OUTPUT.mkdir(exist_ok=True)
    trace_path = OUTPUT / f"trace-{workload.name}-seed{seed}.json"
    origin = min(s.start for s in everything)
    trace_path.write_text(json.dumps(benchtrace.chrome_trace(processes, origin)))

    calls = Counter(s.name for s in everything)
    lines = [
        f"traced iteration {traced_wall:.3f} s; tracing overhead "
        f"{metrics['tracing.overhead_s']:+.3f} s (traced minus untraced iteration)",
        "self time on the iteration thread (these + unattributed = traced wall):",
    ]
    for name, value in sorted(main_selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:28s} {value:9.4f} s {calls[name]:7d} calls")
    lines.append(f"  {'unattributed':28s} {unattributed:9.4f} s")
    lines.append(f"  {'total':28s} {sum(main_selfs.values()) + unattributed:9.4f} s")
    others = benchtrace.self_times(s for s in everything if s.thread != root.thread)
    if others:
        lines.append("busy self time on other threads and the server process (overlapping):")
        for name, value in sorted(others.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:28s} {value:9.4f} s {calls[name]:7d} calls")
    if predict_gets:
        lines.append(
            f"per hit: server handler p50 {metrics['api.handler_p50_ms']:.3f} ms, "
            f"client-observed p50 {percentile(result.hit_latencies_s, 50) * 1e3:.3f} ms"
        )
    for name, count in counters.items():
        if name.startswith("tracing.hook_errors."):
            lines.append(f"warning: {count} failed count(s) after {name[20:]} calls")
    lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
    return metrics, [untraced, result], lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import benchloads

    if args.workload not in benchloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so that every server this run started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()
    OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT))
    workload = benchloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        report: list[str] = []
        quartiles: dict = {}
        methods: dict = {}
        read_back = None
        if args.trace:
            metrics, iterations, report = traced(workload, args.seed)
        else:
            import benchtrace

            host = HostSpeed()
            setups = []
            for _ in range(COLD_STARTS):
                host.probe()
                setups.append(workload.cold_start())
            workload.stages = benchtrace.StageTimer()
            uninstall = workload.stages.install()
            try:
                iterations = measure(workload, args.seconds - workload.read_back_s, host)
            finally:
                uninstall()
                workload.stages = None
            read_back = workload.read_back()
            metrics, quartiles, methods = end_to_end(
                iterations, read_back, setups, workload.wall_is_drain, host.scale
            )
        failures = [f for it in iterations for f in it.failures]
        if read_back is not None:
            failures.extend(read_back.failures)
        digests = sorted({it.digest for it in iterations})
        if len(digests) > 1:
            failures.append(f"iterations disagree on their outputs: {digests}")
        pinned = benchloads.PINNED_DIGESTS.get(workload.name)
        if pinned and (args.seed == 0 or workload.seed_independent) and digests != [pinned]:
            failures.append(f"output digest {digests} differs from the pinned {pinned}")
        failures.extend(workload.final_checks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The digest comparison and the final checks count as operations too.
    attempted = sum(it.attempted for it in iterations) + 2
    if read_back is not None:
        attempted += read_back.attempted
    meta = {
        **machine_metadata(),
        "numpy": numpy.__version__,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(iterations),
        "digest": digests,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "samples": quartiles,
        "compute_time_method": methods,
    }
    if getattr(workload, "fill_s", None):
        meta["store_fill_s"] = workload.fill_s
    for line in report:
        print(line)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics
                if not args.trace
                else {name: _metric(value, _unit(name)) for name, value in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
