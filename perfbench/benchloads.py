"""The benchmark's four workloads, each driving one public entry point.

Every iteration starts with empty program caches — a fresh
:class:`~repro.experiments.ExperimentRunner` and a fresh store file —
because CLI users pay that cost on every invocation, and all work runs
serially.  Results are computed and written to the store (*misses*) and
read back with ``GET /predict`` from ``repro serve`` on that store (*hits*).
``serve`` sends its hits in an open loop, as independent users do, next to
a burst of misses.  A library workload's iteration is one entry-point call.
Iterations are kept to about a second so that a run holds many (``run.py``
says how they are combined).  After its last iteration a library
run reads that iteration's results back once, back to back on one
keep-alive connection; that read traffic is synthetic (no user of these
entry points reads results at a set rate).  It goes through the server, not
the store in-process, because an in-process read (~1 ms, bound by SQLite
system calls) swings ~1.8x with the load on a shared host, so its median
moved 25-40% from one run to the next.

* ``predict_sim`` — the paper's headline zero-load-latency and saturation
  search on an 8x8 sparse Hamming graph, on the default engine.
* ``customize`` — ``run_search`` over five topology families on an 8x8
  grid with a DNN-trace objective: analytical screening then replay rungs.
* ``trace_gang`` — 4 small DNN-trace specs on one 16x16 sparse Hamming
  graph, fused by the gang scheduler into one batched ``vec`` kernel.
* ``serve`` — ``repro serve --workers 1`` over a pre-filled store: an
  open loop of hits next to five analytical 8x16 misses, then a closed loop
  of hits.

Inputs are a pure function of the run seed.  The simulated results have no
accuracy figure: the repository holds no BookSim2 reference numbers for
these runs, so the model is unvalidated here; the checks below pin the
outputs themselves.
"""

from __future__ import annotations

import json
import os
import random
import select
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.optimize as optimize  # called through the module so spans see it
from repro.analysis import design_space_campaign
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.serialization import prediction_to_dict
from repro.service.store import ResultStore

from benchstats import canonical_json, digest
from benchtrace import Recorder, StageTimer, maybe_span
from loadgen import HttpClient, closed_loop, open_loop

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

#: Digest of every payload an iteration produces at seed 0 (``predict_sim``
#: takes no seed, so its digest is checked at every seed).
PINNED_DIGESTS = {
    "predict_sim": "3280c7cd587fb519",
    "customize": "2e4d77491ed3d31a",
    "trace_gang": "4d95ef00808d39b8",
    "serve": "bf010430ac1472c4",
}

#: ``serve``'s open-loop hits per iteration.
HITS = 30
#: Hits of a library run's read-back: exactly ten samples beyond the p90.
READ_BACK_HITS = 100
#: Seconds a library run keeps for its read-back after the timed iterations.
READ_BACK_S = 5.0
#: ``serve``'s open-loop hit rate (requests per second).  The two seconds
#: of hits outlast the misses' drain, so it runs next to hits throughout.
HIT_RATE = 15.0
#: Length of the ``serve`` closed-loop capacity phase (seconds, 2 clients).
CAPACITY_SECONDS = 0.5
#: Misses POSTed per ``serve`` iteration; every iteration of a run POSTs
#: the same ones to a fresh copy of the store, so each of them misses.
MISSES = 5
#: Seconds between two ``/stats`` polls while the misses drain.
POLL_S = 0.02
#: Give up on a phase that has not finished after this long (seconds).
PHASE_TIMEOUT = 90.0


def program_env() -> dict[str, str]:
    """Environment of child processes: the program imported from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class IterationResult:
    """Measurements and output checks of one iteration."""

    wall_s: float
    miss_drain_s: float
    hit_latencies_s: list[float]
    hit_capacity_rps: float | None
    sim_cycles: int
    digest: str
    attempted: int
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float | None = None
    #: :class:`~benchtrace.StageTimer` record of the miss drain, if timed.
    stage_calls: list[tuple[str, float]] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class ReadBack:
    """Hits that read a library run's results back after its iterations."""

    latencies_s: list[float]
    capacity_rps: float
    attempted: int
    failures: list[str]


class Workload:
    """One benchmark workload: its inputs and how to run one iteration."""

    name = ""
    #: ``True`` when the inputs do not depend on the seed.
    seed_independent = False
    #: Seconds of the run kept for :meth:`read_back` after the iterations.
    read_back_s = 0.0
    #: Iterations a run needs, whatever ``--seconds`` says.
    min_iterations = 1
    #: ``True`` when ``wall_s`` times the miss drain (so it is one quantity).
    wall_is_drain = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._files = 0
        #: Installed by the caller to time the program's stage calls.
        self.stages: StageTimer | None = None

    def fresh_path(self, stem: str) -> Path:
        self._files += 1
        return self.workdir / f"{stem}-{self._files}.sqlite"

    def setup(self) -> None:
        """One-time preparation before any timing."""

    def cold_start(self) -> float:
        """One set-up sample: seconds from a fresh interpreter to ready."""
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "benchloads.py"), self.name, str(self.seed)],
            env=program_env(),
        )
        # A blocking wait returns when the child exits; ``wait(timeout=)``
        # polls every 50 ms, which would round every sample up to that step.
        killer = threading.Timer(PHASE_TIMEOUT, process.kill)
        killer.start()
        try:
            returncode = process.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, process.args)
        return elapsed

    def iterate(self, recorder: Recorder | None = None) -> IterationResult:
        raise NotImplementedError

    def read_back(self) -> ReadBack | None:
        """Hits after the timed iterations, for workloads without their own."""
        return None

    def final_checks(self) -> list[str]:
        """Output checks run once per run, after the timed iterations."""
        return []


class LibraryWorkload(Workload):
    """A workload that calls a library entry point in this process."""

    read_back_s = READ_BACK_S
    wall_is_drain = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.last: tuple[Path, list[ExperimentSpec], list[dict]] | None = None

    def compute(self, store: Path) -> tuple[list[ExperimentSpec], list[dict], int, list[str]]:
        """Run the entry point; returns stored specs, payloads, cycles, failures."""
        raise NotImplementedError

    def iterate(self, recorder: Recorder | None = None) -> IterationResult:
        store = self.fresh_path("store")
        if self.stages is not None:
            self.stages.take()
        start = time.perf_counter()
        specs, payloads, cycles, failures = self.compute(store)
        wall_s = time.perf_counter() - start
        self.last = (store, specs, payloads)
        stage_calls = self.stages.take() if self.stages is not None else None
        return IterationResult(
            wall_s=wall_s,
            # The entry-point call is what computes and stores every result.
            miss_drain_s=wall_s,
            hit_latencies_s=[],
            hit_capacity_rps=None,
            sim_cycles=cycles,
            digest=digest(payloads),
            attempted=1,
            failures=failures,
            stage_calls=stage_calls,
        )

    def read_back(self) -> ReadBack:
        """Back-to-back hits on the results the last iteration stored."""
        store, specs, payloads = self.last
        expected = {spec.spec_id: canonical_json(p) for spec, p in zip(specs, payloads)}
        rng = random.Random(f"{self.seed}-hits")
        spec_ids = [rng.choice(specs).spec_id for _ in range(READ_BACK_HITS)]
        hits, latencies = [], []
        server = ServerProcess(store)
        try:
            client = HttpClient(server.port)
            try:
                for spec_id in spec_ids:
                    begin = time.perf_counter()
                    reply = client.request("GET", f"/predict?spec_id={spec_id}")
                    latencies.append(time.perf_counter() - begin)
                    hits.append((spec_id, *reply))
            finally:
                client.close()
        finally:
            server.stop()
        return ReadBack(
            latencies_s=latencies,
            # One caller back to back: the inverse of the mean hit latency.
            capacity_rps=len(latencies) / sum(latencies),
            attempted=READ_BACK_HITS,
            failures=check_hits(hits, expected),
        )


class PredictSim(LibraryWorkload):
    """``repro predict`` in simulation mode on the default engine."""

    name = "predict_sim"
    seed_independent = True
    # No ``engine`` key: this measures the default path users get.  The
    # short windows and drain limit keep one search near 0.5 s.
    SPEC = ExperimentSpec(
        "sparse_hamming",
        8,
        8,
        scenario="a",
        performance_mode="simulation",
        sim={"warmup_cycles": 30, "measurement_cycles": 50, "drain_max_cycles": 120},
    )

    def compute(self, store):
        result = ExperimentRunner(store=store).run(self.SPEC)[0]
        failures = ["predict_sim result came from the store"] if result.cached else []
        warmup = self.SPEC.build_simulation_config().warmup_cycles
        cycles = sum(
            warmup + stats.measurement_cycles
            for _, stats in result.prediction.details["sweep_points"]
        )
        return [self.SPEC], [prediction_to_dict(result.prediction)], cycles, failures


class Customize(LibraryWorkload):
    """``repro optimize``: screening plus successive-halving replay rungs."""

    name = "customize"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.search = optimize.SearchSpec(
            rows=8,
            cols=8,
            scenario="c",
            space={
                "mesh": {},
                "torus": {},
                "folded_torus": {},
                "flattened_butterfly": {},
                "sparse_hamming": {"max_configurations": 2},
            },
            objective={
                "metric": "workload_latency",
                "workload": {
                    "name": "dnn_inference",
                    "seed": seed,
                    "params": {
                        "layers": 8,
                        "layer_window": 128,
                        "activations_per_tile": 3,
                        "fan_out": 4,
                    },
                },
            },
            constraints={"max_area_overhead": 0.40},
            sim={"drain_max_cycles": 5000},
            survivors=2,
            baseline="mesh",
        )

    def compute(self, store):
        search = self.search
        result = optimize.run_search(search, store=store)
        specs, payloads, failures, cycles = [], [], [], 0
        entries = [
            (search.candidate_spec(entry.candidate, sim_overrides=record.sim_overrides), entry)
            for record in result.rungs
            for entry in record.entries
        ]
        for spec, entry in entries:
            if spec.spec_id != entry.spec_id:
                failures.append(f"rung entry {entry.spec_id} does not match its spec")
            replay = entry.prediction.details.get("replay")
            cycles += replay.measurement_cycles if replay is not None else 0
            specs.append(spec)
            payloads.append(prediction_to_dict(entry.prediction))
        specs.append(search.candidate_spec(search.baseline_candidate()))
        payloads.append(prediction_to_dict(result.baseline_prediction))
        return specs, payloads, cycles, failures


class TraceGang(LibraryWorkload):
    """A 4-spec DNN-trace campaign fused into one gang on the vec kernel."""

    name = "trace_gang"
    SPECS = 4
    SIM = {"engine": "vec", "drain_max_cycles": 4000}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        trace_seeds = random.Random(f"{seed}-traces").sample(range(2**31), self.SPECS)
        self.specs = [
            ExperimentSpec(
                "sparse_hamming",
                16,
                16,
                topology_kwargs={"s_r": [4], "s_c": [4]},
                performance_mode="simulation",
                sim=self.SIM,
                workload={
                    "name": "dnn_inference",
                    "seed": trace_seed,
                    "params": {
                        "layers": 8,
                        "layer_window": 128,
                        "activations_per_tile": 2,
                        "fan_out": 4,
                    },
                },
            )
            for trace_seed in trace_seeds
        ]
        self.replays: dict[str, Any] = {}

    def compute(self, store):
        results = ExperimentRunner(store=store).run(self.specs)
        failures = [f"{r.spec.spec_id} came from the store" for r in results if r.cached]
        self.replays = {r.spec.spec_id: r.prediction.details["replay"] for r in results}
        cycles = sum(replay.measurement_cycles for replay in self.replays.values())
        return self.specs, [prediction_to_dict(r.prediction) for r in results], cycles, failures

    def final_checks(self) -> list[str]:
        # One spec's gang lane must equal its solo run on the reference kernel.
        spec = random.Random(f"{self.seed}-solo").choice(self.specs)
        solo = spec.with_overrides(sim={**self.SIM, "engine": "reference"}).run()
        if solo.details["replay"] != self.replays.get(spec.spec_id):
            return [f"gang replay of {spec.spec_id} differs from its solo reference run"]
        return []


def copy_store(source: Path, target: Path) -> None:
    """Copy a store file consistently (SQLite's online backup)."""
    with closing(sqlite3.connect(source)) as src, closing(sqlite3.connect(target)) as dst:
        src.backup(dst)


def check_hits(hits: list[tuple[str, int, bytes]], expected: dict[str, str]) -> list[str]:
    """Each 200 ``result`` must equal the stored payload, byte for byte."""
    return [
        f"hit on {spec_id} returned {status} or a payload other than the stored one"
        for spec_id, status, body in hits
        if status != 200 or canonical_json(json.loads(body)["result"]) != expected[spec_id]
    ]


class ServerProcess:
    """``repro serve --workers 1`` in a child process, on a free port.

    With ``launch=(mode, out)`` the server runs under ``serve_launcher.py``,
    which writes its spans (``trace``) or stage calls (``stages``) to ``out``.
    """

    def __init__(self, db: Path, launch: tuple[str, Path] | None = None) -> None:
        args = ["serve", "--db", str(db), "--port", "0", "--workers", "1"]
        if launch is None:
            command = [sys.executable, "-m", "repro.experiments.cli", *args]
        else:
            mode, out = launch
            command = [sys.executable, str(PERFBENCH / "serve_launcher.py"), mode, str(out), *args]
        self.log = open(db.with_suffix(".log"), "wb")
        self.process = subprocess.Popen(
            command, env=program_env(), stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            self.port = self._read_port()
            client = HttpClient(self.port)
            try:
                status, _ = client.request("GET", "/healthz")
            finally:
                client.close()
            if status != 200:
                raise RuntimeError(f"server health check returned {status}")
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + PHASE_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise TimeoutError("server did not report its address")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before reporting its address")
            line += chunk
        address = line.split(b"http://", 1)[1].split(b" ", 1)[0]
        return int(address.rsplit(b":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell without job control starts background
        # commands with SIGINT ignored, and the server would inherit that.
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Serve(Workload):
    """``repro serve``: open-loop hits next to a burst of misses, then capacity."""

    name = "serve"
    # Five iterations give at least 150 open-loop hits (15 beyond the p90).
    min_iterations = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.stored_specs = design_space_campaign(
            8, 8, scenario="a", max_configurations=60, seed=seed
        ).specs
        # The same configurations at every seed, POSTed in a seed-dependent
        # order: their analytical cost differs several-fold from one
        # configuration to the next, and the drain time should not.
        self.miss_specs = design_space_campaign(
            8, 16, scenario="c", max_configurations=MISSES
        ).specs
        random.Random(f"{seed}-misses").shuffle(self.miss_specs)
        rng = random.Random(f"{seed}-hits")
        self.hit_ids = [rng.choice(self.stored_specs).spec_id for _ in range(HITS)]
        self.template = workdir / "template.sqlite"
        self.expected: dict[str, str] = {}
        self.setup_payloads: list[dict] = []
        self.fill_s = 0.0

    def setup(self) -> None:
        start = time.perf_counter()
        ExperimentRunner(store=self.template).run(self.stored_specs)
        self.fill_s = time.perf_counter() - start
        store = ResultStore(self.template)
        for spec in self.stored_specs:
            payload = store.get(spec.spec_id).result
            self.setup_payloads.append(payload)
            self.expected[spec.spec_id] = canonical_json(payload)

    def cold_start(self) -> float:
        db = self.fresh_path("cold")
        copy_store(self.template, db)
        start = time.perf_counter()
        server = ServerProcess(db)
        try:
            return time.perf_counter() - start
        finally:
            server.stop()

    def iterate(self, recorder: Recorder | None = None) -> IterationResult:
        db = self.fresh_path("serve")
        copy_store(self.template, db)
        launch = None
        if recorder is not None:
            launch = ("trace", db.with_suffix(".trace.json"))
        elif self.stages is not None:
            launch = ("stages", db.with_suffix(".stages.json"))
        with maybe_span(recorder, "server.start"):
            server = ServerProcess(db, launch)
        try:
            result = self._exercise(server, recorder)
            result.peak_rss_mb = server.peak_rss_mb()
        finally:
            with maybe_span(recorder, "server.stop"):
                server.stop()
        if launch is not None:
            dump = json.loads(launch[1].read_bytes())
            if recorder is not None:
                result.extra["server_trace"] = dump
            else:
                # Only the worker runs stages, and only for the misses.
                result.stage_calls = [tuple(call) for call in dump]
        return result

    def _exercise(self, server: ServerProcess, recorder: Recorder | None) -> IterationResult:
        failures: list[str] = []
        drain: dict[str, float] = {}
        miss_errors: list[BaseException] = []

        def misses() -> None:
            client = HttpClient(server.port)
            try:
                drain["start"] = time.perf_counter()
                for spec in self.miss_specs:
                    with maybe_span(recorder, "http.miss_post"):
                        status, body = client.request("POST", "/predict", spec.to_json().encode())
                    if status != 202 or not json.loads(body).get("enqueued"):
                        failures.append(f"miss POST of {spec.spec_id} returned {status}")
                while time.perf_counter() - drain["start"] < PHASE_TIMEOUT:
                    with maybe_span(recorder, "http.poll"):
                        status, body = client.request("GET", "/stats")
                    queue = json.loads(body)["queue"] if status == 200 else {}
                    if queue.get("done", 0) + queue.get("failed", 0) >= MISSES:
                        drain["end"] = time.perf_counter()
                        if queue["failed"]:
                            failures.append(f"{queue['failed']} miss job(s) failed")
                        return
                    time.sleep(POLL_S)
                failures.append("misses did not drain in time")
            except BaseException as error:  # re-raised in the iteration thread
                miss_errors.append(error)
            finally:
                client.close()

        start = time.perf_counter()
        miss_thread = threading.Thread(target=misses, daemon=True)
        miss_thread.start()

        client = HttpClient(server.port)

        def send_hit(index: int) -> tuple[str, int, bytes]:
            spec_id = self.hit_ids[index]
            with maybe_span(recorder, "http.hit"):
                return (spec_id, *client.request("GET", f"/predict?spec_id={spec_id}"))

        try:
            with maybe_span(recorder, "loadgen.open_loop"):
                opened = open_loop(send_hit, HIT_RATE, HITS)
        finally:
            client.close()
        miss_thread.join(timeout=PHASE_TIMEOUT + 30.0)
        if miss_thread.is_alive():
            raise TimeoutError("miss phase did not finish")
        if miss_errors:
            raise miss_errors[0]

        clients: list[HttpClient] = []
        capacity_hits: list[tuple[str, int, bytes]] = []

        def make_sender(index: int):
            capacity_client = HttpClient(server.port)
            clients.append(capacity_client)
            rng = random.Random(f"{self.seed}-capacity-{index}")

            def send(_: int) -> None:
                spec_id = rng.choice(self.stored_specs).spec_id
                hit = capacity_client.request("GET", f"/predict?spec_id={spec_id}")
                capacity_hits.append((spec_id, *hit))

            return send

        try:
            with maybe_span(recorder, "loadgen.closed_loop"):
                capacity = closed_loop(make_sender, clients=2, duration=CAPACITY_SECONDS)
        finally:
            for capacity_client in clients:
                capacity_client.close()
        failures.extend(check_hits(opened.outcomes + capacity_hits, self.expected))

        miss_payloads = []
        fetch_s = []
        client = HttpClient(server.port)
        try:
            for spec in self.miss_specs:
                begin = time.perf_counter()
                with maybe_span(recorder, "http.fetch"):
                    status, body = client.request("GET", f"/predict?spec_id={spec.spec_id}")
                fetch_s.append(time.perf_counter() - begin)
                if status != 200:
                    failures.append(f"stored miss {spec.spec_id} returned {status}")
                    continue
                miss_payloads.append(json.loads(body)["result"])
        finally:
            client.close()
        end = time.perf_counter()
        return IterationResult(
            wall_s=end - start,
            miss_drain_s=drain.get("end", end) - drain["start"],
            hit_latencies_s=opened.latencies,
            hit_capacity_rps=capacity.throughput,
            sim_cycles=0,
            digest=digest(self.setup_payloads + miss_payloads),
            attempted=2 * MISSES + HITS + capacity.completed + 1,
            failures=failures,
            extra={
                "lateness_s": opened.lateness,
                # Client send -> reply of every GET /predict.
                "predict_service_s": opened.service + capacity.latencies + fetch_s,
            },
        )


WORKLOADS = {cls.name: cls for cls in (PredictSim, Customize, TraceGang, Serve)}


if __name__ == "__main__":
    # Cold start of a library workload: import the program, build the inputs.
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path("."))
