"""Layer spans recorded from the benchmark's side of each call.

:func:`install` wraps the public functions and methods through which one
layer of the program calls the next (topology build, physical model,
routing tables, analytical model, kernels, runner, store, queue, HTTP
handler ...) so that each call records a span: name, start, end, parent
span and thread.  Nothing under ``src/`` is modified; the wrappers replace
module attributes and class attributes at run time and
:func:`install` returns the function that puts the originals back.

A span's *self time* is its duration minus the part of it covered by its
child spans, so the self times of one thread's spans add up to the time
that thread spent inside them.  A layer that is missing from the program
(renamed or removed by a later change) is skipped and reports zero.

:class:`StageTimer` is the light version used in every measured iteration:
it keeps only the self time of each call to a few short, repeated
:data:`STAGES`, which :func:`fastest_sum` combines across iterations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from benchstats import percentile


@dataclass
class Span:
    """One timed call (times are ``time.perf_counter`` seconds)."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)


class Recorder:
    """In-memory span and counter store, safe to share between threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.kept: dict[str, list[Any]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[Span]:
        """Open spans of the calling thread, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self.stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=self.clock(),
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any):
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def keep(self, name: str, value: Any) -> None:
        """Hold ``value`` for a measurement made after the run (cheap now)."""
        with self._lock:
            self.kept[name].append(value)

    def inside(self, name: str) -> Span | None:
        """The innermost open span of the calling thread named ``name``."""
        for span in reversed(self.stack()):
            if span.name == name:
                return span
        return None


@contextmanager
def maybe_span(recorder: Recorder | None, name: str, **attrs: Any):
    """``recorder.span(...)`` when tracing, a no-op otherwise."""
    if recorder is None:
        yield None
    else:
        with recorder.span(name, **attrs) as opened:
            yield opened


# ------------------------------------------------------------------ hooks
# Each hook runs after the wrapped call returns, outside its span, and only
# records cheap facts; costly measurements happen in :func:`export`.


def _after_routing(recorder: Recorder, args, kwargs, result) -> None:
    topology = args[0] if args else kwargs.get("topology")
    recorder.keep("routing_tables.topologies", topology)


def _after_simulator_run(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("engine.run_cycles", int(args[0].cycles_simulated))


def _after_saturation(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("sweep.points", len(result.points))


def _after_batched(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("engine.lanes", len(result))


def _after_trace(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("workloads.trace_packets", int(result.num_packets))


def _after_runner(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("runner.cache_hits", result.num_cached)
    recorder.count("runner.computed", len(result) - result.num_cached)


def _after_encode(recorder: Recorder, args, kwargs, result) -> None:
    recorder.keep("serialization.payloads", result)


def _after_claim(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("queue.claims" if result else "queue.empty_claims")


def _after_fail(recorder: Recorder, args, kwargs, result) -> None:
    recorder.count("worker.failed")


def _after_spec_run(recorder: Recorder, args, kwargs, result) -> None:
    # A spec run solo inside a gang (diverging link latencies) or inside a
    # multi-spec worker batch (fused attempt failed) is a fallback.
    execute = recorder.inside("worker.execute")
    if recorder.inside("scheduler.gang") is not None or (
        execute is not None and execute.attrs.get("batch", 1) > 1
    ):
        recorder.count("scheduler.solo_fallbacks")


def _execute_attrs(args, kwargs) -> dict[str, Any]:
    specs = args[0] if args else kwargs.get("specs", ())
    return {"batch": len(specs)}


def _handler_attrs(args, kwargs) -> dict[str, Any]:
    handler = args[0]
    return {"route": handler.path.split("?", 1)[0].rstrip("/"), "method": handler.command}


#: (module, attribute or Class.method, span name, after-hook, attrs-hook)
HOOKS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.topologies.registry", "make_topology", "topologies.build", None, None),
    ("repro.physical.model", "NoCPhysicalModel.evaluate", "physical.evaluate", None, None),
    ("repro.simulator.routing_tables", "build_routing_tables", "routing_tables.build",
     _after_routing, None),
    ("repro.toolchain.analytical", "analytical_performance", "analytical.perf", None, None),
    ("repro.toolchain.screening", "screen_topology", "screening.screen", None, None),
    ("repro.toolchain.predict", "PredictionToolchain.predict", "toolchain.predict", None, None),
    ("repro.verify.static", "verify_topology", "verify.routing", None, None),
    ("repro.optimize.search", "run_search", "optimize.search", None, None),
    ("repro.optimize.search", "_screen", "optimize.screen", None, None),
    ("repro.simulator.network", "build_network", "network.build", None, None),
    ("repro.simulator.simulation", "Simulator.run", "engine.run", _after_simulator_run, None),
    ("repro.simulator.sweep", "find_saturation_throughput", "sweep.saturation",
     _after_saturation, None),
    ("repro.simulator.sweep", "replay_trace", "sweep.replay", None, None),
    ("repro.simulator.engine.vec", "run_batched", "engine.batched", _after_batched, None),
    ("repro.experiments.scheduler", "run_gang_detailed", "scheduler.gang", None, None),
    ("repro.experiments.spec", "ExperimentSpec.run", "spec.run", _after_spec_run, None),
    ("repro.workloads.generators", "workload_trace_from_mapping", "workloads.trace",
     _after_trace, None),
    ("repro.experiments.runner", "ExperimentRunner.run", "runner.run", _after_runner, None),
    ("repro.experiments.serialization", "prediction_to_dict", "serialization.encode",
     _after_encode, None),
    ("repro.service.store", "ResultStore.put", "store.put", None, None),
    ("repro.service.store", "ResultStore.get", "store.get", None, None),
    ("repro.service.queue", "WorkQueue.enqueue", "queue.enqueue", None, None),
    ("repro.service.queue", "WorkQueue.claim_batch", "queue.claim", _after_claim, None),
    ("repro.service.queue", "WorkQueue.complete", "queue.complete", None, None),
    ("repro.service.queue", "WorkQueue.fail", "queue.fail", _after_fail, None),
    ("repro.service.worker", "_execute_specs", "worker.execute", None, _execute_attrs),
    ("repro.service.api", "ServiceHandler.do_GET", "api.handler", None, _handler_attrs),
    ("repro.service.api", "ServiceHandler.do_POST", "api.handler", None, _handler_attrs),
)


def _wrap(recorder: Recorder, original: Callable, name: str, after, attrs_of) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, **(attrs_of(args, kwargs) if attrs_of else {}))
        try:
            result = original(*args, **kwargs)
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            recorder.close(span)
        if after is not None:
            try:
                after(recorder, args, kwargs, result)
            except Exception:  # a changed return shape must not break the run
                recorder.count(f"tracing.hook_errors.{name}")
        return result

    return wrapper


def _patch(targets: Iterable[tuple], make_wrapper: Callable[..., Callable]) -> Callable[[], None]:
    """Replace each available ``(module, attribute, *args)`` target with
    ``make_wrapper(original, *args)``; returns the function that undoes it."""
    restore: list[tuple[Any, str, Any]] = []
    for module_name, attribute, *args in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                continue
            setattr(owner, method, make_wrapper(original, *args))
            restore.append((owner, method, original))
            continue
        original = getattr(module, attribute, None)
        if original is None:
            continue
        wrapper = make_wrapper(original, *args)
        # ``from x import f`` copies the reference, so replace it everywhere.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    restore.append((loaded, key, original))

    def uninstall() -> None:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every available hook; returns the function that unwraps them."""
    return _patch(HOOKS, lambda original, *args: _wrap(recorder, original, *args))


# ------------------------------------------------------- fastest per call
#: Calls timed in every measured iteration.  Each is short (milliseconds to
#: ~0.2 s) and repeats in the same order in every iteration of a run, so the
#: fastest of its runs is rarely one that a slow stretch of a shared host
#: landed on.  The batched kernel is a single long call, so its per-cycle
#: steps are timed instead.
STAGES: tuple[tuple[str, str], ...] = (
    ("repro.topologies.registry", "make_topology"),
    ("repro.physical.model", "NoCPhysicalModel.evaluate"),
    ("repro.simulator.routing_tables", "build_routing_tables"),
    ("repro.toolchain.analytical", "analytical_performance"),
    ("repro.verify.static", "verify_topology"),
    ("repro.simulator.network", "build_network"),
    ("repro.simulator.simulation", "Simulator.run"),
    ("repro.workloads.generators", "workload_trace_from_mapping"),
    ("repro.simulator.engine.vec", "_VecKernel._deliver_events"),
    ("repro.simulator.engine.vec", "_VecKernel._create_packets"),
    ("repro.simulator.engine.vec", "_VecKernel._inject_flits"),
    ("repro.simulator.engine.vec", "_VecKernel._route"),
    ("repro.service.store", "ResultStore.put"),
)


class StageTimer:
    """Self time of every :data:`STAGES` call, in the order the calls end.

    A call's self time excludes the timed calls nested in it, so the self
    times of one iteration never count a second twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: list[tuple[str, float]] = []
        self._local = threading.local()

    def _wrap(self, original: Callable, name: str) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = self.clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls.append((name, elapsed - nested))

        return wrapper

    def install(self) -> Callable[[], None]:
        """Wrap every available stage; returns the function that unwraps them."""
        return _patch(((module, attr, attr) for module, attr in STAGES), self._wrap)

    def take(self) -> list[tuple[str, float]]:
        """The calls recorded since the last ``take``."""
        calls, self.calls = self.calls, []
        return calls


def fastest_sum(iterations: list[tuple[float, list[tuple[str, float]]]]) -> float | None:
    """Seconds of an iteration made of each part's fastest run.

    Each iteration is ``(seconds, calls)`` with ``calls`` its
    :class:`StageTimer` record.  The k-th call to a stage in one iteration
    is matched with the k-th call to it in every other; the result sums the
    fastest run of every call and the fastest remainder (the iteration's
    seconds outside timed calls).  ``None`` when the iterations did not make
    the same calls.
    """
    parts = []
    for seconds, calls in iterations:
        ordinal: Counter[str] = Counter()
        timed = {}
        for name, self_seconds in calls:
            timed[(name, ordinal[name])] = self_seconds
            ordinal[name] += 1
        parts.append((seconds - sum(timed.values()), timed))
    keys = parts[0][1].keys()
    if any(timed.keys() != keys for _, timed in parts):
        return None
    rest = min(remainder for remainder, _ in parts)
    return rest + sum(min(timed[key] for _, timed in parts) for key in keys)


# --------------------------------------------------------------- analysis
def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the union of child intervals."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def _topology_identity(topology: Any) -> tuple:
    return (topology.name, topology.rows, topology.cols, frozenset(topology.links))


def export(recorder: Recorder) -> dict[str, Any]:
    """JSON-able spans plus the counters and post-run measurements."""
    counters = dict(recorder.counters)
    topologies = recorder.kept.get("routing_tables.topologies", [])
    counters["routing_tables.distinct"] = len({_topology_identity(t) for t in topologies})
    counters["serialization.payload_bytes"] = sum(
        len(json.dumps(payload, sort_keys=True))
        for payload in recorder.kept.get("serialization.payloads", [])
    )
    return {
        "spans": [
            [s.id, s.parent, s.name, s.start, s.end, s.thread, s.attrs] for s in recorder.spans
        ],
        "counters": counters,
    }


def load_spans(exported: dict[str, Any], id_offset: int = 0) -> list[Span]:
    """Spans of an :func:`export` dump, ids shifted by ``id_offset``."""
    return [
        Span(
            id=sid + id_offset,
            parent=None if parent is None else parent + id_offset,
            name=name,
            start=start,
            end=end,
            thread=thread,
            attrs=attrs,
        )
        for sid, parent, name, start, end, thread, attrs in exported["spans"]
    ]


#: Span names whose self time is a per-layer metric (``<name>_s``).
LAYER_SPANS = (
    "topologies.build", "physical.evaluate", "routing_tables.build", "analytical.perf",
    "screening.screen", "verify.routing", "engine.run", "sweep.saturation", "network.build",
    "engine.batched", "scheduler.gang", "workloads.trace", "sweep.replay", "runner.run",
    "serialization.encode", "store.put", "store.get", "api.handler", "queue.enqueue",
    "queue.claim", "queue.complete", "worker.execute",
)

#: Span names whose call count is a per-layer metric (``<metric name>``).
CALL_COUNTS = {
    "topologies.build_calls": "topologies.build",
    "physical.evaluate_calls": "physical.evaluate",
    "routing_tables.build_calls": "routing_tables.build",
    "analytical.perf_calls": "analytical.perf",
    "verify.routing_calls": "verify.routing",
    "engine.run_runs": "engine.run",
    "network.build_calls": "network.build",
    "scheduler.gangs": "scheduler.gang",
    "workloads.trace_calls": "workloads.trace",
    "sweep.replay_calls": "sweep.replay",
    "store.put_calls": "store.put",
    "store.get_calls": "store.get",
    "api.handler_requests": "api.handler",
}

#: Counters reported as they are.
COUNTERS = (
    "engine.run_cycles", "sweep.points", "engine.lanes", "scheduler.solo_fallbacks",
    "workloads.trace_packets", "runner.cache_hits", "runner.computed",
    "serialization.payload_bytes", "queue.claims", "queue.empty_claims", "worker.failed",
)


def _ancestors(span: Span, by_id: dict[int, Span]) -> Iterable[Span]:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent is not None else None


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from spans (of any number of processes) and counters."""
    selfs = self_times(spans)
    names = Counter(span.name for span in spans)
    metrics: dict[str, float] = {f"{name}_s": selfs.get(name, 0.0) for name in LAYER_SPANS}
    metrics.update({metric: names.get(name, 0) for metric, name in CALL_COUNTS.items()})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    distinct = counters.get("routing_tables.distinct", 0)
    metrics["routing_tables.rebuild_ratio"] = (
        names.get("routing_tables.build", 0) / distinct if distinct else 0.0
    )
    # The optimizer's two stages are reported inclusive of the layers below.
    by_id = {span.id: span for span in spans}
    metrics["optimize.screen_s"] = sum(
        s.end - s.start for s in spans if s.name == "optimize.screen"
    )
    metrics["optimize.rungs_s"] = sum(
        s.end - s.start
        for s in spans
        if s.name == "runner.run"
        and any(a.name == "optimize.search" for a in _ancestors(s, by_id))
    )
    handler_ms = [
        (s.end - s.start) * 1e3
        for s in spans
        if s.name == "api.handler"
        and s.attrs.get("route") == "/predict"
        and s.attrs.get("method") == "GET"
    ]
    metrics["api.handler_p50_ms"] = percentile(handler_ms, 50) if handler_ms else 0.0
    return metrics


def chrome_trace(processes: dict[int, list[Span]], origin: float) -> dict[str, Any]:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
    events = []
    for pid, spans in processes.items():
        threads: dict[int, int] = {}
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "args": {"id": span.id, "parent": span.parent, **span.attrs},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
