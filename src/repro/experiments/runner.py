"""Campaign execution: serial or process-parallel, with memoization in a store.

:class:`ExperimentRunner` turns campaigns into :class:`ResultSet` objects.
Results are memoized in a :class:`~repro.service.store.ResultStore` keyed by
:attr:`ExperimentSpec.spec_id` (a content hash of the spec), so re-running an
identical campaign — the Figure 6 reproduction, a design-space sweep — is
instant.  Specs run in *units* (a fused gang or a single spec, see
:func:`~repro.experiments.scheduler.run_unit`), in-process or fanned out
over a :class:`ProcessPoolExecutor`; in-process units take their
topologies, routing tables, physical results and workload traces from one
:class:`~repro.experiments.scheduler.SharedBuilds` scope, so specs that
differ only in traffic pattern build them once.  Each unit's results are
memoized as soon as the unit finishes, under the ``trace_id`` of the trace
the unit replayed.

Stored results and parallel-worker payloads round-trip through JSON (see
:mod:`repro.experiments.serialization`): the scalar prediction metrics and
the analytical performance details survive, while heavyweight intermediate
artifacts (the physical-model result, cycle-accurate sweep statistics) are
dropped.  When those artifacts are needed, run serially without a store —
the serial unmemoized path returns the live :class:`PredictionResult`
objects untouched.

The store is the same content-addressed SQLite file the campaign queue
workers and the ``repro serve`` API share (see :mod:`repro.service`).
"""

from __future__ import annotations

import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TextIO

from repro.analysis.pareto import (
    ParetoPoint,
    best_within_area_budget,
    latency_rank,
    pareto_front,
)
from repro.experiments.campaign import Campaign
from repro.experiments.serialization import prediction_from_dict, prediction_to_dict
from repro.experiments.spec import ExperimentSpec
from repro.experiments.scheduler import SharedBuilds, plan_gangs, run_unit
from repro.toolchain.results import PredictionResult
from repro.utils.validation import ValidationError


def _unit_payload(spec_dicts: list[dict[str, Any]]) -> dict[str, Any]:
    """Process-pool worker: run one unit, return its serialized predictions.

    The pool fans out *across* units — each worker process runs one gang's
    fused kernel or one spec — so a campaign spanning several compiled
    networks gangs each one while still using every core.
    """
    specs = [ExperimentSpec.from_dict(spec_dict) for spec_dict in spec_dicts]
    predictions, lanes, trace_ids = run_unit(specs)
    return {
        "results": [prediction_to_dict(prediction) for prediction in predictions],
        "lanes": lanes,
        "trace_ids": trace_ids,
    }


class _ProgressReporter:
    """One stderr line per completed spec (or fused gang), with a crude ETA.

    Long campaigns (and the optimizer's simulation rungs) are otherwise
    silent for minutes; the runner calls :meth:`completed` after every
    computed unit — one spec or one fused gang.
    Cache-hit specs are excluded from ``total`` up front (and reported once
    at construction), so the ETA extrapolates the mean time per *computed*
    spec over the specs actually left to compute — coarse, but honest about
    the remaining workload size, and not skewed toward zero by instant
    cache hits.
    """

    def __init__(self, total: int, num_cached: int = 0, stream: TextIO | None = None) -> None:
        self.total = total
        self.done = 0
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        if num_cached:
            tail = f"{total} to compute" if total else "nothing to compute"
            print(
                f"[repro] {num_cached} result(s) served from cache, {tail}",
                file=self.stream,
                flush=True,
            )

    def completed(
        self, specs: Sequence[ExperimentSpec], lanes: int | None = None
    ) -> None:
        """Report one computed unit: a spec, or a gang of ``len(specs)``."""
        self.done += len(specs)
        if len(specs) > 1:
            lane_note = f", {lanes} lanes" if lanes else ""
            what = f"gang of {len(specs)} specs{lane_note}: {specs[0].describe()}"
        else:
            what = specs[0].describe()
        print(
            f"[repro] {self.done}/{self.total} ({self._timing()}) {what}",
            file=self.stream,
            flush=True,
        )

    def _timing(self) -> str:
        elapsed = time.monotonic() - self._start
        remaining = (elapsed / self.done) * (self.total - self.done)
        return f"{elapsed:.1f}s elapsed, ~{remaining:.1f}s left"


@dataclass(frozen=True)
class ExperimentResult:
    """One executed spec: the spec, its prediction, and cache provenance.

    Attributes
    ----------
    spec:
        The :class:`~repro.experiments.spec.ExperimentSpec` that was run.
    prediction:
        The resulting :class:`~repro.toolchain.results.PredictionResult`.
    cached:
        ``True`` when the prediction was served from the runner's result
        store instead of being computed.

    Examples
    --------
    >>> result = ExperimentRunner().run(spec)[0]        # doctest: +SKIP
    >>> result.cached                                   # doctest: +SKIP
    False
    >>> result.prediction.area_overhead < 0.40          # doctest: +SKIP
    True
    """

    spec: ExperimentSpec
    prediction: PredictionResult
    cached: bool = False


class ResultSet:
    """Ordered collection of experiment results with tabular export and
    Pareto/compliance helpers wrapping :mod:`repro.analysis`.

    Parameters
    ----------
    results:
        :class:`ExperimentResult` entries, in campaign order.

    Examples
    --------
    Run a campaign and export/analyse the results:

    >>> from repro.experiments import Campaign, ExperimentRunner
    >>> campaign = Campaign.grid(
    ...     topologies=("mesh", "torus", "sparse_hamming"),
    ...     sizes=((8, 8),), scenarios=("a",),
    ...     topology_kwargs={"sparse_hamming": {"s_r": [4], "s_c": [2, 5]}},
    ... )
    >>> results = ExperimentRunner().run(campaign)      # doctest: +SKIP
    >>> len(results)                                    # doctest: +SKIP
    3
    >>> results.to_csv("results.csv")                   # doctest: +SKIP
    PosixPath('results.csv')
    >>> results.best_within_area_budget(0.40).topology_name  # doctest: +SKIP
    'Sparse Hamming Graph'
    >>> [point.name for point in results.pareto_front()]     # doctest: +SKIP
    ['Sparse Hamming Graph', ...]
    """

    def __init__(self, results: Iterable[ExperimentResult]) -> None:
        self.results = list(results)

    @classmethod
    def from_store(cls, store: Any, **filters: Any) -> "ResultSet":
        """Build a ResultSet from a service result-store query (no execution).

        Parameters
        ----------
        store:
            A :class:`~repro.service.store.ResultStore` or the path to its
            SQLite file.
        **filters:
            Query filters forwarded to
            :meth:`~repro.service.store.ResultStore.query` — ``topology``,
            ``trace_id``, ``search_id``, ``scenario``, ``workload``,
            ``spec_id``, ``limit``.

        Returns
        -------
        ResultSet
            One entry per matching store row (every entry ``cached=True``),
            ready for the usual export/Pareto/compliance helpers.

        Examples
        --------
        >>> results = ResultSet.from_store("results.sqlite",
        ...                                topology="mesh")  # doctest: +SKIP
        >>> results.to_csv("mesh.csv")                       # doctest: +SKIP
        """
        from repro.service.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        return store.result_set(**filters)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self.results[index]

    @property
    def predictions(self) -> list[PredictionResult]:
        """The predictions in campaign order."""
        return [result.prediction for result in self.results]

    @property
    def num_cached(self) -> int:
        """How many results were served from the result store."""
        return sum(1 for result in self.results if result.cached)

    def get(self, spec_id: str) -> ExperimentResult:
        """Result of the spec with the given ``spec_id``."""
        for result in self.results:
            if result.spec.spec_id == spec_id:
                return result
        raise KeyError(spec_id)

    def filter(self, predicate: Callable[[ExperimentResult], bool]) -> "ResultSet":
        """Subset of results satisfying ``predicate`` (as a new ResultSet)."""
        return ResultSet(result for result in self.results if predicate(result))

    def as_mapping(self) -> dict[str, PredictionResult]:
        """``{topology registry name: prediction}`` (last spec wins on clashes)."""
        return {result.spec.topology: result.prediction for result in self.results}

    # --------------------------------------------------------------- export
    def to_records(self) -> list[dict[str, Any]]:
        """Flat tabular rows: spec identity columns + the four Figure 6 metrics."""
        records = []
        for result in self.results:
            spec, prediction = result.spec, result.prediction
            records.append(
                {
                    "spec_id": spec.spec_id,
                    "topology": spec.topology,
                    "rows": spec.rows,
                    "cols": spec.cols,
                    "scenario": spec.scenario or "",
                    "traffic": spec.traffic,
                    "workload": spec.workload["name"] if spec.workload else "",
                    "performance_mode": spec.performance_mode,
                    "label": spec.label,
                    "cached": result.cached,
                    "area_overhead": prediction.area_overhead,
                    "total_area_mm2": prediction.total_area_mm2,
                    "noc_power_w": prediction.noc_power_w,
                    "zero_load_latency_cycles": prediction.zero_load_latency_cycles,
                    "saturation_throughput": prediction.saturation_throughput,
                }
            )
        return records

    def to_csv(self, path: str | Path) -> Path:
        """Write :meth:`to_records` as CSV; returns the path."""
        path = Path(path)
        records = self.to_records()
        if not records:
            path.write_text("")
            return path
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(records[0].keys()))
            writer.writeheader()
            writer.writerows(records)
        return path

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """Dump specs + predictions as JSON; to ``path`` if given, else return text."""
        payload = [
            {
                "spec": result.spec.to_dict(),
                "result": prediction_to_dict(result.prediction),
                "cached": result.cached,
            }
            for result in self.results
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if path is None:
            return text
        path = Path(path)
        path.write_text(text)
        return path

    # ------------------------------------------------------------- analysis
    def pareto_front(self) -> list[ParetoPoint]:
        """Non-dominated predictions in the four-metric comparison."""
        return pareto_front(ParetoPoint.from_prediction(p) for p in self.predictions)

    def best_within_area_budget(self, max_area_overhead: float = 0.40) -> PredictionResult | None:
        """Best prediction under the paper's design goal (see :mod:`repro.analysis`)."""
        return best_within_area_budget(self.predictions, max_area_overhead)

    def latency_rank(self, topology_name: str) -> int:
        """1-based zero-load-latency rank of ``topology_name`` in this set."""
        return latency_rank(self.predictions, topology_name)


class ExperimentRunner:
    """Executes specs and campaigns, memoizing results in a store by spec_id.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.ResultStore` (or a path to its
        SQLite file) memoizing results; ``None`` disables memoization.
    max_workers:
        Default process count for parallel runs (``run(..., parallel=...)``
        overrides per call); ``None`` or 1 runs serially.
    search_id:
        Optional search identity recorded on every result written to the
        store (``repro.optimize`` threads its
        :attr:`~repro.optimize.spec.SearchSpec.search_id` through here so
        store rows are queryable per search).

    Examples
    --------
    Memoized execution — the second run is served entirely from the store:

    >>> from repro.experiments import ExperimentRunner, ExperimentSpec
    >>> spec = ExperimentSpec(topology="mesh", rows=4, cols=4, scenario="a")
    >>> runner = ExperimentRunner(store="results.sqlite")     # doctest: +SKIP
    >>> runner.run(spec).num_cached                          # doctest: +SKIP
    0
    >>> runner.run(spec).num_cached                          # doctest: +SKIP
    1

    Fan a campaign out over four worker processes:

    >>> results = runner.run(campaign, parallel=4)           # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        store: Any = None,
        max_workers: int | None = None,
        search_id: str | None = None,
    ) -> None:
        if store is not None:
            # Imported lazily: repro.service depends on this module.
            from repro.service.store import ResultStore

            if not isinstance(store, ResultStore):
                store = ResultStore(store)
        self.store = store
        self.max_workers = max_workers
        self.search_id = search_id

    # ------------------------------------------------------------ execution
    def run(
        self,
        experiments: Campaign | ExperimentSpec | Sequence[ExperimentSpec],
        parallel: int | None = None,
        progress: bool = False,
        builds: SharedBuilds | None = None,
    ) -> ResultSet:
        """Execute a campaign (or spec, or list of specs) and return results.

        Memoized results are served from the store; the remainder runs
        serially (default) or across ``parallel`` worker processes.  Result
        order always matches the input spec order.  Cached and
        parallel-computed predictions carry only the scalar metrics and
        analytical details (``physical`` is ``None``); the serial uncached
        path returns full :class:`PredictionResult` objects.

        Specs that name ``sim={"engine": "vec"}`` and share a compiled
        network (see :func:`~repro.experiments.scheduler.gang_key`, which
        is ``None`` unless the spec's simulation config is ``batched``)
        are *ganged*: their sweeps run fused in one lane-recycled batched
        kernel instead of one at a time, with bit-identical results and
        unchanged memoization keys/payloads.  In parallel mode the process
        pool fans out across gangs (plus the remaining solo specs).

        With ``progress=True`` one line per completed (non-cached) spec or
        fused gang is written to stderr with elapsed time and a
        remaining-time estimate — ``repro campaign``/``repro optimize``
        enable this when stderr is a terminal.

        In-process units take their artifacts (topologies, routing tables,
        physical results, traces) from ``builds``, a
        :class:`~repro.experiments.scheduler.SharedBuilds` scope: a fresh
        one for this call when omitted, or the caller's, so a search shares
        its screening builds with its rungs.  Pool workers build their own.
        """
        if isinstance(experiments, ExperimentSpec):
            specs = [experiments]
        elif isinstance(experiments, Campaign):
            specs = list(experiments.specs)
        else:
            specs = list(experiments)
            for spec in specs:
                if not isinstance(spec, ExperimentSpec):
                    raise ValidationError(f"runner expects ExperimentSpec, got {spec!r}")
        if parallel is None:
            parallel = self.max_workers

        slots: list[ExperimentResult | None] = [None] * len(specs)
        pending: list[tuple[int, ExperimentSpec]] = []
        computed: dict[str, PredictionResult] = {}
        for index, spec in enumerate(specs):
            row = self.store.get(spec.spec_id) if self.store is not None else None
            if row is not None:
                slots[index] = ExperimentResult(
                    spec=spec, prediction=row.prediction(), cached=True
                )
            else:
                pending.append((index, spec))

        # Deduplicate identical pending specs so each unique spec runs once.
        unique: dict[str, ExperimentSpec] = {}
        for _, spec in pending:
            unique.setdefault(spec.spec_id, spec)

        reporter = (
            _ProgressReporter(total=len(unique), num_cached=len(specs) - len(pending))
            if progress and specs
            else None
        )

        # Specs that name the vec engine and share a compiled network fuse
        # into gangs; every other spec is a unit of its own.  Each
        # unit's results are persisted as soon as it finishes, so a crash
        # loses only the unit that was running.
        gangs = plan_gangs(unique.values())
        ganged_ids = {spec.spec_id for gang in gangs for spec in gang}
        units = gangs + [
            [spec] for spec in unique.values() if spec.spec_id not in ganged_ids
        ]

        def finished(unit, predictions, lanes, trace_ids) -> None:
            for spec, prediction, trace_id in zip(unit, predictions, trace_ids):
                computed[spec.spec_id] = prediction
                if self.store is not None:
                    self.store.put(
                        spec,
                        prediction_to_dict(prediction),
                        search_id=self.search_id,
                        trace_id=trace_id,
                    )
            if reporter is not None:
                reporter.completed(unit, lanes)

        if parallel is not None and parallel > 1 and len(unique) > 1:
            with ProcessPoolExecutor(max_workers=parallel) as pool:
                payloads = pool.map(
                    _unit_payload,
                    [[spec.to_dict() for spec in unit] for unit in units],
                )
                # pool.map yields in submission order, so results land (and
                # progress lines appear) as each next-in-order unit finishes.
                for unit, payload in zip(units, payloads):
                    predictions = [prediction_from_dict(r) for r in payload["results"]]
                    finished(unit, predictions, payload["lanes"], payload["trace_ids"])
        else:
            builds = builds if builds is not None else SharedBuilds()
            builds.hold(unique.values())
            for unit in units:
                finished(unit, *run_unit(unit, builds))

        for index, spec in pending:
            slots[index] = ExperimentResult(
                spec=spec, prediction=computed[spec.spec_id], cached=False
            )
        return ResultSet(slots)


def run_campaign(
    campaign: Campaign,
    *,
    parallel: int | None = None,
    progress: bool = False,
    store: Any = None,
) -> ResultSet:
    """One-shot convenience wrapper around :class:`ExperimentRunner`.

    Parameters
    ----------
    campaign:
        The campaign to execute.
    parallel:
        Worker process count; ``None`` or 1 runs serially.
    progress:
        Report per-spec completion lines on stderr (see
        :meth:`ExperimentRunner.run`).
    store:
        Result store (or path) memoizing the results; ``None`` disables
        memoization (see :class:`ExperimentRunner`).

    Returns
    -------
    ResultSet
        One result per spec, in campaign order.

    Examples
    --------
    >>> from repro.experiments import figure6_campaign, run_campaign
    >>> results = run_campaign(figure6_campaign("a"))   # doctest: +SKIP
    >>> len(results) > 0                                # doctest: +SKIP
    True
    """
    return ExperimentRunner(store=store).run(
        campaign, parallel=parallel, progress=progress
    )


__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "ResultSet",
    "run_campaign",
    "prediction_to_dict",
    "prediction_from_dict",
]
