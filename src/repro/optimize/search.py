"""The two-stage topology search.

:func:`run_search` executes a :class:`~repro.optimize.spec.SearchSpec`:

1. **Analytical screening** — every candidate of the search space is scored
   with the cheap models (:func:`repro.toolchain.screening.screen_topology`:
   physical model + analytical performance, trace-weighted for workload
   objectives).  Candidates that violate the constraints are rejected here;
   candidates whose longest link already busts the link-length budget are
   rejected before any physical modelling.

2. **Successive-halving cycle-accurate evaluation** — the best ``survivors``
   screening candidates are simulated through
   :class:`~repro.experiments.runner.ExperimentRunner` in rungs of rising
   fidelity: each rung evaluates the current set (in parallel when requested,
   memoized in the result store by ``spec_id``), ranks it by the objective's
   cycle-accurate score, and keeps the better half.  Early rungs run with a
   scaled-down simulation budget; the final rung runs at the spec's full
   budget, and its best candidate is the winner.

Both stages and the baseline take their artifacts (topologies, physical
results, routing tables, the workload trace) from one
:class:`~repro.experiments.scheduler.SharedBuilds` scope, so a survivor is
simulated on exactly the objects it was screened with and nothing is built
twice.

Everything is deterministic given the spec: candidate enumeration is seeded,
simulations are seeded, and all ranking ties break on the candidate's
canonical sort key.  Because every cycle-accurate evaluation is an ordinary
``ExperimentSpec``, re-running the same search against the same result
store is served entirely from the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.experiments.runner import ExperimentRunner, prediction_to_dict
from repro.experiments.scheduler import SharedBuilds
from repro.experiments.spec import ExperimentSpec
from repro.optimize.objectives import Constraints, Objective
from repro.optimize.space import Candidate
from repro.optimize.spec import SearchSpec
from repro.simulator.simulation import SimulationConfig
from repro.toolchain.results import PredictionResult
from repro.toolchain.screening import (
    ScreeningEstimate,
    max_link_length,
    screen_topology,
)
from repro.utils.validation import ValidationError
from repro.verify.static import verify_topology

#: Fidelity floors of the scaled-down early rungs (cycles).  Only applied
#: when a budget is actually scaled down — the final rung always runs the
#: spec's exact configuration.
_MIN_WARMUP_CYCLES = 32
_MIN_MEASUREMENT_CYCLES = 64
_MIN_DRAIN_CYCLES = 256


@dataclass(frozen=True)
class ScreenRecord:
    """Screening outcome of one candidate.

    Attributes
    ----------
    candidate:
        The screened candidate.
    feasible:
        ``True`` when no constraint was violated.
    reasons:
        Human-readable violation messages (empty when feasible).
    score:
        The objective's screening score, lower is better (``None`` when the
        candidate was rejected before the cheap models ran).
    estimate:
        The full :class:`ScreeningEstimate` (``None`` for link-length
        rejections, which skip the physical model).
    verified:
        Routing-verification outcome (:func:`repro.verify.verify_topology`):
        ``True`` when the compiled tables passed, ``False`` when they were
        the rejection reason, ``None`` when the candidate never reached
        verification (it already violated a cheaper constraint).
    """

    candidate: Candidate
    feasible: bool
    reasons: tuple[str, ...] = ()
    score: float | None = None
    estimate: ScreeningEstimate | None = None
    verified: bool | None = None


@dataclass(frozen=True)
class RungEntry:
    """One cycle-accurate evaluation inside a successive-halving rung."""

    candidate: Candidate
    spec_id: str
    score: float
    cached: bool
    prediction: PredictionResult


@dataclass(frozen=True)
class RungRecord:
    """One successive-halving rung: its budget and its ranked evaluations."""

    rung: int
    sim_overrides: Mapping[str, Any]
    entries: tuple[RungEntry, ...]  # ranked, best (lowest score) first


@dataclass
class SearchResult:
    """Outcome of one :func:`run_search` execution.

    Attributes
    ----------
    spec:
        The executed :class:`SearchSpec`.
    winner:
        The best candidate of the final rung.
    winner_prediction:
        Its full-budget cycle-accurate prediction.
    winner_score:
        Its objective score (lower is better).
    baseline_prediction, baseline_score:
        Full-budget prediction and score of the spec's baseline topology
        (``None`` when the baseline is disabled).
    screening:
        One :class:`ScreenRecord` per enumerated candidate, in enumeration
        order.
    rungs:
        The successive-halving trajectory, one :class:`RungRecord` per rung.
    num_cached:
        How many cycle-accurate evaluations (rungs + baseline) were served
        from the runner's on-disk cache.
    """

    spec: SearchSpec
    winner: Candidate
    winner_prediction: PredictionResult
    winner_score: float
    baseline_prediction: PredictionResult | None
    baseline_score: float | None
    screening: list[ScreenRecord] = field(default_factory=list)
    rungs: list[RungRecord] = field(default_factory=list)
    num_cached: int = 0

    @property
    def candidates_screened(self) -> int:
        """How many candidates the analytical screening pass evaluated."""
        return len(self.screening)

    @property
    def candidates_feasible(self) -> int:
        """How many screened candidates satisfied every constraint."""
        return sum(1 for record in self.screening if record.feasible)

    @property
    def candidates_routing_rejected(self) -> int:
        """How many candidates were rejected by routing verification."""
        return sum(1 for record in self.screening if record.verified is False)

    @property
    def candidates_simulated(self) -> int:
        """How many distinct candidates reached the cycle-accurate stage."""
        if not self.rungs:
            return 0
        return len(self.rungs[0].entries)

    @property
    def simulations(self) -> int:
        """Total cycle-accurate evaluations across all rungs (baseline excluded)."""
        return sum(len(record.entries) for record in self.rungs)

    @property
    def screening_ratio(self) -> float:
        """Screened candidates per cycle-accurately simulated candidate."""
        simulated = self.candidates_simulated
        return self.candidates_screened / simulated if simulated else float("inf")

    @property
    def speedup_over_baseline(self) -> float | None:
        """Winner-vs-baseline improvement factor on the objective (>1 = better).

        For latency objectives this is ``baseline latency / winner latency``;
        for the throughput objective it is ``winner / baseline`` throughput.
        ``None`` without a baseline.
        """
        if self.baseline_prediction is None or self.baseline_score is None:
            return None
        objective = self.spec.build_objective()
        if objective.metric == "saturation_throughput":
            base = self.baseline_prediction.saturation_throughput
            win = self.winner_prediction.saturation_throughput
            return win / base if base > 0 else float("inf")
        if self.winner_score <= 0:
            return float("inf")
        return self.baseline_score / self.winner_score

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the whole search (trajectory included)."""
        return {
            "search_id": self.spec.search_id,
            "spec": self.spec.to_dict(),
            "winner": {
                "topology": self.winner.topology,
                "topology_kwargs": dict(self.winner.topology_kwargs),
                "score": self.winner_score,
                "prediction": prediction_to_dict(self.winner_prediction),
            },
            "baseline": (
                {
                    "topology": self.spec.baseline,
                    "topology_kwargs": dict(self.spec.baseline_kwargs),
                    "score": self.baseline_score,
                    "prediction": prediction_to_dict(self.baseline_prediction),
                }
                if self.baseline_prediction is not None
                else None
            ),
            "speedup_over_baseline": self.speedup_over_baseline,
            "counts": {
                "screened": self.candidates_screened,
                "feasible": self.candidates_feasible,
                "routing_rejected": self.candidates_routing_rejected,
                "simulated_candidates": self.candidates_simulated,
                "simulations": self.simulations,
                "cached": self.num_cached,
                "screening_ratio": self.screening_ratio,
            },
            "screening": [
                {
                    "topology": record.candidate.topology,
                    "topology_kwargs": dict(record.candidate.topology_kwargs),
                    "feasible": record.feasible,
                    "reasons": list(record.reasons),
                    "score": record.score,
                    "verified": record.verified,
                }
                for record in self.screening
            ],
            "rungs": [
                {
                    "rung": record.rung,
                    "sim_overrides": dict(record.sim_overrides),
                    "entries": [
                        {
                            "topology": entry.candidate.topology,
                            "topology_kwargs": dict(entry.candidate.topology_kwargs),
                            "spec_id": entry.spec_id,
                            "score": entry.score,
                            "cached": entry.cached,
                        }
                        for entry in record.entries
                    ],
                }
                for record in self.rungs
            ],
        }


def _rung_sim_overrides(
    base: SimulationConfig, scale: int, workload_mode: bool
) -> dict[str, Any]:
    """Budget overrides of one rung (empty at full fidelity).

    Trace replays have a fixed measurement window (the trace duration), so
    their only scalable budget is the drain bound; synthetic sweeps scale all
    three phase lengths.  Floors keep even the cheapest rung meaningful.
    """
    if scale <= 1:
        return {}
    if workload_mode:
        return {
            "drain_max_cycles": max(_MIN_DRAIN_CYCLES, base.drain_max_cycles // scale)
        }
    return {
        "warmup_cycles": max(_MIN_WARMUP_CYCLES, base.warmup_cycles // scale),
        "measurement_cycles": max(
            _MIN_MEASUREMENT_CYCLES, base.measurement_cycles // scale
        ),
        "drain_max_cycles": max(_MIN_DRAIN_CYCLES, base.drain_max_cycles // scale),
    }


def _screen(
    spec: SearchSpec,
    candidates: list[Candidate],
    objective: Objective,
    constraints: Constraints,
    builds: SharedBuilds,
) -> list[ScreenRecord]:
    """Stage 1: constraint checks + cheap-model scoring of every candidate.

    Each candidate's artifacts come from ``builds`` and stay held only while
    it can still be a survivor: on return, ``builds`` holds the best
    ``spec.survivors`` feasible candidates by ``(score, sort_key)``.
    """
    base_sim = SimulationConfig(**{**dict(spec.sim), "traffic": spec.traffic})
    records: list[ScreenRecord] = []
    best: list[tuple[tuple, ExperimentSpec]] = []
    out: ExperimentSpec | None = None
    for candidate in candidates:
        # Build through the candidate's ExperimentSpec so screening sees
        # exactly the graph the cycle-accurate stage will simulate.
        candidate_spec = spec.candidate_spec(candidate)
        builds.hold([candidate_spec])
        if out is not None:
            # Released only now, so what it shares with this candidate (the
            # workload trace) is not dropped and rebuilt in between.
            builds.release(out)
        out = candidate_spec
        topology = builds.topology(candidate_spec)
        link_violation = constraints.link_length_violation(max_link_length(topology))
        if link_violation is not None:
            records.append(
                ScreenRecord(
                    candidate=candidate,
                    feasible=False,
                    reasons=(link_violation,),
                )
            )
            continue
        routing = builds.routing(candidate_spec)
        estimate = screen_topology(
            topology,
            builds.physical(candidate_spec),
            traffic=spec.traffic,
            trace=builds.trace(candidate_spec),
            packet_size_flits=base_sim.packet_size_flits,
            router_pipeline_cycles=base_sim.router_pipeline_cycles,
            routing=routing,
        )
        reasons = tuple(constraints.violations(estimate))
        verified = None
        if not reasons:
            # Routing verification runs last: it is the most expensive
            # screen, so only candidates that survived every cheaper
            # constraint pay for it.  A candidate whose compiled tables
            # fail (escape-CDG cycle, unreachable pair, ...) must never
            # reach the cycle-accurate stage — it could deadlock the
            # simulation or silently produce garbage statistics.
            report = verify_topology(
                topology, config=base_sim.network_config(), routing=routing
            )
            verified = report.ok
            if not report.ok:
                reasons = tuple(
                    f"routing verification: [{violation.rule}] {violation.message}"
                    for violation in report.violations[:3]
                )
        record = ScreenRecord(
            candidate=candidate,
            feasible=not reasons,
            reasons=reasons,
            score=objective.screening_score(estimate),
            estimate=estimate,
            verified=verified,
        )
        records.append(record)
        if record.feasible:
            best.append(((record.score, candidate.sort_key), candidate_spec))
            best.sort(key=lambda entry: entry[0])
            out = best.pop()[1] if len(best) > spec.survivors else None
    if out is not None:
        builds.release(out)
    return records


def run_search(
    spec: SearchSpec,
    runner: ExperimentRunner | None = None,
    *,
    parallel: int | None = None,
    progress: bool = False,
    store: Any = None,
) -> SearchResult:
    """Execute a :class:`SearchSpec` and return the :class:`SearchResult`.

    Parameters
    ----------
    spec:
        The search to run.
    runner:
        The :class:`ExperimentRunner` executing the cycle-accurate stage;
        built from ``store`` when omitted.
    parallel:
        Worker processes per rung (each rung's evaluations are independent).
    progress:
        Report per-evaluation completion lines on stderr during the
        cycle-accurate rungs (see
        :meth:`~repro.experiments.runner.ExperimentRunner.run`).
    store:
        Result store (:class:`~repro.service.store.ResultStore` or path)
        memoizing the cycle-accurate stage (ignored when ``runner`` is
        given; ``None`` disables memoization).  Every rung evaluation is
        recorded under this search's
        :attr:`~repro.optimize.spec.SearchSpec.search_id`, so the store can
        be queried per search afterwards.

    Raises
    ------
    ValidationError
        When the search space is empty for the grid or no candidate
        satisfies the constraints.
    """
    objective = spec.build_objective()
    constraints = spec.build_constraints()
    candidates = spec.build_space().enumerate_candidates()
    if not candidates:
        raise ValidationError(
            "the search space contains no applicable candidates for "
            f"a {spec.rows}x{spec.cols} grid"
        )
    if runner is None:
        runner = ExperimentRunner(store=store, search_id=spec.search_id)
    # One build scope serves screening, the rungs and the baseline, so each
    # candidate's topology, physical result and routing tables (and the
    # workload trace) are built once.  The baseline is held throughout: it
    # runs last.
    builds = SharedBuilds()
    baseline = spec.baseline_candidate()
    if baseline is not None:
        builds.hold([spec.candidate_spec(baseline)])

    # ---------------------------------------------------- stage 1: screening
    screening = _screen(spec, candidates, objective, constraints, builds)
    feasible = [record for record in screening if record.feasible]
    if not feasible:
        raise ValidationError(
            "no candidate satisfies the constraints; loosen the budgets or "
            "widen the search space"
        )
    feasible.sort(key=lambda record: (record.score, record.candidate.sort_key))
    survivors = [record.candidate for record in feasible[: spec.survivors]]

    # ------------------------------------- stage 2: successive halving rungs
    base_sim = SimulationConfig(**dict(spec.sim)) if spec.sim else SimulationConfig()
    workload_mode = objective.workload is not None
    num_rungs = max(1, math.ceil(math.log2(len(survivors)))) if len(survivors) > 1 else 1
    num_cached = 0
    rungs: list[RungRecord] = []
    current = survivors
    for rung in range(num_rungs):
        scale = 2 ** (num_rungs - 1 - rung)
        overrides = _rung_sim_overrides(base_sim, scale, workload_mode)
        specs = [
            spec.candidate_spec(candidate, sim_overrides=overrides)
            for candidate in current
        ]
        results = runner.run(specs, parallel=parallel, progress=progress, builds=builds)
        num_cached += results.num_cached
        entries = [
            RungEntry(
                candidate=candidate,
                spec_id=result.spec.spec_id,
                score=objective.prediction_score(result.prediction),
                cached=result.cached,
                prediction=result.prediction,
            )
            for candidate, result in zip(current, results)
        ]
        entries.sort(key=lambda entry: (entry.score, entry.candidate.sort_key))
        rungs.append(
            RungRecord(rung=rung, sim_overrides=overrides, entries=tuple(entries))
        )
        keep = max(1, (len(entries) + 1) // 2) if rung < num_rungs - 1 else 1
        current = [entry.candidate for entry in entries[:keep]]
        for entry in entries[keep:]:
            builds.release(spec.candidate_spec(entry.candidate))

    final_best = rungs[-1].entries[0]

    # ------------------------------------------------------------- baseline
    baseline_prediction: PredictionResult | None = None
    baseline_score: float | None = None
    if baseline is not None:
        baseline_results = runner.run(
            [spec.candidate_spec(baseline)], parallel=None, builds=builds
        )
        num_cached += baseline_results.num_cached
        baseline_prediction = baseline_results[0].prediction
        baseline_score = objective.prediction_score(baseline_prediction)

    return SearchResult(
        spec=spec,
        winner=final_best.candidate,
        winner_prediction=final_best.prediction,
        winner_score=final_best.score,
        baseline_prediction=baseline_prediction,
        baseline_score=baseline_score,
        screening=screening,
        rungs=rungs,
        num_cached=num_cached,
    )


__all__ = [
    "RungEntry",
    "RungRecord",
    "ScreenRecord",
    "SearchResult",
    "run_search",
]
