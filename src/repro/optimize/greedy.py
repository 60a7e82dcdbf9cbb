"""The paper's customization strategy for the sparse Hamming graph (Section V-a).

The paper's five-step strategy:

1. start with the simplest sparse Hamming graph, the mesh
   (``S_R = {}``, ``S_C = {}``);
2. use the prediction toolchain to estimate performance and cost of the
   current configuration on the target architecture;
3. compare the estimates against the design goals to identify insufficiencies;
4. follow the design principles to change ``S_R`` / ``S_C`` so that the
   insufficiencies are addressed (e.g. add skip links to reduce the diameter
   and improve throughput);
5. repeat from step 2 until the designer is satisfied.

:func:`customize_sparse_hamming` automates the loop as a greedy search: in
every iteration each candidate change (adding one skip distance to ``S_R`` or
``S_C``, or removing one) becomes an :class:`~repro.experiments.ExperimentSpec`
derived from the caller's base spec, the step's configurations that no
earlier step evaluated run as one
:meth:`~repro.experiments.runner.ExperimentRunner.run` call (memoized in the
runner's store), and the change that best improves the objective
while staying inside the area budget is applied.  The objective matches the
paper's evaluation: maximise saturation throughput (priority 1), minimise
zero-load latency (priority 2), never exceed the area-overhead budget (40% in
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config_space import candidate_col_skips, candidate_row_skips
from repro.core.sparse_hamming import SparseHammingGraph
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import ExperimentSpec
from repro.toolchain.results import PredictionResult
from repro.utils.validation import ValidationError, check_in_range, check_type


@dataclass(frozen=True)
class CustomizationGoal:
    """Design goal for the customization search.

    Attributes
    ----------
    max_area_overhead:
        Upper bound on the NoC area overhead (fraction of total chip area);
        the paper uses 0.40.
    throughput_weight, latency_weight:
        Relative priority of the two performance metrics in the scalarised
        objective.  The defaults encode the paper's "throughput first, latency
        second" priority: a configuration with higher throughput always wins,
        latency only breaks near-ties.
    min_throughput_gain:
        Minimum saturation-throughput improvement (absolute, in fraction of
        capacity) for a candidate to be considered better on priority 1;
        below this the latency tie-break applies.
    """

    max_area_overhead: float = 0.40
    throughput_weight: float = 1.0
    latency_weight: float = 0.05
    min_throughput_gain: float = 0.005

    def __post_init__(self) -> None:
        check_in_range("max_area_overhead", self.max_area_overhead, 0.0, 1.0)

    def is_feasible(self, prediction: PredictionResult) -> bool:
        """Return ``True`` if ``prediction`` respects the area budget."""
        return prediction.area_overhead <= self.max_area_overhead

    def is_improvement(self, old: PredictionResult, new: PredictionResult) -> bool:
        """Return ``True`` if ``new`` is better than ``old`` under the goal.

        Priority 1 is saturation throughput; if the throughput change is
        within ``min_throughput_gain`` the zero-load latency decides.
        """
        gain = new.saturation_throughput - old.saturation_throughput
        if gain > self.min_throughput_gain:
            return True
        if gain < -self.min_throughput_gain:
            return False
        return new.zero_load_latency_cycles < old.zero_load_latency_cycles

    def score(self, prediction: PredictionResult) -> float:
        """Scalarised objective used to rank candidate configurations."""
        return (
            self.throughput_weight * prediction.saturation_throughput
            - self.latency_weight * prediction.zero_load_latency_cycles / 100.0
        )


@dataclass(frozen=True)
class CustomizationStep:
    """Record of one iteration of the customization loop."""

    iteration: int
    action: str
    s_r: frozenset[int]
    s_c: frozenset[int]
    area_overhead: float
    noc_power_w: float
    zero_load_latency_cycles: float
    saturation_throughput: float

    def describe(self) -> str:
        """One-line human-readable summary of the step."""
        return (
            f"iter {self.iteration}: {self.action:<18s} "
            f"S_R={sorted(self.s_r)} S_C={sorted(self.s_c)}  "
            f"area={self.area_overhead * 100:5.1f}%  "
            f"power={self.noc_power_w:6.2f} W  "
            f"lat={self.zero_load_latency_cycles:6.1f} cyc  "
            f"thr={self.saturation_throughput * 100:5.1f}%"
        )


@dataclass
class CustomizationResult:
    """Outcome of the customization search."""

    topology: SparseHammingGraph
    prediction: PredictionResult
    steps: list[CustomizationStep] = field(default_factory=list)
    evaluations: int = 0

    @property
    def s_r(self) -> frozenset[int]:
        """Final row skip distances."""
        return self.topology.s_r

    @property
    def s_c(self) -> frozenset[int]:
        """Final column skip distances."""
        return self.topology.s_c


def customize_sparse_hamming(
    base: ExperimentSpec,
    goal: CustomizationGoal | None = None,
    max_iterations: int = 32,
    allow_removals: bool = True,
    runner: ExperimentRunner | None = None,
) -> CustomizationResult:
    """Run the five-step customization loop of Section V-a.

    Parameters
    ----------
    base:
        A ``sparse_hamming`` spec naming everything but the configuration:
        grid, scenario, architecture overrides, traffic, performance mode,
        simulation overrides and, in ``topology_kwargs``, optionally
        ``endpoints_per_tile``.  It must not set ``s_r``/``s_c``: the loop
        always starts from the mesh.
    goal:
        Design goal; defaults to the paper's goal (max throughput, min
        latency, at most 40% area overhead).
    max_iterations:
        Safety bound on the number of greedy iterations.
    allow_removals:
        Also consider removing previously added skip distances (lets the
        search back out of choices that became unattractive).
    runner:
        The :class:`ExperimentRunner` evaluating each step (memoized across
        calls when it has a store); a store-less runner when omitted.  A
        configuration a removal move returns to is never sent to it twice
        in one call.

    Returns
    -------
    CustomizationResult
        Final configuration, its prediction, and the per-iteration trace.
    """
    check_type("base", base, ExperimentSpec)
    if base.topology != "sparse_hamming":
        raise ValidationError(
            f"customization needs a 'sparse_hamming' base spec, got {base.topology!r}"
        )
    if "s_r" in base.topology_kwargs or "s_c" in base.topology_kwargs:
        raise ValidationError(
            "the base spec must not set s_r/s_c: customization starts from the mesh"
        )
    check_type("max_iterations", max_iterations, int)
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    if goal is None:
        goal = CustomizationGoal()
    if runner is None:
        runner = ExperimentRunner()

    def configure(row: frozenset[int], col: frozenset[int]) -> ExperimentSpec:
        """``base`` with the configuration ``S_R = row``, ``S_C = col``."""
        return base.with_overrides(
            topology_kwargs={**base.topology_kwargs, "s_r": sorted(row), "s_c": sorted(col)}
        )

    seen: dict[str, PredictionResult] = {}

    def evaluate(configurations) -> list[PredictionResult]:
        """The prediction of every ``(S_R, S_C)``; one run computes the unseen."""
        specs = [configure(row, col) for row, col in configurations]
        unseen = [spec for spec in specs if spec.spec_id not in seen]
        if unseen:
            for result in runner.run(unseen):
                seen[result.spec.spec_id] = result.prediction
        return [seen[spec.spec_id] for spec in specs]

    s_r: frozenset[int] = frozenset()
    s_c: frozenset[int] = frozenset()
    (current_prediction,) = evaluate([(s_r, s_c)])
    evaluations = 1
    steps = [_record_step(0, "start (mesh)", s_r, s_c, current_prediction)]
    # If even the mesh violates the budget, it is still the cheapest
    # configuration, so it is reported as the best achievable.
    if goal.is_feasible(current_prediction):
        for iteration in range(1, max_iterations + 1):
            moves = _candidate_moves(base, s_r, s_c, allow_removals)
            evaluated = evaluate((row, col) for row, col, _ in moves)
            evaluations += len(moves)
            best = None
            for move, prediction in zip(moves, evaluated):
                if not goal.is_feasible(prediction):
                    continue
                if not goal.is_improvement(current_prediction, prediction):
                    continue
                if best is None or goal.score(prediction) > goal.score(best[1]):
                    best = (move, prediction)
            if best is None:
                break
            (s_r, s_c, action), current_prediction = best
            steps.append(_record_step(iteration, action, s_r, s_c, current_prediction))

    return CustomizationResult(
        topology=configure(s_r, s_c).build_topology(),
        prediction=current_prediction,
        steps=steps,
        evaluations=evaluations,
    )


def _candidate_moves(
    base: ExperimentSpec,
    s_r: frozenset[int],
    s_c: frozenset[int],
    allow_removals: bool,
) -> list[tuple[frozenset[int], frozenset[int], str]]:
    """Single-change neighbours ``(S_R, S_C, action)`` of a configuration."""
    moves = []
    for x in candidate_row_skips(base.cols):
        if x not in s_r:
            moves.append((s_r | {x}, s_c, f"add {x} to S_R"))
        elif allow_removals:
            moves.append((s_r - {x}, s_c, f"remove {x} from S_R"))
    for x in candidate_col_skips(base.rows):
        if x not in s_c:
            moves.append((s_r, s_c | {x}, f"add {x} to S_C"))
        elif allow_removals:
            moves.append((s_r, s_c - {x}, f"remove {x} from S_C"))
    return moves


def _record_step(
    iteration: int,
    action: str,
    s_r: frozenset[int],
    s_c: frozenset[int],
    prediction: PredictionResult,
) -> CustomizationStep:
    return CustomizationStep(
        iteration=iteration,
        action=action,
        s_r=s_r,
        s_c=s_c,
        area_overhead=prediction.area_overhead,
        noc_power_w=prediction.noc_power_w,
        zero_load_latency_cycles=prediction.zero_load_latency_cycles,
        saturation_throughput=prediction.saturation_throughput,
    )


__all__ = [
    "CustomizationGoal",
    "CustomizationResult",
    "CustomizationStep",
    "customize_sparse_hamming",
]
