"""Design-space exploration over sparse-Hamming-graph configurations.

The defining feature of the sparse Hamming graph is its ``2^(R+C-4)``-point
configuration space spanning the range between the 2D mesh and the flattened
butterfly.  This module sweeps (exhaustively for small grids, sampled for
large ones) over configurations and records the cost/performance trade-off of
each — the data behind the customization strategy and the ablation benchmarks.

:func:`design_space_campaign` turns the selected configurations into
:class:`~repro.experiments.ExperimentSpec` objects and
:func:`sweep_design_space` runs them through
:class:`~repro.experiments.ExperimentRunner`, so a sweep is memoized in the
runner's store and can run process-parallel like any other campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.config_space import enumerate_configurations, random_configuration
from repro.core.sparse_hamming import SparseHammingGraph
from repro.toolchain.results import PredictionResult
from repro.utils.rng import make_rng
from repro.utils.validation import ValidationError, check_type

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from repro.experiments.campaign import Campaign
    from repro.experiments.runner import ExperimentRunner


@dataclass(frozen=True)
class DesignSpaceSample:
    """Prediction of one sparse-Hamming-graph configuration."""

    s_r: frozenset[int]
    s_c: frozenset[int]
    num_links: int
    prediction: PredictionResult

    @property
    def area_overhead(self) -> float:
        """NoC area overhead of this configuration."""
        return self.prediction.area_overhead

    @property
    def saturation_throughput(self) -> float:
        """Saturation throughput of this configuration."""
        return self.prediction.saturation_throughput


def select_configurations(
    rows: int,
    cols: int,
    max_configurations: int | None = None,
    seed: int = 0,
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Choose the ``(S_R, S_C)`` configurations a design-space sweep evaluates.

    Exhaustive when the space fits within ``max_configurations`` (or no limit
    is given); otherwise a uniform random sample that always includes the mesh
    and flattened-butterfly endpoints.
    """
    check_type("rows", rows, int)
    check_type("cols", cols, int)
    if max_configurations is not None and max_configurations < 2:
        raise ValidationError("max_configurations must be >= 2 (mesh + flattened butterfly)")

    total = 2 ** (max(cols - 2, 0) + max(rows - 2, 0))
    if max_configurations is None or total <= max_configurations:
        return list(enumerate_configurations(rows, cols))

    configurations: list[tuple[frozenset[int], frozenset[int]]] = []
    seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    mesh = (frozenset(), frozenset())
    butterfly = (frozenset(range(2, cols)), frozenset(range(2, rows)))
    for endpoint in (mesh, butterfly):
        seen.add(endpoint)
        configurations.append(endpoint)
    rng = make_rng(seed, stream="design-space")
    while len(configurations) < max_configurations:
        candidate = random_configuration(rows, cols, rng=rng)
        if candidate not in seen:
            seen.add(candidate)
            configurations.append(candidate)
    return configurations


def trade_off_curve(samples: Iterable[DesignSpaceSample]) -> list[DesignSpaceSample]:
    """Return the cost-performance frontier of a design-space sweep.

    The frontier contains every sample for which no other sample has both a
    lower (or equal) area overhead and a higher (or equal) saturation
    throughput with at least one strict inequality — the curve that the
    customization strategy walks along when trading area for throughput.
    """
    sample_list = list(samples)
    frontier = []
    for candidate in sample_list:
        dominated = any(
            other.area_overhead <= candidate.area_overhead
            and other.saturation_throughput >= candidate.saturation_throughput
            and (
                other.area_overhead < candidate.area_overhead
                or other.saturation_throughput > candidate.saturation_throughput
            )
            for other in sample_list
            if other is not candidate
        )
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda sample: sample.area_overhead)


# ------------------------------------------------- experiment-API execution
def design_space_campaign(
    rows: int,
    cols: int,
    scenario: str | None = None,
    arch: Mapping[str, Any] | None = None,
    sim: Mapping[str, Any] | None = None,
    traffic: str = "uniform",
    performance_mode: str = "analytical",
    endpoints_per_tile: int | None = None,
    max_configurations: int | None = None,
    seed: int = 0,
) -> "Campaign":
    """Build the campaign that sweeps sparse-Hamming-graph configurations.

    Each selected ``(S_R, S_C)`` configuration becomes one
    :class:`~repro.experiments.ExperimentSpec`, so the sweep is serializable,
    memoizable and parallelizable like any other campaign.
    """
    from repro.experiments.campaign import Campaign
    from repro.experiments.spec import ExperimentSpec

    specs = []
    for s_r, s_c in select_configurations(rows, cols, max_configurations, seed):
        kwargs: dict[str, Any] = {"s_r": sorted(s_r), "s_c": sorted(s_c)}
        if endpoints_per_tile is not None:
            kwargs["endpoints_per_tile"] = endpoints_per_tile
        specs.append(
            ExperimentSpec(
                topology="sparse_hamming",
                rows=rows,
                cols=cols,
                topology_kwargs=kwargs,
                scenario=scenario,
                arch=arch or {},
                traffic=traffic,
                performance_mode=performance_mode,
                sim=sim or {},
            )
        )
    return Campaign(specs=specs, name=f"design-space-{rows}x{cols}")


def sweep_design_space(
    rows: int,
    cols: int,
    runner: "ExperimentRunner | None" = None,
    parallel: int | None = None,
    **campaign_kwargs,
) -> list[DesignSpaceSample]:
    """Evaluate the configurations of :func:`design_space_campaign`.

    ``campaign_kwargs`` go to :func:`design_space_campaign`.  The campaign
    runs through ``runner`` (a store-less one when omitted), so results are
    memoized when the runner has a store and can run process-parallel.
    Samples are in campaign order.
    """
    from repro.experiments.runner import ExperimentRunner

    campaign = design_space_campaign(rows, cols, **campaign_kwargs)
    runner = runner or ExperimentRunner()
    results = runner.run(campaign, parallel=parallel)
    samples = []
    for result in results:
        kwargs = result.spec.topology_kwargs
        s_r = frozenset(kwargs["s_r"])
        s_c = frozenset(kwargs["s_c"])
        # num_links is a property of the graph, not of the prediction; rebuild
        # the (cheap) link structure so cached results stay self-contained.
        topology = SparseHammingGraph(rows, cols, s_r=s_r, s_c=s_c)
        samples.append(
            DesignSpaceSample(
                s_r=s_r,
                s_c=s_c,
                num_links=topology.num_links,
                prediction=result.prediction,
            )
        )
    return samples
