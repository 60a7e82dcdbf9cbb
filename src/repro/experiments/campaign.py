"""Campaigns: named collections of experiment specs with grid expansion.

A :class:`Campaign` is an ordered list of :class:`ExperimentSpec` with a name.
:meth:`Campaign.grid` expands a cartesian product of topologies x grid sizes x
traffic patterns x performance modes x scenarios into specs, automatically
skipping combinations the topology registry declares inapplicable (hypercube
on non-power-of-two grids, SlimNoC off its ``R*C = 2*q^2`` sizes) — exactly
the filtering the paper's Figure 6 evaluation applies.

Campaigns serialize to JSON in two forms: an explicit ``{"specs": [...]}``
list, or a declarative ``{"grid": {...}}`` block that is re-expanded on load,
so a whole design-space study fits in a few lines of checked-in JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.arch.knc import KNC_SCENARIOS
from repro.experiments.spec import ExperimentSpec
from repro.topologies.registry import PAPER_COMPARISON_ORDER, is_applicable
from repro.utils.validation import ValidationError


@dataclass
class Campaign:
    """A named, ordered batch of experiment specs.

    Parameters
    ----------
    specs:
        The :class:`~repro.experiments.spec.ExperimentSpec` entries, in
        execution order.
    name:
        Free-form campaign name used in reports and the CLI.

    Examples
    --------
    Expand a cartesian grid — inapplicable topology/size combinations
    (hypercube on non-power-of-two grids, SlimNoC off its supported sizes)
    are skipped automatically:

    >>> from repro.experiments import Campaign
    >>> campaign = Campaign.grid(
    ...     topologies=("mesh", "torus", "hypercube"),
    ...     sizes=((8, 8), (8, 12)),
    ...     traffics=("uniform", "tornado"),
    ...     scenarios=("a",),
    ... )
    >>> len(campaign)       # hypercube is skipped on the 8x12 grid
    10

    Campaigns round-trip through JSON (explicit spec list or declarative
    grid) so whole studies live in version control:

    >>> path = campaign.save("study.json")          # doctest: +SKIP
    >>> Campaign.load("study.json").name            # doctest: +SKIP
    'grid'
    """

    specs: list[ExperimentSpec] = field(default_factory=list)
    name: str = "campaign"

    def __post_init__(self) -> None:
        self.specs = list(self.specs)
        for spec in self.specs:
            if not isinstance(spec, ExperimentSpec):
                raise ValidationError(f"campaign entries must be ExperimentSpec, got {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, index: int) -> ExperimentSpec:
        return self.specs[index]

    def add(self, spec: ExperimentSpec) -> "Campaign":
        """Append a spec (returns self for chaining)."""
        if not isinstance(spec, ExperimentSpec):
            raise ValidationError(f"campaign entries must be ExperimentSpec, got {spec!r}")
        self.specs.append(spec)
        return self

    def extend(self, specs: Iterable[ExperimentSpec]) -> "Campaign":
        """Append several specs (returns self for chaining)."""
        for spec in specs:
            self.add(spec)
        return self

    # ------------------------------------------------------------ expansion
    @classmethod
    def grid(
        cls,
        topologies: Sequence[str] | None = None,
        sizes: Sequence[tuple[int, int]] | None = None,
        traffics: Sequence[str] = ("uniform",),
        performance_modes: Sequence[str] = ("analytical",),
        scenarios: Sequence[str | None] = (None,),
        workloads: Sequence[str | Mapping[str, Any] | None] = (None,),
        topology_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
        arch: Mapping[str, Any] | None = None,
        sim: Mapping[str, Any] | None = None,
        name: str = "grid",
        skip_inapplicable: bool = True,
    ) -> "Campaign":
        """Expand a cartesian grid of experiment specs.

        Parameters
        ----------
        topologies:
            Topology registry names; defaults to the paper's Figure 6
            comparison order.
        sizes:
            ``(rows, cols)`` grid sizes.  When omitted, each scenario supplies
            its own grid (and at least one scenario must be given).
        traffics, performance_modes, scenarios:
            Further grid axes; ``scenarios`` entries may be ``None`` for a
            scenario-less architecture built from ``arch`` overrides.
        workloads:
            Trace-driven workload axis.  Each entry is ``None`` (synthetic
            traffic, expanded over ``traffics`` x ``performance_modes`` as
            usual), a workload registry name, or a full ``{"name": ...,
            "seed": ..., "params": {...}}`` mapping.  Workload entries
            always run in cycle-accurate simulation mode (traces cannot be
            evaluated analytically), one spec per topology/size/scenario.
        topology_kwargs:
            Per-topology generator kwargs, keyed by topology name.
        arch, sim:
            Shared ArchitecturalParameters / SimulationConfig overrides.
        skip_inapplicable:
            Skip topology/size combinations the registry rejects (default);
            when ``False`` such combinations raise ``ValidationError``.
        """
        topologies = tuple(topologies) if topologies is not None else PAPER_COMPARISON_ORDER
        per_topology = dict(topology_kwargs or {})
        normalised_workloads: list[Mapping[str, Any] | None] = []
        for workload in workloads:
            if workload is None or isinstance(workload, Mapping):
                normalised_workloads.append(workload)
            elif isinstance(workload, str):
                normalised_workloads.append({"name": workload})
            else:
                raise ValidationError(
                    f"workloads entries must be None, a name, or a mapping, "
                    f"got {workload!r}"
                )
        specs: list[ExperimentSpec] = []
        for scenario in scenarios:
            if scenario is not None and scenario not in KNC_SCENARIOS:
                raise ValidationError(
                    f"unknown scenario {scenario!r}; known: {sorted(KNC_SCENARIOS)}"
                )
            if sizes is None:
                if scenario is None:
                    raise ValidationError(
                        "grid expansion needs explicit sizes or a scenario supplying them"
                    )
                target = KNC_SCENARIOS[scenario]
                scenario_sizes: Sequence[tuple[int, int]] = ((target.rows, target.cols),)
            else:
                scenario_sizes = sizes
            for rows, cols in scenario_sizes:
                for topology in topologies:
                    if not is_applicable(topology, rows, cols):
                        if skip_inapplicable:
                            continue
                        raise ValidationError(
                            f"topology {topology!r} is not applicable to a "
                            f"{rows}x{cols} grid"
                        )
                    base_kwargs = dict(
                        topology=topology,
                        rows=rows,
                        cols=cols,
                        topology_kwargs=per_topology.get(topology, {}),
                        scenario=scenario,
                        arch=arch or {},
                        sim=sim or {},
                    )
                    for workload in normalised_workloads:
                        if workload is not None:
                            # Trace replays are cycle-accurate only and carry
                            # their own traffic, so the traffic and mode axes
                            # do not multiply them.
                            specs.append(
                                ExperimentSpec(
                                    **base_kwargs,
                                    performance_mode="simulation",
                                    workload=workload,
                                )
                            )
                            continue
                        for traffic in traffics:
                            for mode in performance_modes:
                                specs.append(
                                    ExperimentSpec(
                                        **base_kwargs,
                                        traffic=traffic,
                                        performance_mode=mode,
                                    )
                                )
        return cls(specs=specs, name=name)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: name plus the explicit spec list."""
        return {"name": self.name, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Rebuild a campaign from ``{"specs": [...]}`` or ``{"grid": {...}}``."""
        if "grid" in data:
            grid = dict(data["grid"])
            sizes = grid.get("sizes")
            if sizes is not None:
                grid["sizes"] = [tuple(size) for size in sizes]
            if "name" not in grid and "name" in data:
                grid["name"] = data["name"]
            return cls.grid(**grid)
        if "specs" not in data:
            raise ValidationError("campaign JSON needs a 'specs' list or a 'grid' block")
        specs = [ExperimentSpec.from_dict(entry) for entry in data["specs"]]
        return cls(specs=specs, name=data.get("name", "campaign"))

    def save(self, path: str | Path) -> Path:
        """Write the campaign to a JSON file; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Campaign":
        """Read a campaign from a JSON file (explicit or grid form)."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def figure6_campaign(
    scenario_key: str,
    performance_mode: str = "analytical",
    sim: Mapping[str, Any] | None = None,
    traffic: str = "uniform",
) -> Campaign:
    """The campaign behind one Figure 6 panel: every applicable topology of a
    KNC scenario, with the paper's sparse-Hamming-graph configuration.

    Parameters
    ----------
    scenario_key:
        KNC scenario (``"a"`` .. ``"d"``, Table II).
    performance_mode:
        ``"analytical"`` (fast, default) or ``"simulation"``
        (cycle-accurate, the paper's BookSim2 setup).
    sim:
        :class:`~repro.simulator.simulation.SimulationConfig` overrides
        shared by every spec (e.g. shortened phases for CI).
    traffic:
        Traffic pattern name (the paper evaluates ``"uniform"``).

    Returns
    -------
    Campaign
        One spec per topology applicable to the scenario's grid, in the
        paper's comparison order.

    Examples
    --------
    >>> from repro.experiments import figure6_campaign, run_campaign
    >>> campaign = figure6_campaign("a")
    >>> campaign.name
    'figure6a'
    >>> results = run_campaign(campaign)           # doctest: +SKIP
    >>> results.best_within_area_budget(0.40).topology_name  # doctest: +SKIP
    'Sparse Hamming Graph'
    """
    if scenario_key not in KNC_SCENARIOS:
        raise ValidationError(
            f"unknown scenario {scenario_key!r}; known: {sorted(KNC_SCENARIOS)}"
        )
    scenario = KNC_SCENARIOS[scenario_key]
    return Campaign.grid(
        topologies=PAPER_COMPARISON_ORDER,
        sizes=((scenario.rows, scenario.cols),),
        traffics=(traffic,),
        performance_modes=(performance_mode,),
        scenarios=(scenario_key,),
        topology_kwargs={
            "sparse_hamming": {
                "s_r": sorted(scenario.paper_s_r),
                "s_c": sorted(scenario.paper_s_c),
            }
        },
        sim=sim,
        name=f"figure6{scenario_key}",
    )


__all__ = ["Campaign", "figure6_campaign"]
