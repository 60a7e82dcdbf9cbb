"""Declarative search specifications (`SearchSpec`).

A :class:`SearchSpec` is to the topology search what
:class:`~repro.experiments.spec.ExperimentSpec` is to one toolchain run: a
frozen, JSON-round-trippable description of the whole optimization — the
objective, the constraints, the search space, the shared architecture and
simulation configuration, and the search hyper-parameters (survivor count and
sampling seed).  :attr:`SearchSpec.search_id` is a stable content hash, and
every cycle-accurate evaluation the search performs is derived from the spec
via :meth:`candidate_spec`, so two processes running the same ``SearchSpec``
produce identical experiment specs — and therefore share the runner's
on-disk memoization cache entry for entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.experiments.spec import ExperimentSpec, _normalise
from repro.optimize.objectives import Constraints, Objective
from repro.optimize.space import Candidate, SearchSpace
from repro.topologies.registry import (
    TOPOLOGY_FACTORIES,
    available_topologies,
)
from repro.utils.validation import ValidationError, check_type


@dataclass(frozen=True, eq=False)
class SearchSpec:
    """One declarative topology search.

    Attributes
    ----------
    rows, cols:
        Tile grid every candidate (and the baseline) is built for.
    space:
        Families block of the :class:`~repro.optimize.space.SearchSpace`
        (see its docstring for the three block forms).
    objective:
        Objective mapping (see :class:`~repro.optimize.objectives.Objective`):
        ``{"metric": ..., "workload": ..., "phase": ...}``.
    constraints:
        Constraint mapping (see
        :class:`~repro.optimize.objectives.Constraints`).
    scenario, arch, sim, traffic:
        Shared architecture/simulation configuration, with exactly the
        semantics of the same :class:`ExperimentSpec` fields.  ``traffic``
        drives synthetic-objective simulations and the generic screening
        estimate; workload objectives replay their trace instead.
    survivors:
        How many screening survivors enter the cycle-accurate
        successive-halving stage.
    seed:
        Sampling seed of the search space (sparse-Hamming configuration
        sampling); the search itself contains no other randomness.
    baseline:
        Topology registry name the winner is compared against (``None``
        disables the comparison), with optional ``baseline_kwargs``.
    label:
        Free-form tag for reports (not part of the identity hash).

    Examples
    --------
    >>> spec = SearchSpec(
    ...     rows=4, cols=4,
    ...     space={"mesh": {}, "sparse_hamming": {"max_configurations": 8}},
    ...     objective={"metric": "workload_latency",
    ...                "workload": {"name": "dnn_inference", "seed": 7}},
    ...     constraints={"max_area_overhead": 0.40},
    ...     survivors=4,
    ... )
    >>> spec == SearchSpec.from_json(spec.to_json())
    True
    """

    rows: int
    cols: int
    space: Mapping[str, Any] = field(default_factory=dict)
    objective: Mapping[str, Any] = field(default_factory=lambda: {"metric": "zero_load_latency"})
    constraints: Mapping[str, Any] = field(default_factory=dict)
    scenario: str | None = None
    arch: Mapping[str, Any] = field(default_factory=dict)
    sim: Mapping[str, Any] = field(default_factory=dict)
    traffic: str = "uniform"
    survivors: int = 6
    seed: int = 0
    baseline: str | None = "mesh"
    baseline_kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        check_type("survivors", self.survivors, int)
        if self.survivors < 1:
            raise ValidationError("survivors must be >= 1")
        check_type("seed", self.seed, int)
        # Building the component objects validates their mappings; the space
        # additionally validates rows/cols.
        self.build_space()
        objective = self.build_objective()
        self.build_constraints()
        if self.baseline is not None:
            if self.baseline not in TOPOLOGY_FACTORIES:
                raise ValidationError(
                    f"unknown baseline topology {self.baseline!r}; "
                    f"known: {available_topologies()}"
                )
            # Building the baseline now fails fast on kwargs the generator
            # rejects (or a baseline inapplicable to the grid) — the
            # alternative is a crash after the whole search has run.
            Candidate(
                topology=self.baseline, topology_kwargs=self.baseline_kwargs
            ).build(self.rows, self.cols)
        # A probe ExperimentSpec validates scenario/arch/sim/traffic with
        # exactly the rules every candidate spec will face at run time.
        ExperimentSpec(
            topology="mesh",
            rows=self.rows,
            cols=self.cols,
            scenario=self.scenario,
            arch=self.arch,
            sim=self.sim,
            traffic=self.traffic,
            performance_mode="simulation",
            workload=objective.workload,
        )
        object.__setattr__(self, "space", _normalise(dict(self.space), "space"))
        object.__setattr__(self, "objective", _normalise(dict(self.objective), "objective"))
        object.__setattr__(
            self, "constraints", _normalise(dict(self.constraints), "constraints")
        )
        object.__setattr__(self, "arch", _normalise(dict(self.arch), "arch"))
        object.__setattr__(self, "sim", _normalise(dict(self.sim), "sim"))
        object.__setattr__(
            self, "baseline_kwargs", _normalise(dict(self.baseline_kwargs), "baseline_kwargs")
        )

    # ------------------------------------------------------------ components
    def build_space(self) -> SearchSpace:
        """The :class:`SearchSpace` this spec searches."""
        return SearchSpace(
            rows=self.rows, cols=self.cols, families=self.space, seed=self.seed
        )

    def build_objective(self) -> Objective:
        """The :class:`Objective` this spec optimizes."""
        return Objective.from_dict(self.objective)

    def build_constraints(self) -> Constraints:
        """The :class:`Constraints` this spec enforces."""
        return Constraints.from_dict(self.constraints)

    def baseline_candidate(self) -> Candidate | None:
        """The baseline as a :class:`Candidate` (``None`` when disabled)."""
        if self.baseline is None:
            return None
        return Candidate(topology=self.baseline, topology_kwargs=self.baseline_kwargs)

    def candidate_spec(
        self,
        candidate: Candidate,
        sim_overrides: Mapping[str, Any] | None = None,
        label: str = "",
    ) -> ExperimentSpec:
        """The cycle-accurate :class:`ExperimentSpec` evaluating ``candidate``.

        ``sim_overrides`` are merged over the spec's shared ``sim`` block —
        the successive-halving stage uses this to scale the simulation budget
        per rung while keeping every other knob identical.
        """
        sim = dict(self.sim)
        if sim_overrides:
            sim.update(sim_overrides)
        objective = self.build_objective()
        return ExperimentSpec(
            topology=candidate.topology,
            rows=self.rows,
            cols=self.cols,
            topology_kwargs=dict(candidate.topology_kwargs),
            scenario=self.scenario,
            arch=self.arch,
            traffic=self.traffic,
            performance_mode="simulation",
            sim=sim,
            workload=objective.workload,
            label=label,
        )

    # -------------------------------------------------------------- identity
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the spec (JSON-serializable)."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "space": dict(self.space),
            "objective": dict(self.objective),
            "constraints": dict(self.constraints),
            "scenario": self.scenario,
            "arch": dict(self.arch),
            "sim": dict(self.sim),
            "traffic": self.traffic,
            "survivors": self.survivors,
            "seed": self.seed,
            "baseline": self.baseline,
            "baseline_kwargs": dict(self.baseline_kwargs),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown search-spec fields: {sorted(unknown)}")
        missing = {"rows", "cols", "space"} - set(data)
        if missing:
            raise ValidationError(
                f"search spec is missing required fields: {sorted(missing)}"
            )
        return cls(**dict(data))

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def _identity_dict(self) -> dict[str, Any]:
        identity = self.to_dict()
        identity.pop("label")  # labels are cosmetic, not part of the identity
        return identity

    @property
    def search_id(self) -> str:
        """Stable content hash of the spec (identical across processes)."""
        canonical = json.dumps(self._identity_dict(), sort_keys=True, separators=(",", ":"))
        return "srch-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchSpec):
            return NotImplemented
        return self._identity_dict() == other._identity_dict()

    def __hash__(self) -> int:
        return hash(self.search_id)

    def with_overrides(self, **changes) -> "SearchSpec":
        """Return a copy with some fields replaced (re-validated)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        objective = self.build_objective()
        families = ", ".join(sorted(self.space))
        return (
            f"{self.rows}x{self.cols} search over [{families}] — "
            f"{objective.describe()}, {self.survivors} survivors"
        )


__all__ = ["SearchSpec"]
