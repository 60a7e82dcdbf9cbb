"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, hashable, JSON-round-trippable
description of one prediction-toolchain run: which topology (by registry
name plus generator kwargs), on which architecture (a KNC scenario key plus
:class:`~repro.physical.parameters.ArchitecturalParameters` overrides), under
which traffic pattern, in which performance mode, with which simulation
configuration.  Because a spec is pure data, it can be stored in version
control, shipped between processes, expanded into campaign grids, and used as
a stable memoization key: :attr:`ExperimentSpec.spec_id` is a content hash of
the canonical JSON form, identical across processes and Python versions.

The spec resolves to live objects on demand: :meth:`build_topology`,
:meth:`build_parameters`, :meth:`build_simulation_config`,
:meth:`build_toolchain`, and :meth:`run` (the whole pipeline in one call).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.arch.knc import KNC_SCENARIOS
from repro.physical.parameters import (
    AXI4_PROTOCOL,
    LIGHTWEIGHT_PROTOCOL,
    ArchitecturalParameters,
    TransportProtocolModel,
)
from repro.physical.technology import TECHNOLOGY_PRESETS
from repro.simulator.engine import check_engine_name
from repro.simulator.simulation import SimulationConfig
from repro.simulator.traffic import check_traffic_name
from repro.toolchain.predict import PredictionToolchain
from repro.toolchain.results import PredictionResult
from repro.topologies.base import Topology
from repro.topologies.registry import TOPOLOGY_FACTORIES, available_topologies, make_topology
from repro.utils.validation import ValidationError, check_type
from repro.workloads import check_workload_name
from repro.workloads.generators import (
    SEED_INDEPENDENT_WORKLOADS,
    check_workload_params,
    workload_trace_from_mapping,
)
from repro.workloads.trace import WorkloadTrace

#: Keys allowed in a spec's ``workload`` mapping.
_WORKLOAD_KEYS = ("name", "seed", "params")

#: Transport protocols addressable by name from a spec's ``arch`` overrides.
PROTOCOL_PRESETS: dict[str, TransportProtocolModel] = {
    AXI4_PROTOCOL.name: AXI4_PROTOCOL,
    LIGHTWEIGHT_PROTOCOL.name: LIGHTWEIGHT_PROTOCOL,
}

#: ``arch`` override keys that map straight onto ArchitecturalParameters fields.
_ARCH_SCALAR_KEYS = (
    "num_tiles",
    "endpoint_area_ge",
    "tile_aspect_ratio",
    "frequency_hz",
    "link_bandwidth_bits",
    "endpoints_per_tile",
    "name",
)

_ARCH_KEYS = _ARCH_SCALAR_KEYS + ("technology", "protocol")

_SIM_KEYS = tuple(f.name for f in fields(SimulationConfig))

#: Default endpoint area when no scenario and no override is given — the
#: KNC-like 35 MGE tile of the paper's main evaluation.
DEFAULT_ENDPOINT_AREA_GE = 35e6


def check_sim_overrides(overrides: Mapping[str, Any]) -> None:
    """Raise :class:`ValidationError` on keys that are not SimulationConfig fields.

    Shared by spec validation and the CLI's ``replay`` path so the accepted
    key set and the error wording cannot drift apart.
    """
    unknown = set(overrides) - set(_SIM_KEYS)
    if unknown:
        raise ValidationError(
            f"unknown simulation override(s) {sorted(unknown)}; "
            f"known: {sorted(_SIM_KEYS)}"
        )


def _normalise(value: Any, context: str) -> Any:
    """Coerce ``value`` into a canonical JSON-serializable form.

    Sets become sorted lists, tuples become lists, mapping keys must be
    strings; anything that JSON cannot express raises ``ValidationError`` so
    that a spec is serializable by construction.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(_normalise(item, context) for item in value)
    if isinstance(value, (list, tuple)):
        return [_normalise(item, context) for item in value]
    if isinstance(value, Mapping):
        normalised = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"{context}: mapping keys must be strings, got {key!r}")
            normalised[key] = _normalise(item, context)
        return normalised
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(
        f"{context}: value {value!r} of type {type(value).__name__} is not JSON-serializable"
    )


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One declarative toolchain experiment.

    A spec is frozen, hashable and JSON-round-trippable pure data: it can be
    stored in version control, shipped between processes, expanded into
    campaign grids, and used as a stable memoization key
    (:attr:`spec_id` is a content hash of the canonical JSON form).  It
    resolves to live objects on demand via :meth:`build_topology`,
    :meth:`build_parameters`, :meth:`build_simulation_config`,
    :meth:`build_toolchain`, and :meth:`run`.

    Examples
    --------
    Describe, identify and execute one Figure 6a experiment:

    >>> from repro.experiments import ExperimentSpec
    >>> spec = ExperimentSpec(
    ...     topology="sparse_hamming", rows=8, cols=8,
    ...     topology_kwargs={"s_r": [4], "s_c": [2, 5]}, scenario="a",
    ... )
    >>> spec.spec_id                    # stable content hash
    'exp-...'
    >>> spec == ExperimentSpec.from_json(spec.to_json())  # JSON round-trip
    True
    >>> result = spec.run()             # doctest: +SKIP
    >>> result.saturation_throughput    # doctest: +SKIP
    0.53...

    Derive a variant without mutating the original:

    >>> spec.with_overrides(traffic="tornado").traffic
    'tornado'

    Attributes
    ----------
    topology:
        Registry identifier (see ``repro.topologies.registry``).
    rows, cols:
        Tile-grid dimensions.
    topology_kwargs:
        Extra generator kwargs (e.g. ``{"s_r": [4], "s_c": [2, 5]}`` for the
        sparse Hamming graph).  Normalised to canonical JSON form on
        construction, so sets and tuples are accepted.
    scenario:
        Optional KNC scenario key (``"a"`` .. ``"d"``) supplying the baseline
        architecture; ``arch`` overrides are applied on top.
    arch:
        Overrides of :class:`ArchitecturalParameters` fields.  ``technology``
        and ``protocol`` are preset names (``"22nm-hp"``, ``"AXI4"``, ...).
    traffic:
        Traffic pattern name from the traffic registry (ignored when a
        ``workload`` is set — the trace supplies the traffic).
    performance_mode:
        ``"analytical"`` or ``"simulation"``.
    sim:
        Overrides of :class:`SimulationConfig` fields.  The ``engine``
        override selects the simulation kernel (see
        :mod:`repro.simulator.engine`) but is excluded from :attr:`spec_id`:
        engines are bit-identical, so engine-distinct specs share one
        identity (and one memoization cache entry).
    workload:
        Optional trace-driven workload: ``{"name": <registry id>, "seed":
        <int>, "params": {...}}`` (see
        :data:`repro.workloads.WORKLOAD_FACTORIES`).  The performance stage
        then replays the generated trace through the cycle-accurate
        simulator instead of sweeping Bernoulli loads, and requires
        ``performance_mode="simulation"``.  ``None`` (the default) keeps
        synthetic traffic — and keeps the spec's identity hash exactly as it
        was before workloads existed.
    label:
        Free-form tag for reports (not part of the identity hash).
    """

    topology: str
    rows: int
    cols: int
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    scenario: str | None = None
    arch: Mapping[str, Any] = field(default_factory=dict)
    traffic: str = "uniform"
    performance_mode: str = "analytical"
    sim: Mapping[str, Any] = field(default_factory=dict)
    workload: Mapping[str, Any] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        check_type("rows", self.rows, int)
        check_type("cols", self.cols, int)
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ValidationError("spec needs a grid of at least 2 tiles")
        if self.topology not in TOPOLOGY_FACTORIES:
            raise ValidationError(
                f"unknown topology {self.topology!r}; known: {available_topologies()}"
            )
        if self.scenario is not None and self.scenario not in KNC_SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; known: {sorted(KNC_SCENARIOS)}"
            )
        check_traffic_name(self.traffic)
        if self.performance_mode not in ("analytical", "simulation"):
            raise ValidationError(
                f"performance_mode must be 'analytical' or 'simulation', "
                f"got {self.performance_mode!r}"
            )
        for key in self.arch:
            if key not in _ARCH_KEYS:
                raise ValidationError(
                    f"unknown arch override {key!r}; known: {sorted(_ARCH_KEYS)}"
                )
        technology = self.arch.get("technology")
        if technology is not None and technology not in TECHNOLOGY_PRESETS:
            raise ValidationError(
                f"unknown technology preset {technology!r}; "
                f"known: {sorted(TECHNOLOGY_PRESETS)}"
            )
        protocol = self.arch.get("protocol")
        if protocol is not None and protocol not in PROTOCOL_PRESETS:
            raise ValidationError(
                f"unknown protocol preset {protocol!r}; known: {sorted(PROTOCOL_PRESETS)}"
            )
        if "traffic" in self.sim:
            # Two spellings for the same knob would make contradictory
            # specs constructible and split the memoization key space.
            raise ValidationError(
                "set the traffic pattern through the spec-level 'traffic' "
                "field, not a simulation override"
            )
        check_sim_overrides(self.sim)
        if "engine" in self.sim:
            # Validate the engine name now, not at run time — a campaign
            # with a typo'd engine must fail before any experiment runs.
            check_engine_name(self.sim["engine"])
        if self.workload is not None:
            if not isinstance(self.workload, Mapping):
                raise ValidationError(
                    "workload must be a mapping like "
                    "{'name': 'dnn_inference', 'seed': 0, 'params': {...}}"
                )
            unknown_keys = set(self.workload) - set(_WORKLOAD_KEYS)
            if unknown_keys:
                raise ValidationError(
                    f"unknown workload keys {sorted(unknown_keys)}; "
                    f"known: {sorted(_WORKLOAD_KEYS)}"
                )
            if "name" not in self.workload:
                raise ValidationError("workload needs a 'name' key")
            check_workload_name(self.workload["name"])
            seed = self.workload.get("seed", 0)
            check_type("workload seed", seed, int)
            params = self.workload.get("params", {})
            if not isinstance(params, Mapping):
                raise ValidationError("workload 'params' must be a mapping")
            check_workload_params(self.workload["name"], dict(params))
            if self.performance_mode != "simulation":
                raise ValidationError(
                    "trace-driven workloads require performance_mode='simulation'"
                )
        # Normalise the mapping fields so that equality, hashing and JSON
        # round-trips are all defined on the same canonical form.
        object.__setattr__(
            self, "topology_kwargs", _normalise(dict(self.topology_kwargs), "topology_kwargs")
        )
        object.__setattr__(self, "arch", _normalise(dict(self.arch), "arch"))
        object.__setattr__(self, "sim", _normalise(dict(self.sim), "sim"))
        if self.workload is not None:
            workload = dict(self.workload)
            if workload["name"] in SEED_INDEPENDENT_WORKLOADS:
                # The generator ignores its seed; normalising it away keeps
                # seed-distinct-but-identical specs on one spec_id (and one
                # memoization cache entry).
                workload.pop("seed", None)
            object.__setattr__(self, "workload", _normalise(workload, "workload"))

    # ------------------------------------------------------------- identity
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form of the spec (JSON-serializable)."""
        return {
            "topology": self.topology,
            "rows": self.rows,
            "cols": self.cols,
            "topology_kwargs": dict(self.topology_kwargs),
            "scenario": self.scenario,
            "arch": dict(self.arch),
            "traffic": self.traffic,
            "performance_mode": self.performance_mode,
            "sim": dict(self.sim),
            "workload": dict(self.workload) if self.workload is not None else None,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
        missing = {"topology", "rows", "cols"} - set(data)
        if missing:
            raise ValidationError(f"spec is missing required fields: {sorted(missing)}")
        return cls(**dict(data))

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def _identity_dict(self) -> dict[str, Any]:
        identity = self.to_dict()
        identity.pop("label")  # labels are cosmetic, not part of the identity
        if "engine" in identity["sim"] or "audit_interval" in identity["sim"]:
            # Engines are bit-identical (enforced by the cross-engine
            # differential tests), so the engine choice must not split the
            # identity: specs differing only in engine share one spec_id —
            # and with it the runner's on-disk memoization cache entry.
            # The sanitizer's audit sampling interval only changes how often
            # the (read-only) invariant checks run, never the statistics,
            # so it is excluded for the same reason.
            identity["sim"] = {
                key: value
                for key, value in identity["sim"].items()
                if key not in ("engine", "audit_interval")
            }
        if identity["workload"] is None:
            # Workload-less specs hash exactly as they did before the
            # workload field existed, so pre-existing spec_ids (and with
            # them on-disk memoization caches) stay valid.
            identity.pop("workload")
        else:
            # The trace supplies the traffic, so the (ignored) synthetic
            # pattern must not split the identity of workload specs.
            identity.pop("traffic")
        return identity

    @property
    def spec_id(self) -> str:
        """Stable content hash of the spec (identical across processes)."""
        canonical = json.dumps(self._identity_dict(), sort_keys=True, separators=(",", ":"))
        return "exp-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return self._identity_dict() == other._identity_dict()

    def __hash__(self) -> int:
        return hash(self.spec_id)

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """Return a copy with some fields replaced (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------ resolution
    def build_topology(self) -> Topology:
        """Instantiate the topology described by this spec."""
        kwargs = dict(self.topology_kwargs)
        if (
            self.topology == "sparse_hamming"
            and self.scenario is not None
            and "s_r" not in kwargs
            and "s_c" not in kwargs
        ):
            # Default to the configuration the paper's customization selected
            # for this scenario (the Figure 6 setup).
            scenario = KNC_SCENARIOS[self.scenario]
            kwargs["s_r"] = sorted(scenario.paper_s_r)
            kwargs["s_c"] = sorted(scenario.paper_s_c)
        endpoints = kwargs.pop(
            "endpoints_per_tile", self.build_parameters().endpoints_per_tile
        )
        return make_topology(
            self.topology, self.rows, self.cols, endpoints_per_tile=endpoints, **kwargs
        )

    def build_parameters(self) -> ArchitecturalParameters:
        """Resolve the architectural parameters (scenario baseline + overrides)."""
        overrides = dict(self.arch)
        technology_name = overrides.pop("technology", None)
        protocol_name = overrides.pop("protocol", None)
        changes: dict[str, Any] = dict(overrides)
        if technology_name is not None:
            changes["technology"] = TECHNOLOGY_PRESETS[technology_name]
        if protocol_name is not None:
            changes["protocol"] = PROTOCOL_PRESETS[protocol_name]
        if self.scenario is not None:
            base = KNC_SCENARIOS[self.scenario].parameters()
            changes.setdefault("num_tiles", self.rows * self.cols)
            return base.scaled(**changes)
        changes.setdefault("num_tiles", self.rows * self.cols)
        changes.setdefault("endpoint_area_ge", DEFAULT_ENDPOINT_AREA_GE)
        changes.setdefault("name", self.label or "experiment")
        return ArchitecturalParameters(**changes)

    def build_simulation_config(self) -> SimulationConfig:
        """Resolve the simulation configuration (defaults + ``sim`` overrides)."""
        overrides = dict(self.sim)
        overrides.setdefault("traffic", self.traffic)
        return SimulationConfig(**overrides)

    def build_workload_trace(self) -> WorkloadTrace | None:
        """Generate the workload trace this spec replays (``None`` if synthetic).

        The trace is a deterministic function of the workload mapping and
        the spec's grid size, so two processes resolving the same spec
        replay byte-identical traces.
        """
        if self.workload is None:
            return None
        return workload_trace_from_mapping(dict(self.workload), self.rows, self.cols)

    def build_toolchain(self) -> PredictionToolchain:
        """Build the prediction toolchain this spec runs on."""
        return PredictionToolchain(
            params=self.build_parameters(),
            performance_mode=self.performance_mode,
            simulation_config=self.build_simulation_config(),
            traffic=self.traffic,
            workload=self.workload,
        )

    def run(self) -> PredictionResult:
        """Execute the spec: topology + architecture -> prediction."""
        return self.build_toolchain().predict(self.build_topology())

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.topology} {self.rows}x{self.cols}"]
        if self.topology_kwargs:
            parts.append(json.dumps(dict(self.topology_kwargs), sort_keys=True))
        if self.scenario:
            parts.append(f"scenario={self.scenario}")
        if self.workload is not None:
            parts.append(f"workload={self.workload['name']}")
        else:
            parts.append(f"traffic={self.traffic}")
        parts.append(self.performance_mode)
        return " ".join(parts)


def topology_key(spec: ExperimentSpec) -> tuple:
    """Hashable key of everything the topology build depends on."""
    return (
        spec.topology,
        spec.rows,
        spec.cols,
        json.dumps(dict(spec.topology_kwargs), sort_keys=True),
        spec.scenario,
        json.dumps(dict(spec.arch), sort_keys=True),
    )


__all__ = [
    "ExperimentSpec",
    "PROTOCOL_PRESETS",
    "DEFAULT_ENDPOINT_AREA_GE",
    "check_sim_overrides",
    "topology_key",
]
