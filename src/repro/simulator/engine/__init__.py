"""Pluggable simulation engines.

The cycle-accurate kernel exists in interchangeable implementations behind
the :class:`~repro.simulator.engine.base.Engine` interface:

``reference``
    The object-graph kernel (:class:`ReferenceEngine`) — one
    :class:`~repro.simulator.router.Router` object per node, flit objects in
    per-VC deques.  The semantic ground truth; it produced the goldens in
    ``tests/unit/test_simulation_golden.py`` and is the baseline every
    cross-engine check names explicitly.
``soa``
    The struct-of-arrays kernel (:class:`SoAEngine`) — all hot state in flat
    preallocated columns indexed by compiled channel/VC ids.  Bit-identical
    to ``reference`` and several times faster (see ``docs/PERFORMANCE.md``
    and ``BENCH_simulator.json``).  The default engine.
``sanitizer``
    The reference kernel plus per-cycle runtime invariant checks
    (:class:`SanitizerEngine`) — flit/credit conservation, buffer bounds,
    allocation consistency and timestamp monotonicity, raising
    :class:`~repro.simulator.engine.sanitizer.SanitizerError` with cycle/
    router/VC context on the first violation.  Bit-identical statistics,
    slower; intended for debugging and CI (see ``docs/VERIFICATION.md``).
``vec``
    The vectorized numpy kernel (:class:`VecEngine`) — router passes run as
    masked array operations over every node at once, with a leading batch
    axis that fuses many ``(seed, load point)`` runs of one compiled network
    into a single kernel (:func:`~repro.simulator.engine.vec.run_batched`,
    driven by :func:`~repro.simulator.sweep.run_plans`, which every sweep,
    replay, batch and gang goes through).  The only engine with a batch
    axis (``Engine.batch_axis``).  Bit-identical to ``reference``; fastest
    on large networks and batched sweeps (see ``docs/PERFORMANCE.md``).

Engines are selected by name through ``SimulationConfig(engine=...)``, which
every launching layer threads through: ``sweep``/``replay_trace``,
``ExperimentSpec(sim={"engine": ...})`` (excluded from ``spec_id`` — all
engines produce identical results, so they share memoization cache entries),
the ``repro`` CLI ``--engine`` flags, and ``repro.optimize.run_search``.

This mirrors the topology/traffic/workload registries: a single mapping to
enumerate and instantiate engines by name.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Type

from repro import _lazy_exports
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # imported for type hints only; no runtime dependency
    from repro.simulator.engine.base import Engine
    from repro.simulator.network import Network
    from repro.simulator.simulation import SimulationConfig
    from repro.topologies.base import Topology
    from repro.workloads.trace import WorkloadTrace

_EXPORTS = {
    "repro.simulator.engine.base": ("Engine",),
    "repro.simulator.engine.reference": ("ReferenceEngine",),
    "repro.simulator.engine.sanitizer": ("SanitizerEngine", "SanitizerError"),
    "repro.simulator.engine.soa": ("SoAEngine",),
    "repro.simulator.engine.vec": ("VecEngine",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


class _EngineRegistry(Mapping[str, "Type[Engine]"]):
    """Engine name -> engine class, each class imported on its first lookup.

    The names are known without importing a kernel, so listing or checking
    engines loads none of them, and a run imports only the kernel it names.
    """

    def __init__(self, classes: dict[str, str]) -> None:
        self._classes = classes

    def __getitem__(self, name: str) -> Type[Engine]:
        return __getattr__(self._classes[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


#: Engine registry: name -> engine class.
ENGINE_FACTORIES: Mapping[str, Type[Engine]] = _EngineRegistry(
    {
        "reference": "ReferenceEngine",
        "soa": "SoAEngine",
        "sanitizer": "SanitizerEngine",
        "vec": "VecEngine",
    }
)

#: The engine a :class:`SimulationConfig` uses unless told otherwise: the
#: fastest single-run kernel.  Engines are bit-identical, so the default
#: changes speed only, never a result or a memoization key.
#: :mod:`repro.simulator.simulation` imports it with the simulator.
DEFAULT_ENGINE = "soa"


def available_engines() -> list[str]:
    """Return the identifiers of all registered engines."""
    return sorted(ENGINE_FACTORIES)


def check_engine_name(name: str) -> None:
    """Raise :class:`ValidationError` unless ``name`` is a registered engine."""
    if name not in ENGINE_FACTORIES:
        raise ValidationError(
            f"unknown simulation engine {name!r}; known: {available_engines()}"
        )


def make_engine(
    name: str,
    topology: "Topology",
    config: "SimulationConfig",
    network: "Network",
    trace: "WorkloadTrace | None" = None,
) -> Engine:
    """Instantiate a registered engine by identifier."""
    check_engine_name(name)
    return ENGINE_FACTORIES[name](topology, config, network, trace=trace)


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_FACTORIES",
    "Engine",
    "ReferenceEngine",
    "SanitizerEngine",
    "SanitizerError",
    "SoAEngine",
    "VecEngine",
    "available_engines",
    "check_engine_name",
    "make_engine",
]
