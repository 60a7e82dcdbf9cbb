"""Static and runtime verification of the simulator and its routing tables.

Three layers (see ``docs/VERIFICATION.md``):

* :mod:`repro.verify.static` — the **static routing verifier**: builds the
  channel-dependency graph from a network's compiled routing tables and
  proves escape-layer acyclicity (Duato deadlock freedom), full (src, dst)
  reachability of both layers, hop-count minimality of the minimal layer,
  and VC/credit configuration sanity.  Violations carry a concrete witness
  (a cycle of channels, or the unreachable pair and the walked path).
* :class:`~repro.simulator.engine.sanitizer.SanitizerEngine` — the
  **runtime sanitizer**: the reference kernel plus per-cycle invariant
  checks (flit/credit conservation, buffer bounds, allocation consistency,
  timestamp monotonicity), selected with ``engine="sanitizer"``.  It lives
  under :mod:`repro.simulator.engine` (the engine registry imports it, so
  placing it here would be circular) and is re-exported for convenience.
* :mod:`repro.verify.lint` — the **determinism/consistency lint**: an
  AST-based pass over the source tree enforcing repo invariants (no
  unseeded global RNG calls, no wall-clock reads inside the simulator,
  registry entries name-consistent with their classes).

CLI: ``repro verify`` and ``repro lint`` (see
:mod:`repro.experiments.cli`); ``tools/lint_repro.py`` is a standalone
entry point for the lint.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.simulator.engine.sanitizer": ("SanitizerEngine", "SanitizerError"),
    "repro.verify.static": (
        "LAYERS",
        "VerificationReport",
        "Violation",
        "channel_dependency_graph",
        "find_cycle",
        "verify_network",
        "verify_topologies",
        "verify_topology",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "LAYERS",
    "SanitizerEngine",
    "SanitizerError",
    "VerificationReport",
    "Violation",
    "channel_dependency_graph",
    "find_cycle",
    "verify_network",
    "verify_topologies",
    "verify_topology",
]
