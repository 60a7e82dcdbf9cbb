"""End-to-end prediction toolchain (Figure 3 of the paper).

Given a topology and a set of architectural parameters, the toolchain

1. runs the physical model (:mod:`repro.physical`) to obtain the area
   estimate, the power estimate and the per-link latency estimates, and
2. evaluates the NoC's performance — zero-load latency and saturation
   throughput — either with the cycle-accurate simulator
   (:mod:`repro.simulator`, the faithful but slow path that mirrors the
   paper's use of BookSim2) or with a fast analytical model
   (:mod:`repro.toolchain.analytical`) that uses the same routing tables and
   link latencies and is used for large design-space sweeps.
"""

from repro import _lazy_exports

# ``predict`` names both a submodule and the function it defines.  Importing
# a submodule binds it as an attribute of its package, so the submodule is
# imported here and the function bound over it.
from repro.toolchain.predict import PredictionToolchain, predict

_EXPORTS = {
    "repro.toolchain.analytical": (
        "AnalyticalPerformance",
        "analytical_performance",
        "pair_weights_from_trace",
    ),
    "repro.toolchain.results": ("PredictionResult",),
    "repro.toolchain.screening": ("ScreeningEstimate", "screen_topology"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "PredictionResult",
    "AnalyticalPerformance",
    "analytical_performance",
    "pair_weights_from_trace",
    "PredictionToolchain",
    "predict",
    "ScreeningEstimate",
    "screen_topology",
]
