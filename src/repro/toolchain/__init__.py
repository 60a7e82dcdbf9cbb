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

from repro.toolchain.results import PredictionResult
from repro.toolchain.analytical import (
    AnalyticalPerformance,
    analytical_performance,
    pair_weights_from_trace,
)
from repro.toolchain.predict import PredictionToolchain, predict
from repro.toolchain.screening import ScreeningEstimate, screen_topology

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
