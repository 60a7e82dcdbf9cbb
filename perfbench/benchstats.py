"""Summary statistics and output digests shared by the benchmark's modules.

Latencies are summarised as a median plus the highest percentile the sample
supports: a percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it, so a p90 needs 100 samples.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from typing import Any, Iterable, Sequence

#: The percentiles the benchmark reports (median and tail).
PERCENTILES = (50.0, 90.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def supported_percentile(count: int) -> float | None:
    """Highest of :data:`PERCENTILES` with :data:`MIN_BEYOND` samples beyond it.

    ``None`` when even the median is unsupported (fewer than
    ``2 * MIN_BEYOND`` samples).
    """
    best = None
    for percentile in PERCENTILES:
        # Integer-exact form of count * (1 - p/100) >= MIN_BEYOND.
        if count * (100.0 - percentile) >= MIN_BEYOND * 100.0 - 1e-9:
            best = percentile
    return best


def _rank(count: int, percentile: float) -> int:
    # The tolerance keeps float noise (99.9 / 100 * 10000 = 9990.000...02)
    # from pushing the rank one sample up.
    return min(count - 1, max(0, math.ceil(percentile * count / 100.0 - 1e-9) - 1))


def percentile(values: Iterable[float], percentile: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), percentile)]


def summary(values: Sequence[float]) -> dict[str, float | int]:
    """Median, quartiles and sample count of ``values``."""
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: Fastest seconds of the two :func:`calibration_runs` loops (interpreter,
#: numpy) on the reference host, a 2-vCPU Intel Xeon virtual machine
#: running Python 3.11 and NumPy 2.4.
CALIBRATION_REFERENCE_S = (0.0022, 0.0078)


def calibration_runs() -> tuple[float, float]:
    """Seconds of one run of each of two fixed loops: interpreter-bound
    (dict and integer work) and numpy-bound (masks, gathers, sorts on a
    20000-element array, the kind of work the batched kernel does).

    Their fastest runs over a benchmark run track how fast the host's
    shared cores ran these two kinds of work at the time.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for index in range(20000):
        key = index & 255
        table[key] = table.get(key, 0) + index
        total += len(table)
    interpreter = time.perf_counter() - start

    rng = np.random.default_rng(0)
    values = rng.random(20000)
    gather = rng.integers(0, 20000, 20000)
    start = time.perf_counter()
    for _ in range(20):
        values = np.where(values > 0.5, values[gather] * 0.5, values + 0.25)
        values[np.argsort(values[:4000], kind="stable")] += 0.001
    return interpreter, time.perf_counter() - start


def canonical_json(payload: Any) -> str:
    """The byte-stable JSON form used for digests and payload comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payloads: Any) -> str:
    """SHA-256 (hex, first 16 chars) of the canonical JSON of ``payloads``."""
    return hashlib.sha256(canonical_json(payloads).encode("utf-8")).hexdigest()[:16]
