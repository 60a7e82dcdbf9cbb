"""Shared utilities: validation helpers, prime/prime-power math, geometry, RNG."""

from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
    ValidationError,
)
from repro.utils.primes import is_prime_power, prime_power_root, next_prime_power
from repro.utils.geometry import Point, Rect, manhattan_distance
from repro.utils.rng import make_rng

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "ValidationError",
    "is_prime_power",
    "prime_power_root",
    "next_prime_power",
    "Point",
    "Rect",
    "manhattan_distance",
    "make_rng",
]
