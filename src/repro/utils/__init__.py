"""Shared utilities: validation helpers, prime/prime-power math, geometry, RNG."""

from repro import _lazy_exports

_EXPORTS = {
    "repro.utils.geometry": ("Point", "Rect", "manhattan_distance"),
    "repro.utils.primes": ("is_prime_power", "prime_power_root", "next_prime_power"),
    "repro.utils.rng": ("make_rng",),
    "repro.utils.validation": (
        "check_positive",
        "check_non_negative",
        "check_in_range",
        "check_type",
        "ValidationError",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

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
