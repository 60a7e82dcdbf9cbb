"""Prime and prime-power arithmetic.

SlimNoC (one of the baseline topologies of the paper) is only constructible
when the number of tiles ``N`` satisfies ``N = 2 * p**2`` for a prime power
``p``.  These helpers provide the prime-power tests needed for that
applicability check and for the MMS-graph construction itself.
"""

from __future__ import annotations

from repro.utils.validation import ValidationError, check_type


def is_prime_power(n: int) -> bool:
    """Return ``True`` if ``n = p**k`` for a prime ``p`` and integer ``k >= 1``."""
    check_type("n", n, int)
    if n < 2:
        return False
    return prime_power_root(n) is not None


def prime_power_root(n: int) -> tuple[int, int] | None:
    """Return ``(p, k)`` with ``n == p**k`` and ``p`` prime, or ``None``.

    If ``n`` is not a prime power, ``None`` is returned.
    """
    check_type("n", n, int)
    if n < 2:
        return None
    # The smallest prime factor of a prime power must be the prime itself.
    p = _smallest_prime_factor(n)
    m = n
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        return None
    return (p, k)


def next_prime_power(n: int) -> int:
    """Return the smallest prime power greater than or equal to ``n``."""
    check_type("n", n, int)
    if n < 2:
        return 2
    candidate = n
    while not is_prime_power(candidate):
        candidate += 1
    return candidate


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n
