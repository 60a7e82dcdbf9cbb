"""Unit tests for repro.utils.primes."""

from repro.utils.primes import is_prime_power, next_prime_power, prime_power_root


class TestPrimePowerRoot:
    def test_prime_itself(self):
        assert prime_power_root(7) == (7, 1)

    def test_square_of_prime(self):
        assert prime_power_root(9) == (3, 2)

    def test_power_of_two(self):
        assert prime_power_root(8) == (2, 3)
        assert prime_power_root(16) == (2, 4)

    def test_not_a_prime_power(self):
        assert prime_power_root(12) is None
        assert prime_power_root(6) is None
        assert prime_power_root(1) is None

    def test_large_prime_power(self):
        assert prime_power_root(343) == (7, 3)


class TestIsPrimePower:
    def test_prime_powers(self):
        assert all(is_prime_power(n) for n in [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49])

    def test_non_prime_powers(self):
        assert not any(is_prime_power(n) for n in [0, 1, 6, 10, 12, 15, 18, 20, 100])


class TestNextPrimePower:
    def test_already_prime_power(self):
        assert next_prime_power(8) == 8

    def test_rounds_up(self):
        assert next_prime_power(6) == 7
        assert next_prime_power(10) == 11
        assert next_prime_power(12) == 13

    def test_small_values(self):
        assert next_prime_power(0) == 2
        assert next_prime_power(1) == 2
        assert next_prime_power(2) == 2
