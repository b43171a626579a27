import random

import pytest

from gbbench.modfield import DEFAULT_MODULUS, MILLER_RABIN_LIMIT, PrimeField, is_prime


def test_default_modulus_is_prime():
    assert DEFAULT_MODULUS == 32003
    assert is_prime(DEFAULT_MODULUS)


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 31991, 32003]
    composites = [0, 1, 4, 9, 15, 32001, 32002, 32005]
    for p in primes:
        assert is_prime(p)
    for c in composites:
        assert not is_prime(c)


def test_is_prime_miller_rabin():
    limit = 10_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    assert is_prime(2**61 - 1)
    assert not is_prime(561)                    # Carmichael
    assert not is_prime(3215031751)             # Carmichael, strong pseudoprime to 2, 3, 5, 7
    assert not is_prime((2**31 - 1) ** 2)       # square of a large prime
    assert not is_prime(318665857834031151167461)  # strong pseudoprime to every base up to 37
    with pytest.raises(ValueError):
        is_prime(MILLER_RABIN_LIMIT)
    assert PrimeField(2**61 - 1).inv(2) == 2**60


def test_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(32001)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(MILLER_RABIN_LIMIT + 2)


def test_inverse_of_two():
    # 2 * 16002 = 32004 = 32003 + 1
    F = PrimeField()
    assert F.inv(2) == 16002
    assert 2 * 16002 % F.p == 1


def test_int_level_arithmetic():
    F = PrimeField(32003)
    assert F.inv(32002) == 32002  # (-1)^-1 = -1
    assert F.inv(-2) == F.inv(32001)  # inv reduces its argument first
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(32003)


def test_inverse_random_elements():
    F = PrimeField(32003)
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randrange(1, 32003)
        assert a * F.inv(a) % F.p == 1
