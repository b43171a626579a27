"""Arithmetic in the prime field Z_p. The benchmark default is p = 32003."""

from __future__ import annotations

DEFAULT_MODULUS = 32003


# Miller-Rabin with the prime bases up to 41 decides primality exactly for
# every n below MILLER_RABIN_LIMIT (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= MILLER_RABIN_LIMIT,
    where the fixed bases no longer decide primality."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Context object for Z_p: the modulus and inversion. The engine does the
    rest of its arithmetic inline on canonical ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_MODULUS):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        if p == 2:
            raise ValueError("modulus 2 not supported; use an odd prime")
        self.p = p

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero mod p."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in Z_{self.p}")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
