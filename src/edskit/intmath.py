"""Arbitrary-precision integer primitives: roots, powers, valuations, primes.

Everything here is pure and exact.  Rationals elsewhere in the package are
``fractions.Fraction`` values, which are always reduced with positive
denominator, so no separate rational type is needed.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def int_nth_root(x: int, r: int) -> Tuple[int, bool]:
    """Return (floor(x**(1/r)), exact) for x >= 0, r >= 1.

    Integer Newton iteration seeded from the bit length; terminates by
    monotone bracketing, so no floating point is involved anywhere.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1 or x < 2:
        return x, True
    # Seed: 2**ceil(bits/r) >= x**(1/r), so Newton descends monotonically.
    guess = 1 << ((x.bit_length() + r - 1) // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            break
        guess = nxt
    while guess ** r > x:  # guard against seed undershoot edge cases
        guess -= 1
    return guess, guess ** r == x


def is_rho_power(x: int, rho: int) -> bool:
    """True iff x = y**rho for some positive integer y (x >= 1)."""
    if x < 1:
        raise ValueError("x must be positive")
    return int_nth_root(x, rho)[1]


def valuation(x: int, p: int) -> int:
    """Largest e with p**e dividing x.  Sign-blind; x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be at least 2")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n below 3.3 * 10**24 (fixed base set); above that a
    strong-probable-prime test with the same bases plus extra rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    bases: Iterable[int] = _SMALL_PRIMES
    if n >= 3317044064679887385961981:
        import random

        rng = random.Random(n)
        bases = list(_SMALL_PRIMES) + [rng.randrange(2, n - 1) for _ in range(20)]
    return not any(witness(a) for a in bases)


_sieve_cache: dict = {}


def primes_up_to(limit: int) -> List[int]:
    """All primes <= limit via a cached sieve of Eratosthenes."""
    if limit < 2:
        return []
    for bound, primes in _sieve_cache.items():
        if bound >= limit:
            if bound == limit:
                return primes
            import bisect

            return primes[: bisect.bisect_right(primes, limit)]
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    primes = [i for i in range(limit + 1) if sieve[i]]
    _sieve_cache.clear()
    _sieve_cache[limit] = primes
    return primes

