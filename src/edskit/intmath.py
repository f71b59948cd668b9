"""Arbitrary-precision integer primitives: roots, powers, valuations, primes.

Everything here is pure and exact.  Rationals elsewhere in the package are
``fractions.Fraction`` values, which are always reduced with positive
denominator, so no separate rational type is needed.
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import compress
from typing import Iterable, List, Tuple


def int_nth_root(x: int, r: int) -> Tuple[int, bool]:
    """Return (floor(x**(1/r)), exact) for x >= 0, r >= 1.

    Square roots come from ``math.isqrt``, higher roots from
    ``_newton_root``; no floating point is involved anywhere.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1 or x < 2:
        return x, True
    root = math.isqrt(x) if r == 2 else _newton_root(x, r)
    return root, root ** r == x


def _newton_root(x: int, r: int) -> int:
    """floor(x**(1/r)) for x >= 2, r >= 2 by integer Newton iteration.

    Seeded from the bit length; terminates by monotone bracketing.
    """
    # Seed: 2**ceil(bits/r) >= x**(1/r), so Newton descends monotonically.
    guess = 1 << ((x.bit_length() + r - 1) // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            break
        guess = nxt
    while guess ** r > x:  # guard against seed undershoot edge cases
        guess -= 1
    return guess


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
        rng = random.Random(n)
        bases = list(_SMALL_PRIMES) + [rng.randrange(2, n - 1) for _ in range(20)]
    return not any(witness(a) for a in bases)


# (bound, every prime <= bound): the largest sieve run so far.
_sieve: Tuple[int, List[int]] = (1, [])


def cached_primes(limit: int) -> List[int]:
    """Every prime up to some bound >= limit, in order: the cached list itself, never a copy.

    The sieve of Eratosthenes runs again, to exactly limit, only when limit
    passes the cached bound.  It sieves the odd numbers only: entry i
    stands for 2*i + 1.  Callers must not change the list.
    """
    global _sieve
    bound, primes = _sieve
    if limit > bound:
        sieve = bytearray([1]) * ((limit + 1) // 2)
        sieve[0] = 0
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if sieve[i]:
                # Odd multiples of q = 2i + 1 from q*q on, q entries apart.
                q = 2 * i + 1
                start = q * q // 2
                sieve[start::q] = bytes((len(sieve) - 1 - start) // q + 1)
        primes = [2]
        primes += compress(range(1, limit + 1, 2), sieve)
        _sieve = (limit, primes)
    return primes


def primes_up_to(limit: int) -> List[int]:
    """All primes <= limit, as a new list cut from the cached sieve."""
    primes = cached_primes(limit)
    return primes[: bisect.bisect_right(primes, limit)]
