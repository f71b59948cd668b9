"""Integer factorization with explicit partiality.

Partial factorizations are a first-class outcome: a ``Factorization``
carries the unfactored cofactor, so downstream theorem checkers can
downgrade to "inconclusive" instead of silently trusting a lower bound.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .intmath import cached_primes, is_prime, primes_up_to, valuation


class _EffortFields(NamedTuple):
    trial_bound: int
    rho_iterations: int
    wall_clock: float


class Effort(_EffortFields):
    """Budget for a factorization attempt.

    ``rho_iterations`` is a counted budget per composite cofactor, shared
    by Pollard rho and ECM.  A rho step y -> y*y + c costs one unit (it
    takes one or two modular multiplications); an ECM curve costs one
    unit per modular multiplication, squaring or inverse, about 22 000
    in all, and starts only if that much is left.  ``wall_clock`` is only
    a safety stop, checked by rho and between ECM curves.

    Build every Effort through this constructor: ``_replace`` and ``_make``
    skip the field check.
    """

    __slots__ = ()

    def __new__(
        cls, trial_bound: int = 10 ** 6, rho_iterations: int = 10 ** 7, wall_clock: float = 60.0
    ) -> "Effort":
        self = super().__new__(cls, trial_bound, rho_iterations, wall_clock)
        # factorize takes any survivor below trial_bound**2 for a prime: no field may be negative.
        for name, value in zip(self._fields, self):
            if not value >= 0:  # NaN compares false
                raise ValueError(f"effort {name} must be non-negative, not {value}")
        return self


DEFAULT_EFFORT = Effort()

# Trial division tests this many consecutive primes with one gcd.
TRIAL_CHUNK = 256
# Trial division first stops here; the primes up to a larger trial bound are
# stripped only where rho, ECM or the cofactor they leave show one.
FIRST_TRIAL_BOUND = 1 << 15
# Each composite cofactor first gets this many rho steps, which find
# factors of up to about 24 bits more cheaply than one ECM curve.
RHO_SHORT_RUN = 1 << 13
# ECM bounds: stage 1 multiplies by every prime power <= B1, stage 2 looks
# for one more prime in (B1, B2], in giant steps of 2 * 210.
ECM_B1 = 800
ECM_B2 = 50 * ECM_B1
_WHEEL = 210
_GIANT = 2 * _WHEEL
_BABY = tuple(j for j in range(1, _WHEEL, 2) if math.gcd(j, _WHEEL) == 1)

_chunk_products: Dict[int, int] = {}


class Factorization(NamedTuple):
    """Multiset of prime powers, sorted by prime, plus an optional unfactored cofactor.

    Each listed exponent is exact: for every (p, e) in ``factors``,
    v_p(n) == e, so p does not divide the cofactor.  ``complete`` when
    cofactor == 1; otherwise the cofactor is composite (or of
    unestablished primality).
    """

    n: int
    factors: List[Tuple[int, int]]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def _chunk_product(start: int, primes: List[int]) -> int:
    """Product of the TRIAL_CHUNK primes from index start, built on first use.

    Every prime list here is the cached list of the primes in order, so a
    full chunk is determined by its start index.
    """
    prod = _chunk_products.get(start)
    if prod is None:
        prod = _chunk_products[start] = math.prod(primes[start : start + TRIAL_CHUNK])
    return prod


def _trial_divide(x: int, bound: int) -> Tuple[List[Tuple[int, int]], int]:
    """Strip the primes <= bound from x; returns (factors, survivor).

    Stops at the first prime p with p*p above what is left, so the survivor
    is 1, a prime, or free of primes <= bound.  The primes come from the
    cached list, read in place up to min(bound, isqrt(x) + 1).  A full chunk of
    TRIAL_CHUNK primes is tested with one gcd against its product and
    scanned prime by prime only when that gcd exceeds 1; the shorter last
    chunk is scanned directly, since its product would serve no other x.
    """
    factors: List[Tuple[int, int]] = []
    rest = x
    cap = min(bound, math.isqrt(x) + 1)
    primes = cached_primes(cap)
    stop = bisect.bisect_right(primes, cap)
    for start in range(0, stop, TRIAL_CHUNK):
        if primes[start] * primes[start] > rest:
            break
        end = min(start + TRIAL_CHUNK, stop)
        if end - start < TRIAL_CHUNK:
            g = rest
        else:
            g = math.gcd(rest, _chunk_product(start, primes))
            if g == 1:
                continue
        for p in primes[start:end]:
            if p * p > rest:
                break
            if g % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                factors.append((p, e))
    return factors, rest


def _brent_rho(n: int, iteration_cap: int, deadline: float) -> Tuple[int | None, int]:
    """Brent's cycle variant of Pollard rho.

    Returns (a nontrivial factor or None, iterations spent).  Every step
    y -> y*y + c counts as one iteration, and a run stops before it would
    pass iteration_cap, bar the backtrack of at most 128 steps that
    recovers a factor from a batched gcd equal to n.
    """
    if n % 2 == 0:
        return 2, 0
    rng = random.Random(1 ^ n)
    spent = 0
    while spent + 1 < iteration_cap and time.monotonic() < deadline:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and spent + r < iteration_cap:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r
            k = 0
            while k < r and g == 1 and spent < iteration_cap:
                ys = y
                steps = min(m, r - k, iteration_cap - spent)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += steps
                g = math.gcd(q, n)
                k += m
            r *= 2
            if time.monotonic() >= deadline:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
        if 1 < g < n:
            return g, spent
    return None, spent


# -- ECM on Montgomery curves By^2 = x^3 + Ax^2 + x, x-only (X:Z) ---------
#
# a24 = (A + 2) / 4.  xDBL costs 5 multiplications, xADD 6, and a ladder
# for k costs one xDBL plus one of each per bit of k after the first.


def _xdbl(X: int, Z: int, n: int, a24: int) -> Tuple[int, int]:
    s = (X + Z) * (X + Z) % n
    d = (X - Z) * (X - Z) % n
    t = s - d
    return s * d % n, t * (d + a24 * t % n) % n


def _xadd(X1: int, Z1: int, X2: int, Z2: int, Xd: int, Zd: int, n: int) -> Tuple[int, int]:
    """x(P1 + P2) from x(P1), x(P2) and x(P1 - P2)."""
    u = (X1 - Z1) * (X2 + Z2) % n
    v = (X1 + Z1) * (X2 - Z2) % n
    w = u + v
    z = u - v
    return Zd * w * w % n, Xd * z * z % n


def _ladder(k: int, X: int, Z: int, n: int, a24: int) -> Tuple[int, int, int, int]:
    """(X:Z) of [k]P and [k+1]P for k >= 1, by the Montgomery ladder.

    The loop writes out _xadd and _xdbl, with the same products, since it runs
    once per bit of the stage-1 scalar.  The sum x(P0 + P1) is computed before
    the branch: swapping P0 and P1 in _xadd only negates z.
    """
    X0, Z0 = X, Z
    X1, Z1 = _xdbl(X, Z, n, a24)
    for bit in bin(k)[3:]:
        a0, b0 = X0 + Z0, X0 - Z0
        a1, b1 = X1 + Z1, X1 - Z1
        u = b0 * a1 % n
        v = a0 * b1 % n
        w = u + v
        z = u - v
        if bit == "1":
            X0 = Z * w * w % n
            Z0 = X * z * z % n
            s = a1 * a1 % n
            d = b1 * b1 % n
            t = s - d
            X1 = s * d % n
            Z1 = t * (d + a24 * t % n) % n
        else:
            X1 = Z * w * w % n
            Z1 = X * z * z % n
            s = a0 * a0 % n
            d = b0 * b0 % n
            t = s - d
            X0 = s * d % n
            Z0 = t * (d + a24 * t % n) % n
    return X0, Z0, X1, Z1


def _ladder_cost(k: int) -> int:
    return 5 + 11 * (k.bit_length() - 1)


@lru_cache(maxsize=1)
def _ecm_plan() -> Tuple[int, List[Tuple[int, List[int]]], int]:
    """(stage-1 scalar, stage-2 giant steps, cost of one curve).

    Stage 1 multiplies by the largest power <= B1 of every prime <= B1.
    Stage 2 writes each prime p in (B1, B2] as m*420 +- j with j in _BABY
    and catches [p]Q = O through x([m*420]Q) = x([j]Q); the giant steps
    list each m with its j.
    """
    primes = primes_up_to(ECM_B2)
    cut = bisect.bisect_right(primes, ECM_B1)
    scalar = 1
    for p in primes[:cut]:
        q = p
        while q * p <= ECM_B1:
            q *= p
        scalar *= q
    giant: Dict[int, List[int]] = {}
    for p in primes[cut:]:
        m = (p + _WHEEL) // _GIANT
        giant.setdefault(m, []).append(abs(p - m * _GIANT))
    steps = sorted(giant.items())
    m_first, m_last = steps[0][0], steps[-1][0]
    cost = (
        11  # Suyama's parametrization, counting the inverse as one unit
        + _ladder_cost(scalar)
        + 5 + 6 * (_WHEEL // 2 - 1)  # [2]Q, then [j]Q for odd j = 3..209
        + 4 * len(_BABY) + 1  # x([j]Q) for j in _BABY, by one batched inverse
        + _ladder_cost(_GIANT) + _ladder_cost(m_first)  # [420]Q, [m_first*420]Q
        + 6 * (m_last - m_first)  # the other giant steps
        + 2 * (len(primes) - cut)  # per prime: x([j]Q)*Z, and the accumulator
    )
    return scalar, steps, cost


def _ecm_curve(n: int, sigma: int) -> int | None:
    """One ECM curve on odd n with Suyama's parameter sigma; a factor or None."""
    scalar, steps, _ = _ecm_plan()
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3 = u * u * u % n
    den = 16 * u3 * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g if g < n else None
    t = v - u
    a24 = t * t * t % n * (3 * u + v) * pow(den, -1, n) % n
    X, Z, _, _ = _ladder(scalar, u3, v * v * v % n, n, a24)
    g = math.gcd(Z, n)
    if g != 1:
        return g if g < n else None
    # Baby steps: [j]Q for odd j < 210, then x([j]Q) for j in _BABY.
    X2, Z2 = _xdbl(X, Z, n, a24)
    odd = [(X, Z), _xadd(X2, Z2, X, Z, X, Z, n)]  # [1]Q, [3]Q
    while len(odd) < _WHEEL // 2:
        odd.append(_xadd(*odd[-1], X2, Z2, *odd[-2], n))
    baby = [odd[j // 2] for j in _BABY]
    prefix = [1]
    for _, Zj in baby:
        prefix.append(prefix[-1] * Zj % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g if g < n else None
    inv = pow(prefix[-1], -1, n)
    affine = [0] * _WHEEL
    for i in range(len(baby) - 1, -1, -1):
        Xj, Zj = baby[i]
        affine[_BABY[i]] = Xj * (inv * prefix[i] % n) % n
        inv = inv * Zj % n
    # Giant steps: [m*420]Q, accumulating x([m*420]Q) - x([j]Q) over each m's j.
    TX, TZ, _, _ = _ladder(_GIANT, X, Z, n, a24)
    m = steps[0][0]
    X0, Z0, X1, Z1 = _ladder(m, TX, TZ, n, a24)
    acc = 1
    for mp, js in steps:
        while m < mp:
            X0, Z0, (X1, Z1) = X1, Z1, _xadd(X1, Z1, TX, TZ, X0, Z0, n)
            m += 1
        for j in js:
            acc = acc * (X0 - affine[j] * Z0) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _ecm(n: int, budget: int, deadline: float) -> int | None:
    """ECM curves on odd composite n while a whole curve fits in the budget.

    The curve parameters come from random.Random(n), so the outcome
    depends only on n and the budget, and not on the global random state.
    """
    cost = _ecm_plan()[2]
    rng = random.Random(n)
    while budget >= cost and time.monotonic() < deadline:
        budget -= cost
        d = _ecm_curve(n, rng.randrange(6, n - 1))
        if d is not None:
            return d
    return None


def _split(n: int, budget: int, deadline: float) -> int | None:
    """A nontrivial factor of the composite n within the counted budget, or None.

    A short Brent rho run goes first, since it finds small factors faster
    than one ECM curve; ECM gets what the rho run left.
    """
    d, spent = _brent_rho(n, min(RHO_SHORT_RUN, budget), deadline)
    if d is None:
        d = _ecm(n, budget - spent, deadline)
    return d


def _split_survivor(
    rest: int, small: int, budget: int, deadline: float
) -> Tuple[Optional[Set[int]], int]:
    """The primes of rest that rho and ECM find, each composite piece within the budget.

    Returns (those primes, 1), or (None, piece) as soon as a piece <= small
    turns up.
    """
    found = set()
    stack = [rest]
    while stack:
        m = stack.pop()
        if m <= small:
            return None, m
        if is_prime(m):  # the one primality test of each cofactor
            found.add(m)
            continue
        d = _split(m, budget, deadline)
        if d is not None:
            stack.append(d)
            stack.append(m // d)
    return found, 1


def _primes_to(x: int, bound: int) -> List[int]:
    """The primes <= bound that divide x, by trial division."""
    factors, rest = _trial_divide(x, bound)
    # A survivor <= bound has no prime <= bound left to hide, so it is 1 or a prime.
    return [p for p, _ in factors] + ([rest] if 1 < rest <= bound else [])


def factorize(x: int, effort: Effort = DEFAULT_EFFORT) -> Factorization:
    """Trial division to effort.trial_bound, then rho and ECM within budget.

    Trial division stops first at FIRST_TRIAL_BOUND.  A prime above that and
    at most effort.trial_bound is stripped only once it shows: as a piece that
    rho or ECM split off, or in the cofactor they leave, which trial division
    then searches.  Rho and ECM start again on what is left.  So they end on
    the number that trial division to the whole bound leaves, and the result
    is the same.
    """
    if x < 1:
        raise ValueError("x must be positive")
    bound = effort.trial_bound
    first = min(bound, FIRST_TRIAL_BOUND)
    # A piece at most this holds a prime that trial division to bound strips.
    small = bound if first < bound else 0
    factors, rest = _trial_divide(x, first)
    deadline = time.monotonic() + effort.wall_clock
    stripped: List[Tuple[int, int]] = []
    while True:
        if rest <= first * first:
            # Below the square of the trial bound any survivor is 1 or prime.
            found, cofactor = ([(rest, 1)] if rest > 1 else []), 1
            break
        primes, piece = _split_survivor(rest, small, effort.rho_iterations, deadline)
        if primes is not None:
            # A prime found in one piece may also divide a piece left unsplit, so
            # its exponent is counted in rest itself; what is left is the cofactor.
            found = [(p, valuation(rest, p)) for p in primes]
            cofactor = rest // math.prod(p ** e for p, e in found)
            if cofactor == 1 or not small:
                break
            piece = cofactor
        more = _primes_to(piece, bound)
        if not more:
            break
        for p in more:
            e = valuation(rest, p)
            rest //= p ** e
            stripped.append((p, e))
    return Factorization(x, factors + sorted(stripped + found), cofactor)
