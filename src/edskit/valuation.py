"""Exceptional prime set, empirical valuation-law checks, detecting primes.

The valuation law says: outside a finite exceptional set S, p divides D_n
exactly when the reduction order r_p divides n, and then

    v_p(D_n) = v_p(D_{r_p}) + v_p(n / r_p).

A violation found by the checker here is evidence that S is too small or
the model is non-minimal, never a refutation of the law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .curve import RatPoint, WeierstrassCurve
from .errors import PrimeTooLarge, SoundnessError, TableMiss
from .eds import EdsTable
from .factor import DEFAULT_EFFORT, Effort, factorize
from .intmath import is_prime, primes_up_to, valuation

BAD_REDUCTION = "bad_reduction"
DIVIDES_D1 = "divides_D1"
SMALL_PRIME_GUARD = "small_prime_guard"
USER_ADDED = "user_added"


@dataclass
class ExceptionalSet:
    """Finite sorted prime set with per-prime provenance tags."""

    provenance: Dict[int, str] = field(default_factory=dict)

    @property
    def primes(self) -> List[int]:
        return sorted(self.provenance)

    def __contains__(self, p: int) -> bool:
        return p in self.provenance

    def __iter__(self):
        return iter(self.primes)

    def add(self, p: int, reason: str) -> None:
        self.provenance.setdefault(p, reason)

    def to_json(self) -> dict:
        return {"primes": [[str(p), self.provenance[p]] for p in self.primes]}


def build_exceptional_set(
    curve: WeierstrassCurve,
    P: RatPoint,
    extra: Iterable[int] = (),
    include_guard: bool = True,
    effort: Effort = DEFAULT_EFFORT,
) -> ExceptionalSet:
    """Union of bad-reduction primes, Supp(D_1), the {2,3} guard, and extras.

    The guard can be switched off for fixtures whose valuation law has
    been verified at 2 and 3 directly; the set may always be enlarged
    without affecting any downstream statement.
    """
    S = ExceptionalSet()
    disc = factorize(abs(curve.discriminant), effort)
    if not disc.complete:
        raise PrimeTooLarge("could not factor the discriminant; bad primes unknown")
    for p, _ in disc.factors:
        S.add(p, BAD_REDUCTION)
    x = Fraction(P[0])
    d1_squared = x.denominator
    if d1_squared > 1:
        fac = factorize(d1_squared, effort)
        if not fac.complete:
            raise PrimeTooLarge("could not factor D_1; its support is unknown")
        for p, _ in fac.factors:
            S.add(p, DIVIDES_D1)
    if include_guard:
        S.add(2, SMALL_PRIME_GUARD)
        S.add(3, SMALL_PRIME_GUARD)
    for p in extra:
        S.add(p, USER_ADDED)
    return S


@dataclass
class LawViolation:
    n: int
    clause: int  # 1: divisibility iff, 2: valuation formula
    expected: int
    actual: int


@dataclass
class LawReport:
    p: int
    r_p: int
    n_max: int
    violations: List[LawViolation]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_valuation_law(
    curve: WeierstrassCurve,
    P: RatPoint,
    S: ExceptionalSet,
    p: int,
    n_max: int,
    table: EdsTable,
) -> LawReport:
    """Assert both clauses of the law against directly computed v_p(D_n)."""
    if p in S:
        raise ValueError(f"p={p} is in the exceptional set; the law is not claimed there")
    r_p = curve.reduction_order(P, p)
    violations: List[LawViolation] = []
    v_base = valuation(table.D(r_p), p) if r_p <= table.max_index else None
    for n in range(1, n_max + 1):
        Dn = table.D(n)
        v_direct = valuation(Dn, p) if Dn % p == 0 else 0
        divides = n % r_p == 0
        if (v_direct > 0) != divides:
            violations.append(LawViolation(n=n, clause=1, expected=int(divides), actual=v_direct))
            continue
        if divides:
            if v_base is None:
                raise TableMiss(f"table does not cover r_p={r_p}")
            q = n // r_p
            v_law = v_base + (valuation(q, p) if q > 1 else 0)
            if v_law != v_direct:
                violations.append(LawViolation(n=n, clause=2, expected=v_law, actual=v_direct))
    return LawReport(p=p, r_p=r_p, n_max=n_max, violations=violations)


def valuation_via_law(
    curve: WeierstrassCurve,
    P: RatPoint,
    S: ExceptionalSet,
    p: int,
    n: int,
    table: EdsTable,
) -> int:
    """v_p(D_n) via the law; only D_{r_p} is read, never D_n itself."""
    if p in S:
        raise ValueError(f"p={p} is in the exceptional set")
    r_p = curve.reduction_order(P, p)
    if n % r_p != 0:
        return 0
    if r_p > table.max_index:
        raise TableMiss(f"table does not cover r_p={r_p}")
    v = valuation(table.D(r_p), p)
    q = n // r_p
    return v + (valuation(q, p) if q > 1 else 0)


@dataclass
class TermRadicalData:
    """Primes outside S dividing D_l, with valuations and completeness."""

    l: int
    entries: List[Tuple[int, int]]  # (p, v_p(D_l)) for p outside S
    complete: bool

    def power_radical(self, rho: int) -> Tuple[int, str]:
        value = 1
        for p, v in self.entries:
            if v % rho != 0:
                value *= p
        return value, ("certain" if self.complete else "lower_bound")

    def detecting(self, rho: int) -> List[Tuple[int, int]]:
        return [(p, v) for p, v in self.entries if v % rho != 0]


def term_radical_data(
    curve: WeierstrassCurve,
    P: RatPoint,
    S: ExceptionalSet,
    l: int,
    table: EdsTable,
    sieve_bound: int = 10 ** 4,
    effort: Effort = DEFAULT_EFFORT,
) -> TermRadicalData:
    """All primes p outside S with p | D_l, found by the two-pronged search.

    Small primes come from the sieve, the cofactor from generic factoring
    within the budget.  When l is prime, every prime found is verified to
    have reduction order exactly l.
    """
    D_l = table.D(l)
    entries: List[Tuple[int, int]] = []
    if D_l == 1:
        return TermRadicalData(l=l, entries=[], complete=True)
    residual = D_l
    for p in primes_up_to(min(sieve_bound, D_l)):
        if residual % p != 0:
            continue
        v = valuation(residual, p)
        residual //= p ** v
        if p in S:
            continue
        _verify_structured_divisor(curve, P, p, l, table)
        entries.append((p, v))
    complete = residual == 1
    if not complete:
        fac = factorize(residual, effort)
        for p, v in fac.factors:
            if p in S:
                continue
            _verify_structured_divisor(curve, P, p, l, table)
            entries.append((p, v))
        complete = fac.complete
    entries.sort()
    return TermRadicalData(l=l, entries=entries, complete=complete)


def _verify_structured_divisor(
    curve: WeierstrassCurve,
    P: RatPoint,
    p: int,
    l: int,
    table: EdsTable,
) -> None:
    """Check that p | D_l is structured as the law predicts.

    For prime l: r_p must be exactly l, i.e. P mod p is not O and
    [l]P = O mod p, which costs O(log l) group operations for any p.  That
    also certifies primitivity (p divides no D_m with m < l), which is
    additionally checked against the stored table rather than assumed.
    """
    if not is_prime(l):
        return
    Q = curve.reduce_point(P, p)
    if Q is None or curve.fp_curve(p).mul(l, Q) is not None:
        raise SoundnessError(f"prime {p} divides D_{l} but its reduction order is not {l}")
    for m in range(1, l):
        if m <= table.max_index and table.D(m) % p == 0:
            raise SoundnessError(f"prime {p} dividing D_{l} is not primitive: p | D_{m}")


def detecting_primes(
    curve: WeierstrassCurve,
    P: RatPoint,
    S: ExceptionalSet,
    l: int,
    rho: int,
    table: EdsTable,
    sieve_bound: int = 10 ** 4,
    effort: Effort = DEFAULT_EFFORT,
) -> Tuple[List[Tuple[int, int]], bool]:
    """(detecting primes for index l, search-complete flag).

    A detecting prime is p outside S with p | D_l and rho not dividing
    v_p(D_l).  Emptiness with complete=False means "not found within
    budget", never "does not exist".
    """
    data = term_radical_data(curve, P, S, l, table, sieve_bound, effort)
    return data.detecting(rho), data.complete
