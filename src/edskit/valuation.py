"""Exceptional prime set, empirical valuation-law checks, detecting primes.

The valuation law says: outside a finite exceptional set S, p divides D_n
exactly when the reduction order r_p divides n, and then

    v_p(D_n) = v_p(D_{r_p}) + v_p(n / r_p).

A violation found by the checker here is evidence that S is too small or
the model is non-minimal, never a refutation of the law.
"""

from __future__ import annotations

from math import prod
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .curve import RatPoint, WeierstrassCurve
from .errors import PrimeTooLarge, SoundnessError
from .eds import EdsTable, eds_term
from .factor import DEFAULT_EFFORT, Effort, factorize
from .intmath import is_prime, is_rho_power, valuation

BAD_REDUCTION = "bad_reduction"
DIVIDES_D1 = "divides_D1"
LAW_FAILS_AT_2 = "law_fails_at_2"
SMALL_PRIME_GUARD = "small_prime_guard"
USER_ADDED = "user_added"

# Trial division of each D_l reaches at least this far, whatever the effort's trial bound.
SIEVE_BOUND = 10 ** 4


class ExceptionalSet:
    """Finite sorted prime set with per-prime provenance tags."""

    def __init__(self) -> None:
        self.provenance: Dict[int, str] = {}

    @property
    def primes(self) -> List[int]:
        return sorted(self.provenance)

    def __contains__(self, p: int) -> bool:
        return p in self.provenance

    def add(self, p: int, reason: str) -> None:
        self.provenance.setdefault(p, reason)

    def to_json(self) -> dict:
        return {"primes": [[str(p), self.provenance[p]] for p in self.primes]}


def build_exceptional_set(
    curve: WeierstrassCurve,
    P: RatPoint,
    extra: Iterable[int] = (),
    include_guard: bool = False,
) -> ExceptionalSet:
    """Union of bad-reduction primes, Supp(D_1), 2 where the law fails there, and extras.

    Outside S the law holds at 3 too, since v_3(D_{r_3}) >= 1 > 1/(3-1).
    include_guard adds 2 and 3 whatever the curve.  The set may always be
    enlarged without affecting any downstream statement.
    """
    S = ExceptionalSet()
    disc = curve.discriminant_factorization
    if not disc.complete:
        raise PrimeTooLarge("could not factor the discriminant; bad primes unknown")
    for p, _ in disc.factors:
        S.add(p, BAD_REDUCTION)
    d1_squared = P[0].denominator
    if d1_squared > 1:
        fac = factorize(d1_squared)
        if not fac.complete:
            raise PrimeTooLarge("could not factor D_1; its support is unknown")
        for p, _ in fac.factors:
            S.add(p, DIVIDES_D1)
    if curve.a1 % 2 and 2 not in S:
        # In the formal group at 2, [2](z) = 2z - a1*z^2 + (terms of valuation >= 4): at
        # z = 2u, u odd, that is 4u(1 - a1*u) + ..., so for odd a1 the law fails at 2
        # exactly when v_2(D_{r_2}) = 1.  r_2, the least n with 2 | D_n, divides #E(F_2) <= 5.
        evens = [D for D in (eds_term(curve, P, n).D for n in range(1, 6)) if D % 2 == 0]
        if not evens:
            raise SoundnessError("no D_n with n <= 5 is even, although #E(F_2) <= 5")
        if valuation(evens[0], 2) == 1:
            S.add(2, LAW_FAILS_AT_2)
    if include_guard:
        S.add(2, SMALL_PRIME_GUARD)
        S.add(3, SMALL_PRIME_GUARD)
    for p in extra:
        S.add(p, USER_ADDED)
    return S


class LawViolation(NamedTuple):
    n: int
    clause: int  # 1: divisibility iff, 2: valuation formula
    expected: int
    actual: int


class LawReport(NamedTuple):
    p: int
    r_p: int
    violations: List[LawViolation]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_valuation_law(table: EdsTable, S: ExceptionalSet, p: int) -> LawReport:
    """Check both clauses of the law at p in one pass over the table's terms."""
    if p in S:
        raise ValueError(f"p={p} is in the exceptional set; the law is not claimed there")
    r_p = table.curve.reduction_order(table.point, p)
    terms = table.terms
    v_base = valuation(terms[r_p - 1].D, p) if r_p <= len(terms) else 0
    violations: List[LawViolation] = []
    for n, term in enumerate(terms, 1):
        v_direct = valuation(term.D, p) if term.D % p == 0 else 0
        if n % r_p:
            if v_direct:
                violations.append(LawViolation(n=n, clause=1, expected=0, actual=v_direct))
        elif not v_direct:
            violations.append(LawViolation(n=n, clause=1, expected=1, actual=0))
        else:
            v_law = v_base + valuation(n // r_p, p)
            if v_law != v_direct:
                violations.append(LawViolation(n=n, clause=2, expected=v_law, actual=v_direct))
    return LawReport(p=p, r_p=r_p, violations=violations)


class TermRadicalData(NamedTuple):
    """Primes outside S dividing D_l, with valuations and completeness, and D_l's S-free part."""

    l: int
    entries: List[Tuple[int, int]]  # (p, v_p(D_l)) for p outside S
    complete: bool
    s_free: int  # D_l with every prime of S divided out

    def power_radical(self, rho: int) -> int:
        """The product of the detecting primes found; a lower bound unless complete."""
        return prod(p for p, _ in self.detecting(rho))

    def detecting(self, rho: int) -> List[Tuple[int, int]]:
        """(p, v) with rho not dividing v; empty and incomplete means "not found", never "none"."""
        return [(p, v) for p, v in self.entries if v % rho != 0]

    def detected(self, rho: int) -> bool:
        """Whether a detecting prime exists at l, found or not.

        The obstruction checkers' detecting-prime hypotheses read this.
        """
        return detecting_prime_exists(self.s_free, rho)


def s_free_part(D: int, S: ExceptionalSet) -> int:
    """D with every prime of S divided out."""
    return D // prod(p ** valuation(D, p) for p in S.primes)


def detecting_prime_exists(s_free: int, rho: int) -> bool:
    """Whether some p outside S has rho not dividing v_p(D_l), from s_free_part(D_l, S).

    That holds exactly when the S-free part is not a rho-th power, which the
    integer root decides with no factoring and no budget.  For prime l the law,
    which holds outside S, makes every such p primitive with r_p = l.
    """
    return not is_rho_power(s_free, rho)


def term_radical_data(
    table: EdsTable, S: ExceptionalSet, l: int, effort: Effort = DEFAULT_EFFORT
) -> TermRadicalData:
    """All primes p outside S with p | D_l, with v_p(D_l), as far as the budget reaches.

    Trial division of D_l reaches at least SIEVE_BOUND, rho and ECM take the
    cofactor.  When l is prime, every prime found is verified to have
    reduction order exactly l.  The S-free part is exact whatever the budget.
    """
    effort = Effort(max(effort.trial_bound, SIEVE_BOUND), effort.rho_iterations, effort.wall_clock)
    D = table.D(l)
    fac = factorize(D, effort)
    entries = [(p, v) for p, v in fac.factors if p not in S]
    for p, _ in entries:
        _verify_structured_divisor(table, p, l)
    return TermRadicalData(l=l, entries=entries, complete=fac.complete, s_free=s_free_part(D, S))


def _verify_structured_divisor(table: EdsTable, p: int, l: int) -> None:
    """Check that p | D_l is structured as the law predicts.

    For prime l: r_p must be exactly l, i.e. P mod p is not O and
    [l]P = O mod p, which costs O(log l) group operations for any p.  That
    also certifies primitivity (p divides no D_m with m < l), which is
    additionally checked against the stored table rather than assumed.
    """
    if not is_prime(l):
        return
    E = table.curve.fp_curve(p)
    Q = E.reduce(table.point)
    if Q is None or E.mul(l, Q) is not None:
        raise SoundnessError(f"prime {p} divides D_{l} but its reduction order is not {l}")
    for m in range(1, l):
        if table.D(m) % p == 0:
            raise SoundnessError(f"prime {p} dividing D_{l} is not primitive: p | D_{m}")
