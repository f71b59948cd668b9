"""Incidence algebra over F_rho and the product-obstruction checkers.

Every checker evaluates a NECESSARY condition for a product of sequence
terms to be a rho-th power.  Verdicts are three-valued:

  holds        - the necessary condition is satisfied (no obstruction),
  fails        - the condition is violated; under verified hypotheses this
                 certifies the product is not a rho-th power,
  inconclusive - hypotheses could not be verified (a D_l factored only in
                 part, no detecting prime, vacuous case).

No checker ever claims a product IS a rho-th power; positive confirmation
always routes through the exact integer root test.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, isqrt, prod, sqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .eds import EdsTable, _decimal
from .errors import HypothesisViolated, SoundnessError, TableMiss
from .factor import DEFAULT_EFFORT, Effort, Factorization, factorize
from .intmath import primes_up_to, valuation
from .relation import test_relation
from .valuation import ExceptionalSet, TermRadicalData, term_radical_data

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class ObstructionVerdict:
    """One checker's verdict."""

    def __init__(
        self,
        statement: str,
        verdict: str,
        hypotheses: Dict[str, bool],
        witnesses: Dict[str, object],
        notes: Optional[List[str]] = None,
    ):
        self.statement = statement
        self.verdict = verdict
        self.hypotheses = hypotheses
        self.witnesses = witnesses
        self.notes = [] if notes is None else notes
        self._json: Optional[dict] = None

    @property
    def certified_exclusion(self) -> bool:
        """True when "fails" stands on fully verified hypotheses."""
        return self.verdict == FAILS and all(self.hypotheses.values())

    def to_json(self) -> dict:
        """One dict, built on the first call: a verdict is never changed once built."""
        if self._json is None:
            self._json = _Block(
                statement=self.statement,
                verdict=self.verdict,
                hypotheses=self.hypotheses,
                witnesses={k: _jsonable(v) for k, v in self.witnesses.items()},
                notes=self.notes,
            )
        return self._json


class _Block(dict):
    """A verdict's JSON dict.  The subclass marks it for the CLI's JSON writer,
    which encodes a block whole, once, and reuses the text wherever it recurs."""

    __slots__ = ()


def _jsonable(v):
    if isinstance(v, int):  # bools too: _decimal(True) is str(True), "True"
        return _decimal(v)  # decimal strings, no precision loss, past the digit limit
    if isinstance(v, (list, tuple, set)):
        return [_jsonable(x) for x in (sorted(v) if isinstance(v, set) else v)]
    return v


class ObstructionContext:
    """One obstruction run on the table's (E, P): S, the prime rho and the smoothness
    bound B >= 2, with caches of work shared across tuples: radical data, index
    factorizations and the blocks of _prime_block.  No detecting threshold is assumed:
    every exclusion needs a detecting prime proven to exist at each l it uses."""

    def __init__(
        self,
        table: EdsTable,
        S: ExceptionalSet,
        rho: int,
        B=2,
        effort: Effort = DEFAULT_EFFORT,
    ):
        self.table = table
        self.S = S
        self.rho = rho
        self.B = B
        self.effort = effort
        # The least integer l > (sqrt(B) + 1)^2 = B + 1 + 2 sqrt(B): it is at least
        # floor(B) + floor(2 sqrt(B)) + 2, and floor(2 sqrt(B)) = isqrt(floor(4B)),
        # with 4B exact: a finite float B can have 4B past the float range.
        l = floor(B) + isqrt(floor(4 * Fraction(B))) + 2
        while not _exceeds_sqrtB_plus_1_sq(l, B):
            l += 1
        self.B_bound = l
        self._radical_cache: Dict[int, TermRadicalData] = {}
        self._factor_cache: Dict[int, Factorization] = {}
        self._blocks: Dict[tuple, _PrimeBlock] = {}

    def radical_data(self, l: int) -> TermRadicalData:
        if l not in self._radical_cache:
            self._radical_cache[l] = term_radical_data(self.table, self.S, l, self.effort)
        return self._radical_cache[l]

    def factorization(self, x: int) -> Factorization:
        """The complete factorization of an index or a product of quotients n_i / l, once per x.

        Every prime of such an x is at most the table's largest index, so trial division
        to it completes the factorization: the effort budgets only the D_l.
        """
        if x not in self._factor_cache:
            fac = factorize(x, Effort(self.table.max_index, 0, 0))
            if not fac.complete:
                raise TableMiss(f"{x} has primes past the table range 1..{self.table.max_index}")
            self._factor_cache[x] = fac
        return self._factor_cache[x]


# -- index-tuple combinatorics -----------------------------------------


def incidence_set(n: Sequence[int], l: int) -> List[int]:
    """I_l(n): 1-based positions i with l | n_i."""
    return [i for i, ni in enumerate(n, start=1) if ni % l == 0]


def gf_rank(rows: List[List[int]], rho: int) -> int:
    """Rank over F_rho by dense Gaussian elimination."""
    mat = [[x % rho for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % rho != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, rho)
        mat[rank] = [x * inv % rho for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % rho != 0:
                c = mat[r][col]
                mat[r] = [(a - c * b) % rho for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# -- exact threshold arithmetic ----------------------------------------


def _exceeds_sqrtB_plus_1_sq(l: int, B) -> bool:
    """l > (sqrt(B) + 1)^2, exactly, for rational B >= 2."""
    B = Fraction(B)
    t = Fraction(l) - B - 1
    return t > 0 and t * t > 4 * B


def _below_sqrt_l_minus_1_sq(q: int, l: int) -> bool:
    """q < (sqrt(l) - 1)^2, exactly."""
    t = l + 1 - q
    return t > 0 and t * t > 4 * l


def _hasse_compatible(l: int, q: int) -> bool:
    """l <= q + 1 + 2*sqrt(q), exactly."""
    t = l - q - 1
    return t <= 0 or t * t <= 4 * q


def _radical_meets_bound(rad: int, ells: Sequence[int]) -> Optional[bool]:
    """rad >= prod over ells of (sqrt(l) - 1)^2 for primes l, or None if too close to call.

    With s = isqrt(l * 4^k), 2^k * (sqrt(l) - 1)^2 = 2^k * (l + 1) - 2 * sqrt(l * 4^k) lies
    in [2^k * (l + 1) - 2s - 2, 2^k * (l + 1) - 2s]; k outgrows the product's bit size.
    """
    k = 16 + 2 * len(ells) + sum(l.bit_length() for l in ells)
    lo = hi = 1
    for l in ells:
        s = isqrt(l << 2 * k)
        lo *= ((l + 1) << k) - 2 * (s + 1)
        hi *= ((l + 1) << k) - 2 * s
    scaled = rad << k * len(ells)
    if scaled >= hi:
        return True
    return False if scaled < lo else None


def _top_primes(fac: Factorization) -> Tuple[int, int]:
    """(P^+(x), P^+(x / P^+(x))) from x's complete factorization, with P^+(1) = 1.

    The second is P^+(x) again when P^+(x)^2 | x.
    """
    if not fac.factors:
        return 1, 1
    p, e = fac.factors[-1]  # factors are sorted
    if e > 1:
        return p, p
    return p, fac.factors[-2][0] if len(fac.factors) > 1 else 1


class PrimeFacts(NamedTuple):
    """What the tuple n is at one prime l, decided once and read by every per-l checker."""

    l: int
    I: List[int]  # I_l(n)
    top: bool  # l is the simple top prime of every n_i with i in I
    reasons: List[str]  # why the smooth-cofactor hypotheses fail at l; empty when they hold


def prime_facts(ctx: ObstructionContext, n: Sequence[int], l: int) -> PrimeFacts:
    """The facts of n at l.  n_i is checked for v_l(n_i) = 1 first, then for P^+(n_i) = l from
    its factorization.  n_i / l is B-smooth exactly when P^+(n_i / l) <= B, read once l is
    n_i's simple top prime."""
    reasons = []
    if l < ctx.B_bound:
        reasons.append(f"l={l} does not exceed (sqrt(B)+1)^2 for B={ctx.B}")
    I = incidence_set(n, l)
    top = True
    for i in I:
        ni, v = n[i - 1], valuation(n[i - 1], l)
        p, cofactor_top = _top_primes(ctx.factorization(ni))
        if v != 1 or p != l:
            top = False
            reasons.append(
                f"v_l(n_{i})={v} != 1" if v != 1
                else f"l is not the largest prime divisor of n_{i}={ni}"
            )
        elif cofactor_top > ctx.B:
            reasons.append(f"cofactor n_{i}/l={ni // l} is not B-smooth")
    return PrimeFacts(l, I, top, reasons)


def _exclusion(
    statement: str, hyp: Dict[str, bool], wit: dict, detected: bool, fails: str, weak: str
) -> ObstructionVerdict:
    """A violated necessary condition: fails only where detecting primes provably exist."""
    if detected:
        return ObstructionVerdict(statement, FAILS, hyp, wit, [fails])
    return ObstructionVerdict(statement, INCONCLUSIVE, hyp, wit, [weak])


# -- valuation-congruence checkers -------------------------------------


class _Congruence(NamedTuple):
    """Silverman's law v_p(D_{n_i}) = v_p(D_l) + v_p(n_i / l) summed over I = I_l(n).

    A rho-th power needs residue = |I| * v_D + quot_sum = 0 mod rho; the four
    per-(l, p) statements are views on this one record.  Every view needs p
    outside S with p | D_l; multiplicity also p != l and rho not dividing v_D,
    squarefree also p != l and a squarefree tuple.  evaluate_tuple checks these.
    """

    l: int
    p: int
    rho: int
    I: List[int]
    v_D: int  # v_p(D_l)
    v_l: int  # v_p(l)
    quot_sum: int  # sum over I of v_p(n_i / l)
    residue: int

    def _view(self, statement: str, hypotheses: Sequence[str], **wit) -> ObstructionVerdict:
        verdict = HOLDS if self.residue == 0 else FAILS
        return ObstructionVerdict(statement, verdict, dict.fromkeys(hypotheses, True), wit)

    def absorption(self) -> ObstructionVerdict:
        return self._view(
            "absorption_congruence", ["p_outside_S", "p_divides_D_l"],
            l=self.l, p=self.p, I_l=self.I, v_p_D_l=self.v_D,
            quotient_valuation_sum=self.quot_sum, lhs_mod_rho=self.residue,
        )

    def pairing(self) -> ObstructionVerdict:
        # <e_l(n), v_q(n)> = quot_sum + |I| * v_q(l): e_l(n) vanishes off I.
        lhs = (self.quot_sum + len(self.I) * self.v_l) % self.rho
        return self._view(
            "incidence_pairing", ["q_outside_S", "q_divides_D_l"], l=self.l, q=self.p,
            lhs=lhs, rhs=len(self.I) * (self.v_l - self.v_D) % self.rho, I_l=self.I,
        )

    def squarefree(self) -> ObstructionVerdict:
        # For squarefree n_i and q != l, v_q(n_i / l) = 1 exactly when l*q | n_i.
        return self._view(
            "squarefree_incidence", ["squarefree", "q_outside_S", "q_divides_D_l"],
            l=self.l, q=self.p, N_l=len(self.I), N_lq=self.quot_sum, v_q_D_l=self.v_D,
        )

    def multiplicity(self) -> ObstructionVerdict:
        case = "rho_divides_I" if len(self.I) % self.rho == 0 else "rho_not_dividing_I"
        return self._view(
            "multiplicity_obstruction", ["q_in_radical", "q_ne_l"], l=self.l, q=self.p,
            I_l=self.I, v_q_quotient=self.quot_sum, v_q_D_l=self.v_D, case=case,
        )


def _congruence(n: Sequence[int], f: PrimeFacts, p: int, v_D: int, rho: int) -> _Congruence:
    """The record at (f.l, p), with v_D = v_p(D_l) read off l's radical data."""
    quot_sum = sum(valuation(n[i - 1] // f.l, p) for i in f.I)
    residue = (len(f.I) * v_D + quot_sum) % rho
    return _Congruence(f.l, p, rho, f.I, v_D, valuation(f.l, p), quot_sum, residue)


# -- support and packing checkers --------------------------------------


def prime_support_check(
    ctx: ObstructionContext, n: Sequence[int], f: PrimeFacts
) -> ObstructionVerdict:
    """Radical divisibility, Hasse scale, and, when f.top, the top-prime interval at index f.l."""
    rho, l, I = ctx.rho, f.l, f.I
    hyp = {"rho_not_dividing_I": len(I) % rho != 0}
    wit: Dict[str, object] = {"l": l, "I_l": I}

    def verdict(v: str, *notes: str) -> ObstructionVerdict:
        return ObstructionVerdict("prime_support_check", v, hyp, wit, list(notes))

    if not hyp["rho_not_dividing_I"]:
        return verdict(INCONCLUSIVE, "vacuous: rho divides |I_l(n)|")
    data = ctx.radical_data(l)
    radical_primes = [p for p, _ in data.detecting(rho)]
    rad = prod(radical_primes)
    quotient = prod(n[i - 1] // l for i in I)
    hyp["radical_complete"] = data.complete
    wit.update(radical=rad, quotient=quotient)
    if not data.detected(rho):
        return verdict(HOLDS, "radical trivial: no detecting prime at this index")
    if rad == 1:
        return verdict(INCONCLUSIVE, "partial factorization and empty certain radical")
    # Divisibility by the certain part is checked even when partial.
    if quotient % rad != 0:
        return verdict(FAILS, "certain radical part does not divide the quotient product")
    wit["radical_primes"] = radical_primes
    if not all(_hasse_compatible(l, q) for q in radical_primes):
        return verdict(FAILS, "Hasse-scale inequality violated by a radical prime")
    if f.top:
        interval_ok = all(
            q < l and not _below_sqrt_l_minus_1_sq(q, l) for q in radical_primes
        )
        wit["top_prime_interval_ok"] = interval_ok
        if not interval_ok:
            return verdict(FAILS, "top-prime interval violated by a radical prime")
    if not data.complete:
        return verdict(INCONCLUSIVE, "certain part divides, but the radical is only a lower bound")
    return verdict(HOLDS)


def smooth_cofactor_balance(ctx: ObstructionContext, f: PrimeFacts) -> ObstructionVerdict:
    """rho must divide |I_l(n)| when l is a large top prime with smooth cofactors.

    Any of f.reasons means the hypotheses fail.  A fails verdict certifies the
    product is not a rho-th power, provided a detecting prime at l provably
    exists; without one the verdict degrades to inconclusive.
    """
    if f.reasons:
        raise HypothesisViolated("; ".join(f.reasons))
    rho, l, I = ctx.rho, f.l, f.I
    wit = {"l": l, "I_l": I, "size_mod_rho": len(I) % rho}
    hyp = {"top_prime_hypotheses": True}
    if len(I) % rho == 0:
        return ObstructionVerdict("smooth_cofactor_balance", HOLDS, hyp, wit)
    detected = hyp["detecting_prime_verified"] = ctx.radical_data(l).detected(rho)
    return _exclusion(
        "smooth_cofactor_balance", hyp, wit, detected,
        "rho does not divide |I_l(n)|: product cannot be a rho-th power",
        "no verified detecting prime at l; the guarantee needs the true L_rho",
    )


class ClusterPackingReport(NamedTuple):
    """The five conclusions of the cluster-packing theorem, checked independently."""

    lambda_used: List[int]
    lambda_star: List[int]
    dropped: Dict[int, str]
    matrix: Dict[int, List[int]]
    rank: int
    conclusions: Dict[int, str]
    exclusion: bool
    certified: bool
    notes: List[str]

    def to_json(self) -> dict:
        return {
            "lambda": [str(l) for l in self.lambda_used],
            "lambda_star": [str(l) for l in self.lambda_star],
            "dropped": {str(l): r for l, r in self.dropped.items()},
            "rank": self.rank,
            "conclusions": {str(i): v for i, v in self.conclusions.items()},
            "exclusion": self.exclusion,
            "certified": self.certified,
            "notes": self.notes,
        }


def cluster_packing(
    ctx: ObstructionContext, n: Sequence[int], facts: Sequence[PrimeFacts]
) -> ClusterPackingReport:
    """Build M_Lambda(n) over F_rho and check all five packing conclusions.

    Lambda is the l of facts; row l is the 0/1 indicator of I_l(n) over the
    positions of n.  Primes failing the per-l hypotheses are dropped with a
    note rather than aborting the whole report.
    """
    k, rho = len(n), ctx.rho
    dropped = {f.l: "; ".join(f.reasons) for f in facts if f.reasons}
    kept = [f for f in facts if not f.reasons]
    surviving = [f.l for f in kept]
    matrix = {f.l: [int(i in f.I) for i in range(1, k + 1)] for f in kept}
    lambda_star = [l for l in surviving if any(matrix[l])]
    conclusions: Dict[int, str] = {}
    # (1) each row weight divisible by rho
    conclusions[1] = HOLDS if all(sum(matrix[l]) % rho == 0 for l in surviving) else FAILS
    # (2) pairwise disjoint supports of nonzero rows
    disjoint = all(
        not any(a and b for a, b in zip(matrix[l], matrix[m]))
        for ix, l in enumerate(lambda_star)
        for m in lambda_star[ix + 1 :]
    )
    conclusions[2] = HOLDS if disjoint else FAILS
    # (3) nonzero rows linearly independent: rank equals |Lambda*|
    rank = gf_rank([matrix[l] for l in lambda_star], rho)
    conclusions[3] = HOLDS if rank == len(lambda_star) else FAILS
    # (4) packing bound
    conclusions[4] = HOLDS if len(lambda_star) <= k // rho else FAILS
    # (5) small-tuple emptiness
    conclusions[5] = HOLDS if (k >= rho or not lambda_star) else FAILS
    exclusion = FAILS in conclusions.values()
    certified = exclusion and all(ctx.radical_data(l).detected(rho) for l in lambda_star)
    notes = []
    if exclusion and not certified:
        notes.append("exclusion rests on the detecting-prime threshold, not a verified witness")
    return ClusterPackingReport(
        lambda_used=surviving,
        lambda_star=lambda_star,
        dropped=dropped,
        matrix=matrix,
        rank=rank,
        conclusions=conclusions,
        exclusion=exclusion,
        certified=certified,
        notes=notes,
    )


def repeated_top_prime(ctx: ObstructionContext, n: Sequence[int]) -> ObstructionVerdict:
    """Indices n_i = l_i * a_i: each top prime must repeat a multiple of rho times."""
    rho = ctx.rho
    tops: List[int] = []
    for i, ni in enumerate(n, start=1):
        l_i, top_cof = _top_primes(ctx.factorization(ni))
        if l_i == 1:
            raise HypothesisViolated(f"n_{i}=1 has no top prime")
        reasons = []
        if l_i < ctx.B_bound:
            reasons.append(f"l_{i}={l_i} not above (sqrt(B)+1)^2")
        if top_cof == l_i:  # l_i^2 divides n_i
            reasons.append(f"v_l(n_{i}) != 1")
        if top_cof > ctx.B:
            reasons.append(f"cofactor of n_{i} not B-smooth")
        if reasons:
            raise HypothesisViolated("; ".join(reasons))
        tops.append(l_i)
    multiplicities = {l: tops.count(l) for l in set(tops)}
    offending = sorted(l for l, c in multiplicities.items() if c % rho != 0)
    wit = {
        "top_primes": tops,
        "multiplicities_mod_rho": {str(l): c % rho for l, c in sorted(multiplicities.items())},
        "pairwise_distinct": len(set(tops)) == len(tops),
    }
    hyp = {"top_prime_hypotheses": True}
    if not offending:
        return ObstructionVerdict("repeated_top_prime", HOLDS, hyp, wit)
    verified = all(ctx.radical_data(l).detected(rho) for l in offending)
    hyp["detecting_primes_verified"] = verified
    return _exclusion(
        "repeated_top_prime", hyp, wit, verified,
        "some top prime occurs with multiplicity not divisible by rho",
        "no verified detecting prime at an offending top prime",
    )


def large_prime_gap(ctx: ObstructionContext, m: int, n: int) -> ObstructionVerdict:
    """Coprime two-term exclusion from the prime gap below the top prime of m.

    When P^+(m / l) < (sqrt(l)-1)^2, no product D_m * D_n with
    gcd(m, n) = 1 can be a rho-th power.  This covers a B-smooth m/l with
    l > (sqrt(B)+1)^2, since then (sqrt(l)-1)^2 > B >= P^+(m / l).  The
    exclusion then applies to ALL coprime n; a concrete n is only used for
    the gcd precondition and oracle cross-validation.
    """
    if m < 2:
        raise HypothesisViolated("m must be at least 2")
    if gcd(m, n) != 1:
        raise HypothesisViolated(f"gcd({m},{n}) != 1")
    l, top_cof = _top_primes(ctx.factorization(m))
    v = valuation(m, l)
    if v != 1:
        raise HypothesisViolated(f"v_l(m)={v} != 1")
    cofactor = m // l
    detected = ctx.radical_data(l).detected(ctx.rho)
    hyp = {
        "coprime": True,
        "simple_top_prime": True,
        "detecting_prime_verified": detected,
    }
    wit: Dict[str, object] = {"m": m, "l": l, "cofactor": cofactor, "P_plus_cofactor": top_cof}
    if not (cofactor == 1 or _below_sqrt_l_minus_1_sq(top_cof, l)):
        note = "necessary gap condition satisfied; no exclusion from this test"
        return ObstructionVerdict("large_prime_gap", HOLDS, hyp, wit, [note])
    wit["route"] = "prime_gap"
    if detected and max(m, n) <= ctx.table.max_index:
        oracle = test_relation(ctx.table, (m, n), ctx.rho).is_power
        wit["oracle_product_is_power"] = oracle
        if oracle:
            raise SoundnessError(f"exclusion of D_{m}*D_{n} contradicted by the exact power oracle")
    return _exclusion(
        "large_prime_gap", hyp, wit, detected,
        "D_m * D_n cannot be a rho-th power for any n coprime to m",
        "gap condition violated, but no verified detecting prime at l",
    )


def radical_lower_bound(
    ctx: ObstructionContext, n: Sequence[int], facts: Sequence[PrimeFacts]
) -> ObstructionVerdict:
    """rad of the quotient product against prod over Lambda of (sqrt(l)-1)^2.

    Lambda is each l of facts that is the simple top prime of every n_i it
    divides, with rho not dividing |I_l(n)|: so I_l(n) is nonempty and l is
    prime.
    """
    rho = ctx.rho
    chosen = [f for f in facts if f.top and len(f.I) % rho != 0]
    Lambda = [f.l for f in chosen]
    # For distinct primes a and b, strong divisibility gives gcd(D_a, D_b) = D_1, whose
    # primes all lie in S: the S-free parts of D_a and D_b are coprime, whatever the budget.
    s_free = {l: ctx.radical_data(l).s_free for l in Lambda}
    for ix, a in enumerate(Lambda):
        for b in Lambda[ix + 1 :]:
            if gcd(s_free[a], s_free[b]) != 1:
                raise SoundnessError(f"radical coprimality violated at ({a},{b})")
    quotient = prod(n[i - 1] // f.l for f in chosen for i in f.I)
    hyp = {"top_prime_hypotheses": True}
    rad_q = prod(p for p, _ in ctx.factorization(quotient).factors)
    bound = prod((sqrt(l) - 1) ** 2 for l in Lambda)  # shown only; decided exactly below
    wit = {"quotient": quotient, "radical": rad_q, "bound": f"{bound:.6f}"}
    meets = _radical_meets_bound(rad_q, Lambda)
    if meets:
        return ObstructionVerdict("radical_lower_bound", HOLDS, hyp, wit)
    if meets is None:
        return ObstructionVerdict(
            "radical_lower_bound", INCONCLUSIVE, hyp, wit, ["radical too close to the bound"]
        )
    detected = all(ctx.radical_data(l).detected(rho) for l in Lambda)
    hyp["detecting_primes_verified"] = detected
    return _exclusion(
        "radical_lower_bound", hyp, wit, detected,
        "radical falls below the packing bound: product cannot be a rho-th power",
        "bound violated, but detecting primes not verified for all of Lambda",
    )


# -- whole-tuple evaluation --------------------------------------------


class _PrimeBlock(NamedTuple):
    """What evaluate_tuple reports at one candidate prime l."""

    facts: PrimeFacts
    verdicts: List[ObstructionVerdict]
    skipped: List[str]


def _prime_block(
    ctx: ObstructionContext, n: Sequence[int], l: int, squarefree: bool
) -> _PrimeBlock:
    """The congruence views at each radical-data entry of l, then the support and balance checks,
    built once per key: every check reads the tuple only at the positions in I_l(n)."""
    key = (l, squarefree, tuple((i, n[i - 1]) for i in incidence_set(n, l)))
    if key in ctx._blocks:
        return ctx._blocks[key]
    facts = prime_facts(ctx, n, l)
    verdicts: List[ObstructionVerdict] = []
    # The entries are the primes outside S dividing D_l: the views' preconditions hold.
    for p, v in ctx.radical_data(l).entries:
        c = _congruence(n, facts, p, v, ctx.rho)
        verdicts.extend([c.absorption(), c.pairing()])
        if p != l and v % ctx.rho != 0:
            verdicts.append(c.multiplicity())
            if squarefree:
                verdicts.append(c.squarefree())
    verdicts.append(prime_support_check(ctx, n, facts))
    skipped = []
    try:
        verdicts.append(smooth_cofactor_balance(ctx, facts))
    except HypothesisViolated as exc:
        skipped.append(f"smooth_cofactor_balance(l={l}): {exc}")
    block = ctx._blocks[key] = _PrimeBlock(facts, verdicts, skipped)
    return block


class TupleReport(NamedTuple):
    """Every applicable checker's verdict for one index tuple."""

    n: Tuple[int, ...]
    rho: int
    verdicts: List[ObstructionVerdict]
    cluster: Optional[ClusterPackingReport]
    skipped: List[str]

    @property
    def certified_exclusions(self) -> List[str]:
        out = [v.statement for v in self.verdicts if v.verdict == FAILS and v.certified_exclusion]
        if self.cluster is not None and self.cluster.certified:
            out.append("cluster_packing")
        return out

    def to_json(self) -> dict:
        return {
            "n": list(self.n),
            "rho": self.rho,
            "verdicts": [v.to_json() for v in self.verdicts],
            "cluster_packing": self.cluster.to_json() if self.cluster else None,
            "skipped": self.skipped,
            "certified_exclusions": self.certified_exclusions,
        }


def evaluate_tuple(ctx: ObstructionContext, n: Sequence[int]) -> TupleReport:
    """Run every checker that applies to the tuple and collect verdicts.

    Checkers whose preconditions or hypotheses do not hold are recorded
    as skipped, never silently dropped.  An entry past the table raises
    TableMiss before any checker runs.
    """
    n = tuple(n)
    largest = max(n, default=0)
    if largest > ctx.table.max_index:
        raise TableMiss(f"index {largest} outside table range 1..{ctx.table.max_index}")
    verdicts: List[ObstructionVerdict] = []
    skipped: List[str] = []
    candidate_primes = primes_up_to(largest)
    squarefree = all(e == 1 for ni in n for _, e in ctx.factorization(ni).factors)

    def attempt(label: str, checker, *args) -> None:
        try:
            verdicts.append(checker(ctx, *args))
        except HypothesisViolated as exc:
            skipped.append(f"{label}: {exc}")

    facts = []
    for l in candidate_primes:
        block = _prime_block(ctx, n, l, squarefree)
        facts.append(block.facts)
        verdicts.extend(block.verdicts)
        skipped.extend(block.skipped)
    cluster = cluster_packing(ctx, n, facts) if n else None
    attempt("repeated_top_prime", repeated_top_prime, n)
    if len(n) == 2 and gcd(n[0], n[1]) == 1:
        for m, other in (n, (n[1], n[0])):
            if m >= 2:
                attempt(f"large_prime_gap(m={m})", large_prime_gap, m, other)
    verdicts.append(radical_lower_bound(ctx, n, facts))
    return TupleReport(n=n, rho=ctx.rho, verdicts=verdicts, cluster=cluster, skipped=skipped)
