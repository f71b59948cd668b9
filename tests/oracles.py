"""Independent oracles used by the test suite.

Nothing in here imports edskit's arithmetic for the quantity being checked:
the group-law oracle finds the third intersection point by solving the
curve/line system with sympy, the root oracles enumerate by brute force,
and the valuation oracle divides directly.  The trial-division oracle
takes its primes from edskit's sieve, which test_intmath checks, and the
sieve-then-factor radical search hands what its sieve leaves to edskit's
factorize, which test_factor checks.  The per-term-gcd oracle takes its
Psi_n from edskit's recurrence, which test_eds checks against
double-and-add, and recomputes only the bad-prime correction.

Five slow paths live here as oracles only.
factorize_after_full_trial_division trial-divides to the whole trial bound
before edskit's rho and ECM split what is left.  valuation_via_law reads
v_p(D_n) off D_{r_p} as the law states it, with edskit's reduction order;
test_valuation checks it against direct division.  search_relations runs
edskit's exact power test over every small multiset of indices, which is
the ground truth the obstruction checkers must never contradict.
congruence builds the obstruction congruence record at any (l, p) by
dividing v_p(D_l) out of the table, where edskit reads it off the
factorization of D_l.  order_over_hasse_interval is the reduction order
as edskit computed it before it certified the least multiple: BSGS for
some multiple of r_p in the Hasse interval, then every prime of that
multiple stripped with a full-size scalar multiplication.

read_table_file is the one reader of gen's table format, which nothing in
edskit reads back.  It parses every row with int() and recomputes the
content hash with str(), so it shares no code with the writer's
decimal-by-halving.

random_pairs is no oracle: it draws the seeded (E, P) that test_eds,
test_curve and test_valuation sweep.
"""

import hashlib
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, isqrt

import sympy as sp

from edskit.curve import WeierstrassCurve
from edskit.eds import EdsTerm, curve_point_key
from edskit.errors import BudgetExceeded, TableMiss, TrivialReduction
from edskit.factor import Factorization, _split, _trial_divide, factorize
from edskit.intmath import is_prime, primes_up_to, valuation
from edskit.obstruction import _congruence, prime_facts
from edskit.relation import test_relation as product_relation

DEFAULT_SEARCH_CAP = 2_000_000


def oracle_add(coeffs, P, Q):
    """Chord-and-tangent sum of P and Q via symbolic line intersection.

    coeffs is (a1, a2, a3, a4, a6); points are None or (Fraction, Fraction).
    The third intersection of the chord (or tangent) with the curve is found
    by solving the substituted cubic with sympy, then reflected.
    """
    a1, a2, a3, a4, a6 = [sp.Integer(c) for c in coeffs]
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = sp.Rational(P[0]), sp.Rational(P[1])
    x2, y2 = sp.Rational(Q[0]), sp.Rational(Q[1])
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return None
    x = sp.symbols("x")
    if (x1, y1) == (x2, y2):
        # Tangent slope from implicit differentiation of the curve equation.
        lam = (3 * x1 ** 2 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    line = lam * (x - x1) + y1
    cubic = sp.expand(
        line ** 2 + a1 * x * line + a3 * line - (x ** 3 + a2 * x ** 2 + a4 * x + a6)
    )
    roots = sp.roots(sp.Poly(cubic, x))
    # The known abscissas appear among the roots; remove them with multiplicity.
    remaining = []
    for root, mult in roots.items():
        remaining.extend([root] * mult)
    for known in (x1, x2):
        remaining.remove(known)
    (x3,) = remaining
    y3_line = lam * (x3 - x1) + y1
    x3, y3 = sp.nsimplify(x3), sp.nsimplify(-y3_line - a1 * x3 - a3)
    return (Fraction(int(sp.numer(x3)), int(sp.denom(x3))),
            Fraction(int(sp.numer(y3)), int(sp.denom(y3))))


def oracle_mul(coeffs, n, P):
    """[n]P by repeated oracle_add (n >= 0)."""
    R = None
    for _ in range(n):
        R = oracle_add(coeffs, R, P)
    return R


def oracle_d_values(coeffs, P, N):
    """D_1..D_N straight from the oracle multiples: D_n = sqrt(denom(x([n]P)))."""
    out = []
    R = None
    for n in range(1, N + 1):
        R = oracle_add(coeffs, R, P)
        if R is None:
            raise ValueError(f"point has finite order dividing {n}")
        den = R[0].denominator
        root = sp.sqrt(sp.Integer(den))
        assert root.is_Integer, "denominator of x([n]P) is not a perfect square"
        out.append(int(root))
    return out


def term_by_per_term_gcd(psi, n, a, d):
    """(A_n, D_n) from Psi_{n-1}, Psi_n, Psi_{n+1} with the full per-term correction.

    x([n]P) = Phi_n / (d Psi_n)^2 with Phi_n = a Psi_n^2 - Psi_{n+1} Psi_{n-1};
    dividing out g = gcd(Phi_n, (d Psi_n)^2) leaves A_n / D_n^2 in lowest terms.
    eds._term_from_psi skips this gcd when Psi meets Ward's hypothesis.
    """
    scaled = d * psi[n]
    phi = a * psi[n] ** 2 - psi[n + 1] * psi[n - 1]
    g = gcd(phi, scaled * scaled)
    root = isqrt(g)
    assert root * root == g, "g is not a perfect square"
    return phi // g, abs(scaled) // root


def divisibility_violations_by_pairs(d_values):
    """All (m, n) with m | n, m < n and D_m not dividing D_n, testing n % m for every m < n."""
    bad = []
    for n in range(1, len(d_values) + 1):
        for m in range(1, n):
            if n % m == 0 and d_values[n - 1] % d_values[m - 1] != 0:
                bad.append((m, n))
    return bad


def brute_nth_root(x, r):
    """(floor root, exactness) by linear search; only for small x."""
    if r == 1:
        return x, True
    y = 0
    while (y + 1) ** r <= x:
        y += 1
    return y, y ** r == x


def brute_valuation(x, p):
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def brute_is_squarefree(x):
    """True iff no square of an integer d >= 2 divides x, by trial division."""
    return all(x % (d * d) for d in range(2, isqrt(x) + 1))


def oracle_pairing(n, l, q):
    """<e_l(n), v_q(n)>: the sum of v_q(n_i) over the indices n_i divisible by l."""
    return sum(brute_valuation(ni, q) for ni in n if ni % l == 0)


def oracle_lq_count(n, l, q):
    """N_{l,q} = #{i : l*q | n_i}, the count in the squarefree incidence form."""
    return sum(1 for ni in n if ni % (l * q) == 0)


def congruence(ctx, n, l, p, rho):
    """The congruence record of (n, l, p, rho), with v_p(D_l) divided out of ctx's table."""
    return _congruence(n, prime_facts(ctx, n, l), p, brute_valuation(ctx.table.D(l), p), rho)


def brute_is_smooth(x, B):
    """True iff every prime factor of |x| is <= B, by full trial division."""
    x = abs(x)
    for d in range(2, x + 1):
        if d > B and d * d > x:
            break
        while x % d == 0:
            if d > B:
                return False
            x //= d
    return x == 1 or x <= B


def trial_divide_per_prime(x, bound):
    """(factors, survivor) after stripping the primes <= bound, one `%` per prime.

    The plain loop that factor._trial_divide batches into gcds; it stops at
    the first prime whose square exceeds what is left.
    """
    rest = x
    factors = []
    for p in primes_up_to(min(bound, isqrt(rest) + 1)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    return factors, rest


def factorize_after_full_trial_division(x, effort):
    """Trial division to effort.trial_bound, then rho and ECM on what is left.

    Each composite piece gets the whole budget.  edskit.factor.factorize, which
    trial-divides to 2**15 first and strips a larger prime only where it shows,
    must return the same Factorization at every budget.
    """
    factors, rest = _trial_divide(x, effort.trial_bound)
    if rest == 1:
        return Factorization(x, factors)
    if rest <= effort.trial_bound ** 2:
        factors.append((rest, 1))
        return Factorization(x, factors)
    deadline = time.monotonic() + effort.wall_clock
    found = set()
    stack = [rest]
    while stack:
        m = stack.pop()
        if is_prime(m):
            found.add(m)
            continue
        d = _split(m, effort.rho_iterations, deadline)
        if d is not None:
            stack.append(d)
            stack.append(m // d)
    for p in sorted(found):
        e = valuation(rest, p)
        rest //= p ** e
        factors.append((p, e))
    return Factorization(x, factors, rest)


def radical_data_by_sieve(D, S, sieve_bound, effort):
    """(entries, complete) for D: its primes p outside S with v_p(D), sorted.

    The two-pronged search: strip every prime <= sieve_bound with its own
    `%`, then factorize what is left within effort.  valuation.term_radical_data
    must find the same primes with one factorize call.
    """
    entries = []
    rest = D
    for p in primes_up_to(min(sieve_bound, D)):
        if rest % p:
            continue
        v = 0
        while rest % p == 0:
            rest //= p
            v += 1
        if p not in S:
            entries.append((p, v))
    complete = rest == 1
    if not complete:
        fac = factorize(rest, effort)
        entries.extend((p, v) for p, v in fac.factors if p not in S)
        complete = fac.complete
    return sorted(entries), complete


def enumerate_fp_points(coeffs, p):
    """All affine points of the reduced curve plus infinity, by brute force."""
    a1, a2, a3, a4, a6 = [c % p for c in coeffs]
    pts = [None]
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                pts.append((x, y))
    return pts


def order_over_hasse_interval(curve, P, p):
    """r_p from any multiple N of it in [p+1-2*sqrt(p), p+1+2*sqrt(p)], by stripping each prime of N.

    BSGS starts its giant steps at lo = p+1-2*isqrt(p)-2 itself, so the
    match is some multiple in the interval, not necessarily the least.
    The group law and scalar multiplication are edskit's F_p ones, which
    test_curve checks against enumeration.
    """
    E = curve.fp_curve(p)
    Q = E.reduce(P)
    if Q is None:
        raise TrivialReduction(f"P reduces to the identity mod {p}")
    width = 4 * isqrt(p) + 4
    lo = max(1, p + 1 - width // 2)
    m = isqrt(width) + 1
    baby = {}
    T = None
    for j in range(m):
        baby.setdefault(T, j)
        T = E.add(T, Q)
    step = E.mul(m, Q)
    G = E.mul(lo, Q)
    for i in range(width // m + 2):
        j = baby.get(E.negate(G))
        if j is not None:
            annihilator = lo + i * m + j
            break
        G = E.add(G, step)
    else:
        raise AssertionError(f"no multiple of the order mod {p} in the Hasse interval")
    fac = factorize(annihilator)
    assert fac.complete, annihilator
    order = annihilator
    for q, _ in fac.factors:
        while order % q == 0 and E.mul(order // q, Q) is None:
            order //= q
    assert E.mul(order, Q) is None
    return order


def random_pairs(seed, count, multipliers=(1, 2)):
    """Non-torsion (E, P) with |a_i| <= 2 for i <= 4: P is [k]P0 for an integral
    P0 with |x|, |y| <= 3 (a6 solved from P0) and k drawn from multipliers, so
    some x(P) = u/v^2 with v > 1.  A P = [3]P0 is kept only when 3 | v, so that
    pairs with 3 | D_1 join those with 2 | D_1, the paper's two hypotheses on
    D_1.  P is not torsion: [n]P != O for n <= 12 (Mazur)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a1, a2, a3, a4 = (rng.randint(-2, 2) for _ in range(4))
        x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
        try:
            E = WeierstrassCurve(a1, a2, a3, a4, a6)
        except ValueError:  # singular
            continue
        k = rng.choice(multipliers)
        P = E.mul(k, (Fraction(x0), Fraction(y0)))
        if P is None or (k == 3 and P[0].denominator % 3):
            continue
        if all(E.mul(n, P) is not None for n in range(1, 13)):
            pairs.append((E, P))
    return pairs


def valuation_via_law(curve, P, S, p, n, table):
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


def search_relations(table, k, N, rho, space_cap=DEFAULT_SEARCH_CAP):
    """All size-k multisets from {1..N} whose term product is an exact rho-th power.

    Multisets, not tuples: the product is order-invariant, so results use
    the canonical sorted representative, in lexicographic order.
    """
    if N > table.max_index:
        raise BudgetExceeded(f"index bound {N} exceeds table range {table.max_index}")
    if comb(N + k - 1, k) > space_cap:
        raise BudgetExceeded(f"multiset space C({N + k - 1},{k}) exceeds cap {space_cap}")
    found = []
    for combo in combinations_with_replacement(range(1, N + 1), k):
        rel = product_relation(table, combo, rho)
        if rel.is_power:
            found.append(rel)
    return found


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int/str conversion limit (4300 digits) while active.

    The previous limit is restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def read_table_file(path, curve, P):
    """(terms, content_hash) of a table file that gen wrote for (E, P).

    Raises ValueError unless the header names this (E, P), the rows run
    n = 1..n_max with n_max the header's, and the header's content hash is
    the first 16 hex digits of the sha256 of the key and every "n:A:D;" row
    recomputed with str().
    """
    key = curve_point_key(curve, P)
    with open(path) as fh, unlimited_int_digits():
        header = json.loads(fh.readline())
        terms = []
        for line in fh:
            rec = json.loads(line)
            terms.append(EdsTerm(rec["n"], int(rec["A"]), int(rec["D"])))
        digest = hashlib.sha256(key.encode())
        for t in terms:
            digest.update(f"{t.n}:{t.A}:{t.D};".encode())
    content_hash = digest.hexdigest()[:16]
    if header["curve_hash"] != key:
        raise ValueError("table file does not match the given curve/point")
    if [t.n for t in terms] != list(range(1, header["n_max"] + 1)):
        raise ValueError("table file rows do not run 1..n_max")
    if header["content_hash"] != content_hash:
        raise ValueError("table file does not match its content hash")
    return terms, content_hash
