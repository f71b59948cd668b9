"""Exact elliptic curve arithmetic over Q and over prime fields.

Curves are integral long Weierstrass models

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6.

Rational points are ``None`` (infinity) or ``(Fraction, Fraction)`` pairs;
points over F_p are ``None`` or ``(int, int)`` residue pairs.  All
operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from typing import Dict, List, Optional, Tuple

from .errors import BadReduction, SoundnessError, TrivialReduction
from .factor import Factorization, _trial_divide, factorize
from .intmath import valuation

RatPoint = Optional[Tuple[Fraction, Fraction]]
FpPoint = Optional[Tuple[int, int]]

INFINITY: RatPoint = None


class _Group:
    """Scalar multiplication on top of a subclass's ``add`` and ``negate``."""

    def mul(self, n: int, P):
        """[n]P by left-to-right double-and-add; n may be any integer.

        Every addition adds P itself, whose coordinates stay small over Q,
        rather than a second large multiple.
        """
        if n < 0:
            return self.mul(-n, self.negate(P))
        if n == 0:
            return None
        R = P
        for bit in bin(n)[3:]:
            R = self.add(R, R)
            if bit == "1":
                R = self.add(R, P)
        return R


class WeierstrassCurve(_Group):
    """Integral long Weierstrass model with cached standard invariants."""

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        self.b2, self.b4, self.b6, self.b8 = b2, b4, b6, b8
        self.c4 = b2 * b2 - 24 * b4
        self.c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        self.discriminant = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if self.discriminant == 0:
            raise ValueError("singular curve: discriminant is zero")

    @cached_property
    def discriminant_factorization(self) -> Factorization:
        """|discriminant| factored once: S and the minimality report read one result."""
        return factorize(abs(self.discriminant))

    # -- rational point arithmetic -------------------------------------

    def coefficients(self) -> Tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def contains(self, P: RatPoint) -> bool:
        if P is None:
            return True
        x, y = Fraction(P[0]), Fraction(P[1])
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def negate(self, P: RatPoint) -> RatPoint:
        if P is None:
            return None
        x, y = P
        return (x, -y - self.a1 * x - self.a3)

    def add(self, P: RatPoint, Q: RatPoint) -> RatPoint:
        """Group-law sum; handles infinity, inverse pairs and doubling."""
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        a1, a2, a3, a4, a6 = self.coefficients()
        if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
            return None
        if x1 == x2:
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
            nu = (-(x1 ** 3) + a4 * x1 + 2 * a6 - a3 * y1) / (2 * y1 + a1 * x1 + a3)
        else:
            lam = (y2 - y1) / (x2 - x1)
            nu = (y1 * x2 - y2 * x1) / (x2 - x1)
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return (Fraction(x3), Fraction(y3))

    # -- reduction mod p -----------------------------------------------

    def has_good_reduction(self, p: int) -> bool:
        return self.discriminant % p != 0

    def fp_curve(self, p: int) -> "FpCurve":
        if not self.has_good_reduction(p):
            raise BadReduction(f"p={p} divides the discriminant")
        return FpCurve(self.a1 % p, self.a2 % p, self.a3 % p, self.a4 % p, self.a6 % p, p)

    def group_order(self, p: int) -> int:
        """#E(F_p) by naive enumeration.  O(p); the reference for r_p tests."""
        order = self.fp_curve(p).count_points_naive()
        if abs(order - p - 1) > 2 * isqrt(p) + 1:
            raise SoundnessError(f"#E(F_{p}) = {order} violates the Hasse bound")
        return order

    def reduction_order(self, P: RatPoint, p: int) -> int:
        """Exact order of the reduction of P in E(F_p).

        BSGS on P itself finds the least multiple of its order at or above
        a start near the Hasse interval's lower end, so #E(F_p) is never
        computed, and the order follows with at most one full-size scalar
        multiplication.
        """
        E = self.fp_curve(p)
        Pt = E.reduce(P)
        if Pt is None:
            raise TrivialReduction(f"P reduces to the identity mod {p}")
        return E.point_order(Pt, *E._annihilator_in_hasse_interval(Pt))


class FpCurve(_Group):
    """The reduction of an integral model at a good prime."""

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, p: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.p = p
        # What add reads, fetched in one attribute load.
        self._law = (a1, a2, a3, a4, p)

    def reduce(self, P: RatPoint) -> FpPoint:
        """Coordinate-wise reduction mod p; infinity when p divides x's denominator."""
        if P is None:
            return None
        x, y = P
        p = self.p
        # On an integral model v_p(y) < 0 exactly when v_p(x) < 0.
        if x.denominator % p == 0:
            return None
        xr = x.numerator * pow(x.denominator, -1, p) % p
        yr = y.numerator * pow(y.denominator, -1, p) % p
        return (xr, yr)

    def rhs(self, x: int) -> int:
        return (x * x * x + self.a2 * x * x + self.a4 * x + self.a6) % self.p

    def contains(self, P: FpPoint) -> bool:
        if P is None:
            return True
        x, y = P
        lhs = (y * y + self.a1 * x * y + self.a3 * y) % self.p
        return lhs == self.rhs(x)

    def negate(self, P: FpPoint) -> FpPoint:
        if P is None:
            return None
        x, y = P
        return (x, (-y - self.a1 * x - self.a3) % self.p)

    def add(self, P: FpPoint, Q: FpPoint) -> FpPoint:
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, p = self._law
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            den = 2 * y1 + a1 * x1 + a3
            # Q = -P (and P = -P at a 2-torsion point): y1 + y2 + a1*x1 + a3 = 0.
            if (den - y1 + y2) % p == 0:
                return None
            num = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1
        else:
            num = y2 - y1
            den = x2 - x1
        lam = num * pow(den, -1, p) % p
        x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1 - a1 * x3 - a3) % p
        return (x3, y3)

    # -- point counting ------------------------------------------------

    def count_points_naive(self) -> int:
        """#E(F_p) by direct enumeration over x.  O(p)."""
        p = self.p
        if p == 2:
            count = 1
            for x in range(2):
                for y in range(2):
                    if self.contains((x, y)):
                        count += 1
            return count
        count = p + 1  # infinity plus the average of one y per x
        half = (p - 1) // 2
        a1, a3 = self.a1, self.a3
        for x in range(p):
            # Complete the square: y solutions of y^2+(a1x+a3)y = rhs(x)
            # correspond to square roots of the discriminant below.
            d = ((a1 * x + a3) ** 2 + 4 * self.rhs(x)) % p
            if d == 0:
                continue
            count += 1 if pow(d, half, p) == 1 else -1
        return count

    def _annihilator_in_hasse_interval(self, Q: FpPoint) -> Tuple[int, int]:
        """(start, N): N is the least n >= start with [n]Q = O, found by BSGS.

        start is at most max(1, p+1-2*sqrt(p)), so #E(F_p), a multiple of
        the order in [start, p+1+2*sqrt(p)], bounds N, and the scan reaches
        past that bound.  The baby steps keep the least j for each point and
        the giant steps ascend by m, so the first match start + i*m + j is
        the least such n.
        """
        p = self.p
        width = 4 * isqrt(p) + 4
        lo = p + 1 - width // 2
        m = isqrt(width) + 1
        add = self.add
        baby: Dict[FpPoint, int] = {}
        T: FpPoint = None
        for j in range(m):
            baby.setdefault(T, j)
            T = add(T, Q)
        # T = [m]Q is the giant step.  start is the largest multiple of m
        # up to lo, so the first giant point is [start/m]T.
        k = lo // m
        if k >= 1:
            start, G = k * m, self.mul(k, T)
        else:
            # p <= 11: lo is below m (below 1 for p <= 5), so scan from 1;
            # the first match is then the order itself.
            start, G = 1, Q
        for i in range(width // m + 2):
            # Looking for start + i*m + j with [start+i*m+j]Q = O, i.e. -G = [j]Q.
            j = baby.get(self.negate(G))
            if j is not None:
                return start, start + i * m + j
            G = add(G, T)
        raise SoundnessError(f"no multiple of the order of {Q} mod {p} in the Hasse interval")

    def point_order(self, Q: FpPoint, start: int, least: int) -> int:
        """Exact order r of Q, given the least n >= start with [n]Q = O.

        Let k = least / r.  If k >= 2, least - r is a multiple of r below
        least, so minimality puts it below start: r > least - start.  Hence
        k < least / (least - start), that is k <= (least-1) // (least-start)
        when least > start; when least == start, k is only bounded by least.
        Let s be the part of least made of the primes up to that bound.
        Every prime of k is one of them, so k | s and least/s | r.  If
        s == 1, then r = least, which the BSGS match proved to kill Q.
        Otherwise T = [least/s]Q has order s/k: strip each prime q from s
        while [s'/q]T = O, check [o]T = O, and r = (least/s) * o.  Only the
        one multiplication giving T is full size; the rest are by divisors
        of s.
        """
        if Q is None:
            raise TrivialReduction("the identity has no interesting order")
        bound = least if least == start else (least - 1) // (least - start)
        if bound < 2:
            return least
        # Trial division to sqrt(least) leaves 1 or a prime, so factors is complete.
        factors, rest = _trial_divide(least, isqrt(least) + 1)
        if rest > 1:
            factors.append((rest, 1))
        small = [q for q, _ in factors if q <= bound]
        s = prod(q ** e for q, e in factors if q <= bound)
        if s == 1:
            return least
        cofactor = least // s
        T = self.mul(cofactor, Q)
        order = s
        for q in small:
            while order % q == 0 and self.mul(order // q, T) is None:
                order //= q
        if self.mul(order, T) is not None:
            raise SoundnessError(f"[{cofactor * order}]{Q} is not the identity mod {self.p}")
        return cofactor * order


def minimality_report(curve: WeierstrassCurve) -> "MinimalityReport":
    """Sufficient-criterion minimality check.

    For each p >= 5 dividing the discriminant the model is certified
    minimal at p when v_p(disc) < 12 or v_p(c4) < 4.  At p in {2, 3} the
    criterion is not sufficient, so those primes only produce warnings
    and block certification.
    """
    fac = curve.discriminant_factorization
    notes: List[str] = []
    certified = True
    if not fac.complete:
        certified = False
        notes.append("discriminant not fully factored; minimality unverified")
    for p, e in fac.factors:
        if p in (2, 3):
            certified = False
            notes.append(f"p={p} divides the discriminant; criterion inconclusive there")
        else:
            v_c4 = valuation(curve.c4, p) if curve.c4 != 0 else e  # c4=0: treat as large
            if e >= 12 and v_c4 >= 4:
                certified = False
                notes.append(f"model may be non-minimal at p={p} (v_p(disc)={e})")
    return MinimalityReport(certified=certified, notes=notes)


class MinimalityReport:
    def __init__(self, certified: bool, notes: List[str]):
        self.certified = certified
        self.notes = notes

    def to_json(self) -> dict:
        return {"certified": self.certified, "notes": self.notes}
