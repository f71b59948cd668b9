"""Exact elliptic curve arithmetic over Q and over prime fields.

Curves are integral long Weierstrass models

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6.

Rational points are ``None`` (infinity) or ``(Fraction, Fraction)`` pairs;
points over F_p are ``None`` or ``(int, int)`` residue pairs.  All
operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

from .errors import BadReduction, PrimeTooLarge, SoundnessError, TrivialReduction
from .factor import Effort, factorize
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
        # Cross-check the b8 identity 4*b8 = b2*b6 - b4^2.
        assert 4 * b8 == b2 * b6 - b4 * b4
        # Cross-check c4^3 - c6^2 = 1728 * disc.
        assert self.c4 ** 3 - self.c6 ** 2 == 1728 * self.discriminant

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

    def reduce_point(self, P: RatPoint, p: int) -> FpPoint:
        """Coordinate-wise reduction mod p; infinity when p divides x's denominator."""
        if not self.has_good_reduction(p):
            raise BadReduction(f"p={p} divides the discriminant")
        if P is None:
            return None
        x, y = Fraction(P[0]), Fraction(P[1])
        if x.denominator % p == 0:
            return None
        if y.denominator % p == 0:  # cannot happen for points on an integral model
            return None
        xr = x.numerator * pow(x.denominator, -1, p) % p
        yr = y.numerator * pow(y.denominator, -1, p) % p
        return (xr, yr)

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

        BSGS on P itself finds a multiple of its order in the Hasse
        interval, so #E(F_p) is never computed.
        """
        Pt = self.reduce_point(P, p)
        if Pt is None:
            raise TrivialReduction(f"P reduces to the identity mod {p}")
        E = self.fp_curve(p)
        return E.point_order(Pt, E._annihilator_in_hasse_interval(Pt))


class FpCurve(_Group):
    """The reduction of an integral model at a good prime."""

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, p: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.p = p

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
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2 + self.a1 * x1 + self.a3) % p == 0:
            return None
        if x1 == x2:
            num = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) % p
            den = (2 * y1 + self.a1 * x1 + self.a3) % p
        else:
            num = (y2 - y1) % p
            den = (x2 - x1) % p
        lam = num * pow(den, -1, p) % p
        x3 = (lam * lam + self.a1 * lam - self.a2 - x1 - x2) % p
        y3 = (-(lam + self.a1) * x3 - (y1 - lam * x1) - self.a3) % p
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

    def _annihilator_in_hasse_interval(self, Q: FpPoint) -> int:
        """Some N >= 1 in [p+1-2*sqrt(p), p+1+2*sqrt(p)] with [N]Q = O, by BSGS."""
        p = self.p
        width = 4 * isqrt(p) + 4
        # For p <= 5 the interval reaches 0, and [0]Q = O says nothing.
        lo = max(1, p + 1 - width // 2)
        m = isqrt(width) + 1
        baby: Dict[FpPoint, int] = {}
        T: FpPoint = None
        for j in range(m):
            baby.setdefault(T, j)
            T = self.add(T, Q)
        giant_step = self.mul(m, Q)
        G = self.mul(lo, Q)
        for i in range((width // m) + 2):
            # Looking for lo + i*m + j with [lo+i*m+j]Q = O, i.e. -G = [j]Q.
            j = baby.get(self.negate(G))
            if j is not None:
                return lo + i * m + j
            G = self.add(G, giant_step)
        raise SoundnessError(f"no multiple of the order of {Q} mod {p} in the Hasse interval")

    def point_order(self, Q: FpPoint, annihilator: int) -> int:
        """Exact order of Q given a multiple of it; factors the annihilator."""
        if Q is None:
            raise TrivialReduction("the identity has no interesting order")
        fac = factorize(annihilator, Effort(trial_bound=10 ** 6, rho_iterations=10 ** 8))
        if not fac.complete:  # annihilator <= p+1+2*sqrt(p); should never trigger
            raise PrimeTooLarge(f"could not fully factor annihilator {annihilator}")
        order = annihilator
        for q, _ in fac.factors:
            while order % q == 0 and self.mul(order // q, Q) is None:
                order //= q
        if self.mul(order, Q) is not None:
            raise SoundnessError(f"[{order}]{Q} is not the identity mod {self.p}")
        return order


def minimality_report(curve: WeierstrassCurve) -> "MinimalityReport":
    """Sufficient-criterion minimality check.

    For each p >= 5 dividing the discriminant the model is certified
    minimal at p when v_p(disc) < 12 or v_p(c4) < 4.  At p in {2, 3} the
    criterion is not sufficient, so those primes only produce warnings
    and block certification.
    """
    fac = factorize(abs(curve.discriminant))
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
