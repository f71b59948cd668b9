"""Generation and persistence of the denominator sequence attached to (E, P).

For each n >= 1 the x-coordinate of [n]P is A_n / D_n^2 in lowest terms
with D_n > 0.  Tables come from the division-polynomial values psi_n(P),
computed over Z by Ward's recurrence; the Fraction group law is kept only
to cross-check them.  The bad-prime correction g of each term is 1 when
Psi_n is a strong divisibility sequence, which Ward's theorem decides once
per table from Psi_2, Psi_3 and Psi_4.  The
perfect-squareness of the reduced denominator is asserted on every term,
never assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Tuple

from . import __version__
from .curve import RatPoint, WeierstrassCurve
from .errors import (
    BudgetExceeded,
    NonSquareDenominator,
    SoundnessError,
    TableMiss,
    TorsionPoint,
)
from .intmath import int_nth_root

DEFAULT_MAX_DIGITS = 10 ** 5


class EdsTerm(NamedTuple):
    n: int
    A: int
    D: int


def eds_term(curve: WeierstrassCurve, P: RatPoint, n: int) -> EdsTerm:
    """Exact (A_n, D_n) from x([n]P) by double-and-add over Q.

    Independent of the recurrence in ``eds_range``, which uses it as a
    cross-check; errors if [n]P is the identity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    Q = curve.mul(n, P)
    return _term_from_point(Q, n)


def _term_from_point(Q: RatPoint, n: int) -> EdsTerm:
    if Q is None:
        raise TorsionPoint(f"[{n}]P is the identity; P is torsion")
    x = Fraction(Q[0])
    root, exact = int_nth_root(x.denominator, 2)
    if not exact:
        raise NonSquareDenominator(
            f"denominator of x([{n}]P) is not a perfect square: {x.denominator}"
        )
    return EdsTerm(n=n, A=x.numerator, D=root)


def curve_point_key(curve: WeierstrassCurve, P: RatPoint) -> str:
    """Stable hash of (a1..a6, x(P), y(P)): the table key and file-header ``curve_hash``."""
    x, y = Fraction(P[0]), Fraction(P[1])
    blob = json.dumps(
        {
            "a": [str(c) for c in curve.coefficients()],
            "x": f"{x.numerator}/{x.denominator}",
            "y": f"{y.numerator}/{y.denominator}",
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's int/str conversion limit (4300 digits) while active.

    Reading a table file converts numbers past the limit; everything else
    prints through _decimal.  The previous limit is restored on exit.
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


# _decimal hands str() pieces of about this many digits, and splits larger
# numbers at 10**h for h = _CHUNK_DIGITS * 2**j.  It stays below 640, the
# smallest digit limit the interpreter accepts, so no setting stops a piece.
_CHUNK_DIGITS = 512


@lru_cache(maxsize=None)
def _power_of_five(h: int) -> int:
    return 5 ** h


def _decimal(x: int) -> str:
    """``str(x)`` for any size of x, in pieces that stay below the interpreter's digit limit.

    CPython's int-to-decimal conversion is quadratic in the digit count, and
    dividing by a power of ten costs less than converting the same digits,
    so |x| is split at 10**h, h = 512 * 2**j, into halves converted on their
    own.  x // 10**h is (x >> h) // 5**h, whose divisor is 30% shorter, and
    the remainder is that division's, shifted back above x's h low bits.
    The digit estimate from the bit length is never above the true count,
    so the top part is never empty and never cut; on a piece that goes to
    str() it is at most 2 below.
    """
    if x < 0:
        return "-" + _decimal(-x)
    digits = x.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2)
    if digits <= _CHUNK_DIGITS:
        return str(x)
    h = _CHUNK_DIGITS
    while 2 * h < digits:
        h *= 2
    high, low = divmod(x >> h, _power_of_five(h))
    return _decimal(high) + _padded_decimal((low << h) | (x & ((1 << h) - 1)), h)


def _padded_decimal(x: int, h: int) -> str:
    """The h digits of 0 <= x < 10**h, with leading zeros, for h = 512 * 2**j."""
    if h == _CHUNK_DIGITS:
        return str(x).zfill(h)
    h //= 2
    high, low = divmod(x >> h, _power_of_five(h))
    return _padded_decimal(high, h) + _padded_decimal((low << h) | (x & ((1 << h) - 1)), h)


def _hash_row(n: int, A: str, D: str) -> bytes:
    return f"{n}:{A}:{D};".encode()


class EdsTable:
    """Contiguous terms 1..N of the sequence for one (E, P) pair."""

    def __init__(self, curve: WeierstrassCurve, P: RatPoint, terms: List[EdsTerm]):
        self.curve = curve
        self.point = P
        self.terms = terms
        self.key = curve_point_key(curve, P)
        self._content_hash: Optional[str] = None

    @property
    def max_index(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> EdsTerm:
        if not 1 <= n <= len(self.terms):
            raise TableMiss(f"index {n} outside table range 1..{len(self.terms)}")
        return self.terms[n - 1]

    def D(self, n: int) -> int:
        return self.term(n).D

    def d_values(self) -> List[int]:
        return [t.D for t in self.terms]

    def check_divisibility(self) -> List[Tuple[int, int]]:
        """All (m, n) with m | n, m < n but D_m not dividing D_n, sorted by (n, m).

        Each m <= N/2 steps through its multiples 2m, 3m, ... <= N, so the
        scan visits the O(N log N) divisor pairs and nothing else.
        """
        D = self.d_values()
        N = len(D)
        bad = [(m, n) for m in range(1, N // 2 + 1)
               for n in range(2 * m, N + 1, m) if D[n - 1] % D[m - 1]]
        bad.sort(key=lambda pair: (pair[1], pair[0]))
        return bad

    def content_hash(self) -> str:
        """Digest of the key and every (n, A_n, D_n) in decimal; computed once per table."""
        if self._content_hash is None:
            digest = hashlib.sha256(self.key.encode())
            for t in self.terms:
                digest.update(_hash_row(t.n, _decimal(t.A), _decimal(t.D)))
            self._content_hash = digest.hexdigest()[:16]
        return self._content_hash

    # -- JSON-lines persistence ----------------------------------------

    def _header_line(self, content_hash: str) -> str:
        header = {
            "curve_hash": self.key,
            "tool_version": __version__,
            "n_max": self.max_index,
            "content_hash": content_hash,
        }
        return json.dumps(header, sort_keys=True) + "\n"

    def dump(self, path: str) -> None:
        """Write the table atomically: a temp file beside ``path``, then ``os.replace``.

        Each term is converted to decimal once, for its line and the content
        hash together.  The header goes first with a placeholder hash of the
        same length and is rewritten in place once the hash is known.
        """
        digest = hashlib.sha256(self.key.encode())
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(self._header_line("0" * 16))
                for t in self.terms:
                    A, D = _decimal(t.A), _decimal(t.D)
                    digest.update(_hash_row(t.n, A, D))
                    fh.write(json.dumps({"n": t.n, "A": A, "D": D}) + "\n")
                self._content_hash = digest.hexdigest()[:16]
                fh.seek(0)
                fh.write(self._header_line(self._content_hash))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @staticmethod
    def load(path: str, curve: WeierstrassCurve, P: RatPoint) -> "EdsTable":
        """Read a table written by ``dump`` and verify it.

        Raises ValueError if the file is malformed, belongs to another
        (E, P), is not contiguous from 1, disagrees with its header's
        ``n_max`` or ``content_hash``, holds a term with ``D_n < 1``, or
        fails the divisibility scan.
        """
        try:
            with open(path) as fh, _unlimited_int_digits():
                header = json.loads(fh.readline())
                if header.get("curve_hash") != curve_point_key(curve, P):
                    raise ValueError("table file does not match the given curve/point")
                terms = []
                for line in fh:
                    rec = json.loads(line)
                    terms.append(EdsTerm(n=rec["n"], A=int(rec["A"]), D=int(rec["D"])))
            terms.sort(key=lambda t: t.n)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed table file {path}: {exc!r}") from exc
        if [t.n for t in terms] != list(range(1, len(terms) + 1)):
            raise ValueError("table file is not contiguous from 1")
        if any(t.D < 1 for t in terms):
            raise ValueError("table file holds a term with D_n < 1")
        table = EdsTable(curve, P, terms)
        if header.get("n_max") != table.max_index:
            raise ValueError("table file does not hold the n_max terms its header names")
        if header.get("content_hash") != table.content_hash():
            raise ValueError("table file does not match its content hash")
        if table.check_divisibility():
            raise ValueError("table file violates the divisibility property")
        return table


def _projected_digits(terms: List[EdsTerm], N: int) -> float:
    """Projected digit count of D_N from the observed quadratic growth."""
    best = 0.0
    for t in terms:
        if t.D > 1:
            best = max(best, math.log10(t.D) / (t.n * t.n))
    return best * N * N


# -- division-polynomial generation ---------------------------------------
#
# With x(P) = a/d^2 and y(P) = b/d^3, psi_n has weight n^2 - 1 in (x, y), so
# Psi_n = d^(n^2-1) * psi_n(P) is an integer satisfying the same recurrence.
# Then x([n]P) = Phi_n / (d*Psi_n)^2 with Phi_n = a*Psi_n^2 - Psi_{n+1}*Psi_{n-1}.
#
# Ward ("Memoir on elliptic divisibility sequences", Amer. J. Math. 70,
# 1948): an integral elliptic sequence with W_0 = 0, W_1 = 1, W_2 W_3 != 0,
# W_2 | W_4 and gcd(W_3, W_4) = 1 is a strong divisibility sequence,
# gcd(W_m, W_n) = |W_gcd(m,n)|.  For Psi this gives gcd(Psi_n, Psi_{n+1}) = 1,
# and a prime dividing Phi_n and Psi_n would divide Psi_{n+1} Psi_{n-1}; so
# gcd(Phi_n, Psi_n) = 1.  Phi_n is the homogenised monic phi_n of degree n^2,
# so Phi_n = a^(n^2) mod d^2, and gcd(a, d) = 1: the correction
# gcd(Phi_n, (d Psi_n)^2) is 1.


def _scaled_coordinates(P: RatPoint) -> Tuple[int, int, int]:
    """(a, b, d) with x(P) = a/d^2, y(P) = b/d^3 and d > 0."""
    if P is None:
        raise TorsionPoint("P is the identity")
    x, y = Fraction(P[0]), Fraction(P[1])
    d = math.isqrt(x.denominator)
    if d * d != x.denominator:
        raise NonSquareDenominator(
            f"denominator of x(P) is not a perfect square: {x.denominator}"
        )
    b = y * d ** 3
    if b.denominator != 1:
        raise NonSquareDenominator(f"denominator of y(P) is not {d}^3: {y.denominator}")
    return x.numerator, b.numerator, d


def _weighted(coefficients: Tuple[int, ...], a: int, d2: int) -> int:
    """sum_i c_i * a^(k-i) * d2^i for coefficients c_0..c_k (Horner in a)."""
    value, scale = 0, 1
    for c in coefficients:
        value = value * a + c * scale
        scale *= d2
    return value


def _psi_seeds(curve: WeierstrassCurve, a: int, b: int, d: int) -> List[int]:
    """Psi_0..Psi_4 from the curve's b-invariants."""
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    d2 = d * d
    psi2 = 2 * b + curve.a1 * a * d + curve.a3 * d * d2
    psi3 = _weighted((3, b2, 3 * b4, 3 * b6, b8), a, d2)
    psi4 = psi2 * _weighted(
        (2, b2, 5 * b4, 10 * b6, 10 * b8, b2 * b8 - b4 * b6, b4 * b8 - b6 * b6), a, d2
    )
    return [0, 1, psi2, psi3, psi4]


def _extend_psi(psi: List[int], upto: int) -> None:
    """Append Psi_n for n = len(psi)..upto by Ward's recurrence.

    Psi_{2m+1} = Psi_{m+2} Psi_m^3 - Psi_{m-1} Psi_{m+1}^3 and
    Psi_{2m} Psi_2 = Psi_m (Psi_{m+2} Psi_{m-1}^2 - Psi_{m-2} Psi_{m+1}^2);
    the division by Psi_2 is checked to be exact.
    """
    psi2 = psi[2]
    for n in range(len(psi), upto + 1):
        m = n // 2
        if n % 2:
            psi.append(psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3)
            continue
        if psi2 == 0:
            raise TorsionPoint("[2]P is the identity; P is torsion")
        q, r = divmod(
            psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2), psi2
        )
        if r:
            raise SoundnessError(f"Psi_2 does not divide the recurrence for Psi_{n}")
        psi.append(q)


def _strong_divisibility(psi: List[int]) -> bool:
    """Ward's hypothesis on Psi_0..Psi_4: W_2 W_3 != 0, W_2 | W_4 and gcd(W_3, W_4) = 1.

    W_0 = 0 and W_1 = 1 hold by construction (``_psi_seeds``).
    """
    return bool(psi[2] and psi[3]) and psi[4] % psi[2] == 0 and math.gcd(psi[3], psi[4]) == 1


def _term_from_psi(psi: List[int], n: int, a: int, d: int, strong: bool) -> EdsTerm:
    """(A_n, D_n) = (Phi_n / g, |d Psi_n| / sqrt(g)) with g = gcd(Phi_n, (d Psi_n)^2).

    ``strong`` says that Psi satisfies Ward's hypothesis (``_strong_divisibility``);
    then gcd(Phi_n, Psi_n) = 1 and Phi_n = a^(n^2) mod d^2, so g = 1.  Otherwise
    g comes from the gcd of Phi_n with d Psi_n.
    """
    if psi[n] == 0:
        raise TorsionPoint(f"[{n}]P is the identity; P is torsion")
    scaled = d * psi[n]
    phi = a * psi[n] ** 2 - psi[n + 1] * psi[n - 1]
    g = 1
    # Every prime of g divides gcd(Phi_n, d Psi_n), which is cheaper and usually 1.
    if not strong and math.gcd(phi, scaled) > 1:
        g = math.gcd(phi, scaled * scaled)
    root = math.isqrt(g)
    if root * root != g:
        raise NonSquareDenominator(f"gcd(Phi_{n}, (d Psi_{n})^2) is not a perfect square: {g}")
    return EdsTerm(n=n, A=phi // g, D=abs(scaled) // root)


def _division_terms(
    curve: WeierstrassCurve, P: RatPoint, N: int, max_digits: int
) -> List[EdsTerm]:
    """Terms 1..N from Psi_0..Psi_{N+1}; the growth guard runs on the first 16."""
    a, b, d = _scaled_coordinates(P)
    psi = _psi_seeds(curve, a, b, d)
    strong = _strong_divisibility(psi)
    terms: List[EdsTerm] = []
    probe = min(N, 16)
    for stop in (probe, N):
        _extend_psi(psi, stop + 1)
        terms.extend(
            _term_from_psi(psi, n, a, d, strong) for n in range(len(terms) + 1, stop + 1)
        )
        if stop < N:
            projected = _projected_digits(terms, N)
            if projected > max_digits:
                raise BudgetExceeded(
                    f"projected D_{N} size ~{projected:.0f} digits exceeds limit {max_digits}"
                )
    return terms


def eds_range(
    curve: WeierstrassCurve,
    P: RatPoint,
    N: int,
    max_digits: int = DEFAULT_MAX_DIGITS,
) -> EdsTable:
    """Terms 1..N from the integer division-polynomial recurrence.

    D_n = |d Psi_n| / sqrt(g) with g = gcd(Phi_n, (d Psi_n)^2); the square
    root absorbs the correction at bad primes, and g is checked to be a
    perfect square on every term.  When Psi meets Ward's strong-divisibility
    hypothesis (W_0 = 0, W_1 = 1, W_2 W_3 != 0, W_2 | W_4, gcd(W_3, W_4) = 1,
    tested once per table), g = 1; otherwise g is found per term from
    gcd(Phi_n, d Psi_n).
    The table is cross-checked against
    double-and-add over Q at n = N//2 and n = N, and the divisibility
    property D_m | D_n for m | n is verified on all of it before it is
    returned; a failure of either raises SoundnessError.
    """
    if N < 1:
        raise ValueError("N must be positive")
    terms = _division_terms(curve, P, N, max_digits)
    for n in {max(1, N // 2), N}:
        if eds_term(curve, P, n) != terms[n - 1]:
            raise SoundnessError(f"division-polynomial term disagrees with double-and-add at n={n}")
    table = EdsTable(curve, P, terms)
    bad = table.check_divisibility()
    if bad:
        raise SoundnessError(f"divisibility property violated at pairs {bad[:5]}")
    return table
