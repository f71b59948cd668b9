"""Rational and finite-field curve arithmetic, point counting, minimality."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from edskit.curve import WeierstrassCurve, minimality_report
from edskit.errors import BadReduction, TrivialReduction
from edskit.factor import factorize
from edskit.intmath import is_prime, primes_up_to
from oracles import (
    enumerate_fp_points,
    oracle_add,
    oracle_mul,
    order_over_hasse_interval,
    random_pairs,
)

F = Fraction
COEFFS_37 = (0, 0, 1, -1, 0)


@pytest.fixture(scope="module")
def E():
    return WeierstrassCurve(*COEFFS_37)


def test_invariants_and_discriminant(E):
    assert E.discriminant == 37
    E43 = WeierstrassCurve(0, 1, 1, 0, 0)
    assert E43.discriminant == -43


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)  # y^2 = x^3 is singular


def test_contains_and_negate(E):
    P = (F(0), F(0))
    assert E.contains(P)
    assert E.contains(None)
    assert not E.contains((F(1), F(1)))
    assert E.negate(P) == (F(0), F(-1))
    assert E.contains(E.negate(P))


def test_add_doubling_matches_oracle(E):
    P = (F(0), F(0))
    assert E.add(P, P) == (F(1), F(0))
    assert E.add(P, P) == oracle_add(COEFFS_37, P, P)


def test_add_identity_and_inverse(E):
    P = (F(0), F(0))
    assert E.add(P, None) == P
    assert E.add(None, P) == P
    assert E.add((F(1), F(0)), (F(1), F(-1))) is None
    assert E.add(P, E.negate(P)) is None


def test_scalar_mul_matches_oracle(E):
    P = (F(0), F(0))
    assert E.mul(5, P) == (F(1, 4), F(-5, 8))
    assert E.mul(7, P) == (F(-5, 9), F(8, 27))
    assert E.mul(1, P) == P
    for n in (2, 3, 5, 7):
        assert E.mul(n, P) == oracle_mul(COEFFS_37, n, P)


def test_chord_addition_matches_oracle(E):
    P = (F(0), F(0))
    pts = [E.mul(n, P) for n in range(1, 6)]
    for A in pts[:3]:
        for B in pts[2:]:
            assert E.add(A, B) == oracle_add(COEFFS_37, A, B)


def test_scalar_mul_is_homomorphic(E):
    P = (F(0), F(0))
    for n in range(0, 10):
        for m in range(0, 10):
            assert E.mul(n + m, P) == E.add(E.mul(n, P), E.mul(m, P))


def test_scalar_mul_through_the_identity():
    # (0, 0) has order 5 on y^2 + y = x^3 - x^2, so the running multiple
    # passes through O for n >= 10; negative n goes through -P.
    E5 = WeierstrassCurve(0, -1, 1, 0, 0)
    P = (F(0), F(0))
    residues = [oracle_mul((0, -1, 1, 0, 0), r, P) for r in range(5)]
    assert residues[0] is None and None not in residues[1:]
    for n in range(-12, 13):
        assert E5.mul(n, P) == residues[n % 5]


def test_fp_scalar_mul_through_the_identity(E):
    # The F_p twin of the test above: [n]Q against n-fold addition of Q (of -Q
    # for negative n), for n in [-2r, 2r], so the multiples pass through O.
    P = (F(0), F(0))
    for p in (2, 3, 5, 7, 101, 1009):
        Ep = E.fp_curve(p)
        Q = Ep.reduce(P)
        r = E.reduction_order(P, p)
        for sign, step in ((1, Q), (-1, Ep.negate(Q))):
            R = None
            for k in range(2 * r + 1):
                n = sign * k
                assert Ep.mul(n, Q) == R, (p, n)
                assert (R is None) == (n % r == 0), (p, n)
                R = Ep.add(R, step)


def test_associativity_spot_checks(E):
    P = (F(0), F(0))
    rng = random.Random(1)
    multiples = [E.mul(n, P) for n in range(1, 12)]
    for _ in range(20):
        A, B, C = (rng.choice(multiples) for _ in range(3))
        assert E.add(E.add(A, B), C) == E.add(A, E.add(B, C))


def test_reduce_point_examples(E):
    assert E.fp_curve(5).reduce((F(0), F(0))) == (0, 0)
    assert E.fp_curve(5).reduce((0, 0)) == (0, 0)  # int coordinates reduce as they are
    assert E.fp_curve(2).reduce((F(1, 4), F(-5, 8))) is None
    # Modular-inverse oracle: x = 1 * 4^-1 = 2 mod 7, y = -5 * 8^-1 = 2 mod 7.
    assert pow(4, -1, 7) == 2 and (-5 * pow(8, -1, 7)) % 7 == 2
    assert E.fp_curve(7).reduce((F(1, 4), F(-5, 8))) == (2, 2)


def test_reduce_point_bad_reduction(E):
    with pytest.raises(BadReduction, match="p=37 divides the discriminant"):
        E.reduction_order((F(0), F(0)), 37)
    with pytest.raises(BadReduction):
        E.fp_curve(37)


def test_group_order_examples_vs_enumeration(E):
    for p, expected in ((2, 5), (3, 7), (5, 8)):
        assert E.group_order(p) == expected
        assert len(enumerate_fp_points(COEFFS_37, p)) == expected


def test_group_order_hasse_bound(E):
    for p in primes_up_to(200):
        if p == 37:
            continue
        N = E.group_order(p)
        assert abs(N - p - 1) <= 2 * isqrt(p) + 1


def assert_exact_order(curve, P, p, r):
    """[r]P = O and [r/q]P != O mod p for every prime q | r."""
    Ep = curve.fp_curve(p)
    Pt = Ep.reduce(P)
    assert Ep.mul(r, Pt) is None
    fac = factorize(r)
    assert fac.complete
    for q, _ in fac.factors:
        assert Ep.mul(r // q, Pt) is not None, (p, r, q)


def test_reduction_order_divides_group_order(all_fixtures):
    for curve, P, _table, _S in all_fixtures:
        for p in primes_up_to(1999):
            if not curve.has_good_reduction(p):
                continue
            try:
                r = curve.reduction_order(P, p)
            except TrivialReduction:
                continue
            assert curve.group_order(p) % r == 0, (p, r)
            assert_exact_order(curve, P, p, r)


def test_reduction_order_fixture_values(E):
    P = (F(0), F(0))
    assert E.reduction_order(P, 2) == 5
    assert E.reduction_order(P, 3) == 7
    assert E.reduction_order(P, 5) == 8


def test_reduction_order_trivial(E):
    with pytest.raises(TrivialReduction):
        E.reduction_order((F(1, 4), F(-5, 8)), 2)


def test_reduction_is_homomorphism(E):
    P = (F(0), F(0))
    for p in (5, 7, 11, 13):
        Ep = E.fp_curve(p)
        Pt = Ep.reduce(P)
        for n in range(1, 15):
            Q = E.mul(n, P)
            if Q is not None and F(Q[0]).denominator % p == 0:
                assert Ep.mul(n, Pt) is None
            else:
                assert Ep.reduce(Q) == Ep.mul(n, Pt)


def test_fp_point_counting_naive_vs_enumeration():
    E43 = WeierstrassCurve(0, 1, 1, 0, 0)
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        Ep = E43.fp_curve(p)
        assert Ep.count_points_naive() == len(enumerate_fp_points((0, 1, 1, 0, 0), p))


def test_bsgs_above_naive_limit(all_fixtures):
    # The smallest primes above 2^20 and 2^40, the old counting limits.
    for p in (1048583, 1099511627791):
        for curve, P, _table, _S in all_fixtures:
            r = curve.reduction_order(P, p)
            assert_exact_order(curve, P, p, r)
            # Some multiple of r lies in the Hasse interval.
            hi = p + 1 + 2 * isqrt(p) + 1
            assert hi // r * r >= p + 1 - 2 * isqrt(p) - 1, (p, r)


def count_orders_matching_oracle(curve, P, primes):
    """Assert reduction_order equals the slow path at every good p in primes; return how many."""
    compared = 0
    for p in primes:
        if not curve.has_good_reduction(p) or curve.fp_curve(p).reduce(P) is None:
            continue
        assert curve.reduction_order(P, p) == order_over_hasse_interval(curve, P, p), p
        compared += 1
    return compared


def test_reduction_order_matches_oracle_below_20000(all_fixtures):
    for curve, P, _table, _S in all_fixtures:
        assert count_orders_matching_oracle(curve, P, primes_up_to(20000)) > 2200


def test_reduction_order_matches_oracle_on_large_primes(all_fixtures):
    # 200 seeded primes from 10^5 to 10^12, spread evenly over the seven decades.
    rng = random.Random(19)
    primes = []
    for i in range(200):
        digits = 5 + i % 7
        n = rng.randrange(10 ** digits, 10 ** (digits + 1))
        while not is_prime(n):
            n += 1
        primes.append(n)
    for curve, P, _table, _S in all_fixtures:
        assert count_orders_matching_oracle(curve, P, primes) == 200


def test_reduction_order_matches_oracle_on_random_pairs():
    for curve, P in random_pairs(seed=12, count=24):
        assert count_orders_matching_oracle(curve, P, primes_up_to(1000)) > 100


def test_bsgs_certifies_the_least_multiple(all_fixtures):
    # The order's proof needs the least n >= start with [n]Q = O, and
    # start <= max(1, p+1-2*sqrt(p)) keeps #E(F_p) within the scan.
    for curve, P, _table, _S in all_fixtures:
        for p in primes_up_to(499):
            if not curve.has_good_reduction(p):
                continue
            Ep = curve.fp_curve(p)
            Q = Ep.reduce(P)
            if Q is None:
                continue
            start, least = Ep._annihilator_in_hasse_interval(Q)
            assert start == 1 or start <= p + 1 and (p + 1 - start) ** 2 >= 4 * p, (p, start)
            n, R = 1, Q
            while n < start or R is not None:
                n, R = n + 1, Ep.add(R, Q)
            assert least == n, (p, start, least)


def test_minimality_report_fixture(E):
    rep = minimality_report(E)
    assert rep.certified
    assert rep.notes == []


def test_minimality_report_flags_scaled_model():
    # The 37-fixture rescaled by u=5: v_5(disc)=12 and v_5(c4)=4.
    Eu = WeierstrassCurve(0, 0, 5 ** 3, -(5 ** 4), 0)
    rep = minimality_report(Eu)
    assert not rep.certified
    assert any("p=5" in note for note in rep.notes)


def test_minimality_report_warns_at_2_and_3():
    E11 = WeierstrassCurve(0, -1, 1, 0, 0)  # discriminant -11: certified
    assert minimality_report(E11).certified
    E2 = WeierstrassCurve(0, 0, 0, 1, 1)  # discriminant -496 = -2^4 * 31
    rep = minimality_report(E2)
    assert not rep.certified
    assert any("p=2" in note for note in rep.notes)
