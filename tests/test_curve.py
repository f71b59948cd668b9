"""Rational and finite-field curve arithmetic, point counting, minimality."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from edskit.curve import WeierstrassCurve, minimality_report
from edskit.errors import BadReduction, TrivialReduction
from edskit.factor import factorize
from edskit.intmath import primes_up_to
from oracles import enumerate_fp_points, oracle_add, oracle_mul

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


def test_associativity_spot_checks(E):
    P = (F(0), F(0))
    rng = random.Random(1)
    multiples = [E.mul(n, P) for n in range(1, 12)]
    for _ in range(20):
        A, B, C = (rng.choice(multiples) for _ in range(3))
        assert E.add(E.add(A, B), C) == E.add(A, E.add(B, C))


def test_reduce_point_examples(E):
    assert E.reduce_point((F(0), F(0)), 5) == (0, 0)
    assert E.reduce_point((F(1, 4), F(-5, 8)), 2) is None
    # Modular-inverse oracle: x = 1 * 4^-1 = 2 mod 7, y = -5 * 8^-1 = 2 mod 7.
    assert pow(4, -1, 7) == 2 and (-5 * pow(8, -1, 7)) % 7 == 2
    assert E.reduce_point((F(1, 4), F(-5, 8)), 7) == (2, 2)


def test_reduce_point_bad_reduction(E):
    with pytest.raises(BadReduction):
        E.reduce_point((F(0), F(0)), 37)
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
    Pt = curve.reduce_point(P, p)
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
        Pt = E.reduce_point(P, p)
        for n in range(1, 15):
            Q = E.mul(n, P)
            if Q is not None and F(Q[0]).denominator % p == 0:
                assert Ep.mul(n, Pt) is None
            else:
                assert E.reduce_point(Q, p) == Ep.mul(n, Pt)


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
