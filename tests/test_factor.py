"""Factorization with explicit partiality, radicals, smoothness."""

import math
import random
import time

import pytest
from hypothesis import assume, example, given, strategies as st

from edskit import factor, intmath
from edskit.factor import (
    RHO_SHORT_RUN,
    TRIAL_CHUNK,
    Effort,
    _brent_rho,
    _ecm_plan,
    _trial_divide,
    factorize,
)
from edskit.intmath import is_prime, primes_up_to, valuation
from edskit.obstruction import _top_primes
from edskit.valuation import TermRadicalData
from oracles import brute_is_smooth, trial_divide_per_prime


def _product(fac):
    """The cofactor times every listed prime power: n again, whether or not fac is complete."""
    out = fac.cofactor
    for p, e in fac.factors:
        out *= p ** e
    return out

# Two 150-bit primes: far beyond any small budget.
BIG_A = 1427247692705959881058285969449495136382747711
BIG_B = 1427247692705959881058285969449495136382746619
# Two 41-bit primes: their product needs ECM after the short rho run.
P41, Q41 = 1099511627791, 1100511627793


def power_radical(x, S, rho, effort=Effort()):
    """rad_{S,rho}(x) with its completeness, through TermRadicalData.power_radical."""
    fac = factorize(x, effort)
    data = TermRadicalData(l=0, entries=[(p, e) for p, e in fac.factors if p not in S],
                           complete=fac.complete,
                           s_free=x // math.prod(p ** valuation(x, p) for p in S))
    return data.power_radical(rho), data.complete


def test_factorize_examples():
    assert factorize(12).factors == [(2, 2), (3, 1)]
    assert factorize(12).complete
    assert factorize(1).factors == []
    assert factorize(1).complete
    big = 4 * (10 ** 9 + 7)
    fac = factorize(big)
    assert fac.factors == [(2, 2), (10 ** 9 + 7, 1)]
    assert fac.complete


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("fields", [
    (-5, 100, 10), (100, -1, 10), (100, 100, -1.0), (100, 100, float("nan")),
])
def test_effort_rejects_negative_or_nan_fields(fields):
    # With trial_bound = -5 nothing was stripped and 4 <= 25 passed for a prime: [(4, 1)].
    with pytest.raises(ValueError):
        Effort(*fields)


def test_zero_effort_still_factors():
    assert factorize(4, Effort(0, 0, 0.0)).factors == [(2, 2)]


def test_factorize_semiprime_beyond_trial_bound():
    p, q = 1000003, 1000033
    fac = factorize(p * q, Effort(trial_bound=100, rho_iterations=10 ** 7))
    assert fac.complete
    assert fac.factors == [(p, 1), (q, 1)]


def test_factorize_tests_each_cofactor_for_primality_once(monkeypatch):
    tested = []

    def counted_is_prime(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(factor, "is_prime", counted_is_prime)
    p, q = 1000003, 1000033
    assert factorize(p * q, Effort(trial_bound=100)).factors == [(p, 1), (q, 1)]
    assert sorted(tested) == [p, q, p * q]


def test_factorize_partial_within_tiny_budget():
    fac = factorize(BIG_A * BIG_B, Effort(trial_bound=100, rho_iterations=1, wall_clock=0.01))
    assert not fac.complete
    assert _product(fac) == BIG_A * BIG_B


def test_factorize_exponents_are_exact_when_a_piece_stays_unsplit():
    # The split phase finds p in one piece while another piece, p times a
    # 41-bit prime, stays unsplit within the short budget.
    p, A, B = 13211347, P41, 2199023267911  # B = nextprime(2**41 + 12345)
    n = p * p * A * B
    fac = factorize(n, Effort(100, RHO_SHORT_RUN, 600))
    assert fac.factors and _product(fac) == n
    for q, e in fac.factors:
        assert valuation(n, q) == e
        assert math.gcd(fac.cofactor, q) == 1
    assert (p, 2) in fac.factors


def test_ecm_splits_what_the_short_rho_run_cannot():
    n = P41 * Q41
    assert is_prime(P41) and is_prime(Q41)
    assert _brent_rho(n, RHO_SHORT_RUN, math.inf)[0] is None
    fac = factorize(n, Effort(100, 10 ** 6, 600))
    assert fac.complete
    assert fac.factors == [(P41, 1), (Q41, 1)]


def test_counted_budget_decides_not_the_clock():
    assert is_prime(BIG_A) and is_prime(BIG_B)
    start = time.monotonic()
    fac = factorize(BIG_A * BIG_B, Effort(trial_bound=100, rho_iterations=1, wall_clock=600))
    assert not fac.complete and fac.cofactor == BIG_A * BIG_B
    assert time.monotonic() - start < 5


def test_ecm_curve_starts_only_if_its_cost_fits(monkeypatch):
    import edskit.factor as factor

    cost = _ecm_plan()[2]
    curves = []
    real = factor._ecm_curve
    monkeypatch.setattr(factor, "_ecm_curve", lambda n, sigma: curves.append(sigma) or real(n, sigma))
    for budget, expected in ((RHO_SHORT_RUN + 2 * cost - 1, 1), (RHO_SHORT_RUN + 2 * cost, 2)):
        curves.clear()
        fac = factorize(BIG_A * BIG_B, Effort(trial_bound=100, rho_iterations=budget, wall_clock=600))
        assert not fac.complete
        assert len(curves) == expected


def test_factorize_is_deterministic_and_leaves_global_random_alone():
    n = 3 * P41 * Q41 * 1000003 ** 2
    random.seed(12345)
    state = random.getstate()
    first = factorize(n, Effort(100, 10 ** 6, 600))
    second = factorize(n, Effort(100, 10 ** 6, 600))
    assert random.getstate() == state
    assert first == second
    assert first.factors == [(3, 1), (1000003, 2), (P41, 1), (Q41, 1)]


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorize_product_identity(x):
    fac = factorize(x)
    assert _product(fac) == x
    assert fac.complete


def _chunk_edge_primes(bound):
    primes = primes_up_to(bound)
    edges = set()
    for start in range(0, len(primes), TRIAL_CHUNK):
        edges.update(primes[max(start - 1, 0) : start + 2])
    edges.update(primes[-2:])
    return sorted(edges)


def _primes_above(bound, count):
    out, q = [], bound + 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q += 1
    return out


@st.composite
def trial_division_inputs(draw):
    bound = draw(st.sampled_from([1, 2, 97, 1621, 3673, 10 ** 4, 10 ** 6]))
    pool = [2, 3, 5, 7] + _chunk_edge_primes(bound) + _primes_above(bound, 3)
    parts = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)), max_size=5))
    return math.prod(p ** e for p, e in parts), bound


@given(trial_division_inputs())
@example((1, 10 ** 6))
@example((1000003 ** 2, 10 ** 6))  # a p^2 survivor just above the bound
@example((3673 ** 2 * 1621 * 2 ** 20, 10 ** 4))  # prime powers on chunk edges
@example((999983 * 1000003, 10 ** 6))  # the last prime below the bound, the first above
def test_batched_trial_division_matches_per_prime_loop(case):
    x, bound = case
    assert _trial_divide(x, bound) == trial_divide_per_prime(x, bound)


def test_rad_S_rho_examples():
    assert power_radical(12, set(), 2) == (3, True)
    assert power_radical(12, {3}, 2) == (1, True)
    assert power_radical(8, set(), 3) == (1, True)


def test_rad_S_rho_partial_is_lower_bound():
    value, complete = power_radical(
        BIG_A * BIG_B * 3, set(), 2, Effort(trial_bound=100, rho_iterations=1, wall_clock=0.01)
    )
    assert not complete
    assert value % 3 == 0


@given(
    st.integers(min_value=1, max_value=10 ** 5),
    st.sampled_from([7, 11, 13]),
    st.sampled_from([2, 3]),
)
def test_rad_invisible_to_rho_powers(x, y, rho):
    # rad_{S,rho}(x * y^rho) = rad_{S,rho}(x) when y is coprime to x and S.
    assume(math.gcd(x, y) == 1)
    assert power_radical(x * y ** rho, set(), rho) == power_radical(x, set(), rho)


def test_sqf_examples():
    assert power_radical(12, set(), 2) == (3, True)
    assert power_radical(36, set(), 2) == (1, True)
    assert power_radical(18, {2}, 2) == (1, True)


def test_sqf_trivial_iff_square_times_s_units():
    # rad = 1 exactly when x is a square times a power product over S.
    S = {2}
    for x in range(1, 2000):
        fac = factorize(x)
        expected = all(p in S or e % 2 == 0 for p, e in fac.factors)
        assert (power_radical(x, S, 2)[0] == 1) == expected


def is_B_smooth(x, B):
    """B-smoothness of x as the obstruction checkers decide it for a cofactor a = n / l:
    P^+(n / P^+(n)) <= B, here for n = l * x with l the least prime above x.

    P^+(1) = 1, so this is exact for B >= 1; the checkers are used with B >= 2.
    """
    l = x + 1
    while not is_prime(l):
        l += 1
    return _top_primes(factorize(l * x))[1] <= B


def test_is_B_smooth_examples():
    assert is_B_smooth(12, 3)
    assert not is_B_smooth(14, 3)
    assert is_B_smooth(1, 2)
    assert is_B_smooth(6, 1e12)
    assert is_B_smooth(3 ** 25, 10 ** 40)
    assert not is_B_smooth(2 * 1000003, 10 ** 6)
    with pytest.raises(ValueError):
        is_B_smooth(0, 2)


def test_is_B_smooth_matches_brute_force():
    rng = random.Random(0)
    xs = list(range(1, 2001)) + [rng.randrange(1, 10 ** 5) for _ in range(500)]
    for x in xs:
        for B in (2, 3, 5, 10, 100):
            assert is_B_smooth(x, B) == brute_is_smooth(x, B), (x, B)


@given(
    st.integers(min_value=1, max_value=10 ** 6),
    st.one_of(st.integers(min_value=1, max_value=2000), st.floats(min_value=1, max_value=1e15)),
)
def test_is_B_smooth_matches_brute_force_property(x, B):
    assert is_B_smooth(x, B) == brute_is_smooth(x, B)


def test_is_B_smooth_fractional_bound():
    # A real bound B acts through the primes <= B.
    assert is_B_smooth(8, 2.5)
    assert not is_B_smooth(9, 2.5)
    assert is_B_smooth(1000003, 1000003.5)
    assert not is_B_smooth(1000003, 1000002.5)


def test_factorize_huge_trial_bound_keeps_the_sieve():
    # Trial division sieves only up to sqrt(x), however large the trial bound.
    primes_up_to(10 ** 6)
    bound, primes = intmath._sieve
    huge = Effort(trial_bound=10 ** 12)
    assert factorize(6, huge).factors == [(2, 1), (3, 1)]
    assert factorize(2 * 1000003, huge).factors == [(2, 1), (1000003, 1)]
    assert factorize(3 ** 25, huge).factors == [(3, 25)]
    assert intmath._sieve == (bound, primes) and intmath._sieve[1] is primes


def test_valuations_consistent_with_factorize():
    for x in (360, 9973, 2 ** 10 * 3 ** 4):
        for p, e in factorize(x).factors:
            assert valuation(x, p) == e
