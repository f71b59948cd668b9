"""Integer primitives: exact roots, valuations, primality."""

import pytest
from hypothesis import given, strategies as st

from edskit.intmath import (
    int_nth_root,
    is_prime,
    is_rho_power,
    primes_up_to,
    valuation,
)
from oracles import brute_nth_root, brute_valuation


def test_int_nth_root_examples():
    assert int_nth_root(144, 2) == (12, True)
    assert int_nth_root(145, 2) == (12, False)
    assert int_nth_root(1, 7) == (1, True)
    assert int_nth_root(0, 3) == (0, True)


def test_int_nth_root_rejects_bad_input():
    with pytest.raises(ValueError):
        int_nth_root(-1, 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 0)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=5))
def test_int_nth_root_matches_brute_force(x, r):
    assert int_nth_root(x, r) == brute_nth_root(x, r)


@given(st.integers(min_value=1, max_value=10 ** 9), st.integers(min_value=2, max_value=7))
def test_int_nth_root_on_exact_powers(y, r):
    root, exact = int_nth_root(y ** r, r)
    assert (root, exact) == (y, True)


def test_is_rho_power_examples():
    assert is_rho_power(4, 2)
    assert is_rho_power(8, 3)
    assert not is_rho_power(12, 2)
    assert is_rho_power(1, 5)
    with pytest.raises(ValueError):
        is_rho_power(0, 2)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(12, 5) == 0
    assert valuation(-250, 5) == 3


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(12, 1)


@given(
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_is_additive(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(st.integers(min_value=1, max_value=10 ** 6), st.sampled_from([2, 3, 5, 7]))
def test_valuation_matches_brute_force(x, p):
    assert valuation(x, p) == brute_valuation(x, p)


def test_is_prime_small_values():
    known = set(primes_up_to(200))
    for n in range(-5, 201):
        assert is_prime(n) == (n in known)


def test_is_prime_large_values():
    assert is_prime(10 ** 9 + 7)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
    assert not is_prime(2 ** 67 - 1)  # classic composite Mersenne number


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # Shrinking the bound must slice the cached sieve consistently.
    big = primes_up_to(1000)
    assert primes_up_to(100) == [p for p in big if p <= 100]
