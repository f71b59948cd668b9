"""Shared fixtures: the three reference (curve, point) pairs and their tables.

The exceptional sets are the library's: bad primes and the support of D_1.
Every pair has a1 = 0, so 2 joins S only as a bad or D_1 prime; the
valuation law at 2 and 3 is checked directly by test_valuation and
test_acceptance.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from edskit.curve import WeierstrassCurve
from edskit.eds import eds_range
from edskit.obstruction import ObstructionContext
from edskit.valuation import build_exceptional_set


@pytest.fixture(autouse=True)
def int_digit_limit_unchanged():
    """Fail a test that leaves Python's integer-to-string digit limit changed.

    Tests that set the limit by hand must restore it; a leak would silently
    change what every later test checks.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    before = sys.get_int_max_str_digits()
    yield
    after = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before)
    assert after == before, f"the test left the digit limit at {after}, not {before}"


@pytest.fixture(scope="session")
def curve37():
    return WeierstrassCurve(0, 0, 1, -1, 0)


@pytest.fixture(scope="session")
def point37(curve37):
    return (Fraction(0), Fraction(0))


@pytest.fixture(scope="session")
def point37q(curve37):
    # Same curve, non-integral point: D_1 = 2.
    return (Fraction(1, 4), Fraction(-5, 8))


@pytest.fixture(scope="session")
def curve43():
    return WeierstrassCurve(0, 1, 1, 0, 0)


@pytest.fixture(scope="session")
def point43(curve43):
    return (Fraction(0), Fraction(0))


@pytest.fixture(scope="session")
def table37(curve37, point37):
    return eds_range(curve37, point37, 60)


@pytest.fixture(scope="session")
def table37q(curve37, point37q):
    return eds_range(curve37, point37q, 60, max_digits=10 ** 6)


@pytest.fixture(scope="session")
def table43(curve43, point43):
    return eds_range(curve43, point43, 60)


@pytest.fixture(scope="session")
def s37(curve37, point37):
    return build_exceptional_set(curve37, point37)


@pytest.fixture(scope="session")
def s37q(curve37, point37q):
    return build_exceptional_set(curve37, point37q)


@pytest.fixture(scope="session")
def s43(curve43, point43):
    return build_exceptional_set(curve43, point43)


@pytest.fixture(scope="session")
def ctx37(s37, table37):
    return ObstructionContext(table37, s37, rho=2)


@pytest.fixture(scope="session")
def all_fixtures(curve37, point37, point37q, curve43, point43,
                 table37, table37q, table43, s37, s37q, s43):
    return [
        (curve37, point37, table37, s37),
        (curve37, point37q, table37q, s37q),
        (curve43, point43, table43, s43),
    ]
