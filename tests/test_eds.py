"""Denominator-sequence generation, validation, and persistence."""

import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import edskit
from edskit import eds
from edskit.curve import WeierstrassCurve
from edskit.eds import (
    EdsTable,
    EdsTerm,
    _decimal,
    _extend_psi,
    _psi_seeds,
    _scaled_coordinates,
    _strong_divisibility,
    _term_from_point,
    _term_from_psi,
    eds_range,
    eds_term,
)
from edskit.errors import (
    BudgetExceeded,
    NonSquareDenominator,
    SoundnessError,
    TableMiss,
    TorsionPoint,
)
from oracles import (
    divisibility_violations_by_pairs, random_pairs, read_table_file, term_by_per_term_gcd,
)

F = Fraction

# y^2 = x^3 - 6x with P = (3, 3): 3 is a bad prime where gcd(Phi_n, Psi_n^2) > 1.
CURVE_M6 = WeierstrassCurve(0, 0, 0, -6, 0)
POINT_M6 = (F(3), F(3))


def test_eds_term_examples(curve37, point37):
    t5 = eds_term(curve37, point37, 5)
    assert (t5.A, t5.D) == (1, 2)  # x([5]P) = 1/4
    t7 = eds_term(curve37, point37, 7)
    assert (t7.A, t7.D) == (-5, 3)  # x([7]P) = -5/9
    t8 = eds_term(curve37, point37, 8)
    assert (t8.A, t8.D) == (21, 5)  # x([8]P) = 21/25


def test_eds_term_rejects_bad_n(curve37, point37):
    with pytest.raises(ValueError):
        eds_term(curve37, point37, 0)


def test_eds_term_torsion_point():
    E = WeierstrassCurve(0, -1, 1, 0, 0)  # (0,0) has order 5 here
    with pytest.raises(TorsionPoint):
        eds_term(E, (F(0), F(0)), 5)


def test_non_square_denominator_guard():
    with pytest.raises(NonSquareDenominator):
        _term_from_point((F(1, 3), F(1, 5)), 1)
    with pytest.raises(NonSquareDenominator):
        _scaled_coordinates((F(1, 3), F(1, 5)))
    # Phi_2 = 1*3^2 - 6*1 = 3, so g = gcd(3, 3^2) = 3 is not a square.
    with pytest.raises(NonSquareDenominator):
        _term_from_psi([0, 1, 3, 6], 2, 1, 1, strong=False)


def test_eds_range_fixture_prefix(table37):
    assert table37.d_values()[:8] == [1, 1, 1, 1, 2, 1, 3, 5]


def test_eds_range_n_equals_one(curve37, point37):
    t = eds_range(curve37, point37, 1)
    assert t.d_values() == [1]


def test_eds_range_matches_direct_terms(curve37, point37, point37q, curve43, point43):
    # The recurrence against double-and-add over Q at every index; the last
    # pair has a1 != 0 and x(P) = -1/4 (it is [4](0, 0) on y^2 + xy + y = x^3 - x^2).
    for E, P, N in ((curve37, point37, 100), (curve43, point43, 100), (curve37, point37q, 40),
                    (WeierstrassCurve(1, -1, 1, 0, 0), (F(-1, 4), F(-5, 8)), 40)):
        table = eds_range(E, P, N, max_digits=10 ** 6)
        assert table.terms == [eds_term(E, P, n) for n in range(1, N + 1)]


def test_eds_range_short_tables(curve37, point37, point37q, curve43, point43):
    for E, P in ((curve37, point37), (curve37, point37q), (curve43, point43),
                 (CURVE_M6, POINT_M6)):
        for N in range(1, 5):
            assert eds_range(E, P, N).terms == [eds_term(E, P, n) for n in range(1, N + 1)]


def test_bad_prime_correction():
    table = eds_range(CURVE_M6, POINT_M6, 30)
    assert table.terms == [eds_term(CURVE_M6, POINT_M6, n) for n in range(1, 31)]
    a, b, d = _scaled_coordinates(POINT_M6)
    psi = _psi_seeds(CURVE_M6, a, b, d)
    # D_n = |Psi_n| / sqrt(g) with g = 9, 81, 6561 at n = 2, 3, 4.
    assert [abs(psi[n]) for n in (2, 3, 4)] == [table.D(2) * 3, table.D(3) * 9, table.D(4) * 81]


def _psi_upto(E, P, n):
    a, b, d = _scaled_coordinates(P)
    psi = _psi_seeds(E, a, b, d)
    _extend_psi(psi, n)
    return psi, a, d


def test_ward_shortcut_matches_per_term_gcd():
    # Every term n <= 40 of 24 seeded pairs against the per-term gcd and
    # double-and-add; the pairs cover both paths, some with d > 1.
    N = 40
    paths = []
    for E, P in random_pairs(seed=12, count=24):
        psi, a, d = _psi_upto(E, P, N + 1)
        strong = _strong_divisibility(psi)
        assert strong == (math.gcd(psi[3], psi[4]) == 1)
        paths.append((strong, d > 1))
        # Phi_n = a^(n^2) mod d^2 (the homogenised monic phi_n): g = 1 on the strong path.
        d2 = d * d
        for n in range(1, N + 1):
            assert (a * psi[n] ** 2 - psi[n + 1] * psi[n - 1] - pow(a, n * n, d2)) % d2 == 0
        table = eds_range(E, P, N, max_digits=10 ** 6)
        assert [(t.A, t.D) for t in table.terms] == [
            term_by_per_term_gcd(psi, n, a, d) for n in range(1, N + 1)
        ]
        assert table.terms == [eds_term(E, P, n) for n in range(1, N + 1)]
    assert paths.count((False, False)) >= 2
    assert paths.count((True, True)) >= 2


def test_bad_prime_curve_takes_the_fallback(curve37, point37, monkeypatch):
    psi, a, d = _psi_upto(CURVE_M6, POINT_M6, 4)
    assert math.gcd(psi[3], psi[4]) == 9 and not _strong_divisibility(psi)
    seen = []

    def spy(psi, n, a, d, strong):
        seen.append(strong)
        return _term_from_psi(psi, n, a, d, strong)

    monkeypatch.setattr(eds, "_term_from_psi", spy)
    eds_range(CURVE_M6, POINT_M6, 12)
    assert seen == [False] * 12
    seen.clear()
    eds_range(curve37, point37, 12)
    assert seen == [True] * 12


def test_division_terms_use_no_big_gcd(curve37, point37, point37q, curve43, point43, monkeypatch):
    # Ward's shortcut leaves only gcd(Psi_3, Psi_4):
    # a per-term gcd of Phi_n with d Psi_n would take arguments of thousands of bits.
    widest = []
    gcd = math.gcd

    def recording_gcd(*args):
        widest.append(max(abs(x).bit_length() for x in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording_gcd)
    for E, P in ((curve37, point37), (curve37, point37q), (curve43, point43)):
        widest.clear()
        terms = eds._division_terms(E, P, 200, 10 ** 6)
        assert max(t.D.bit_length() for t in terms) > 1000
        assert widest and max(widest) <= 64


def test_inexact_psi2_division_is_soundness_error():
    # Psi_5 = 5*2^3 - 3^3 = 13, and Psi_3 (Psi_5 Psi_2^2 - Psi_4^2) = 81 is odd.
    with pytest.raises(SoundnessError):
        _extend_psi([0, 1, 2, 3, 5], 6)


def test_cross_check_disagreement_is_soundness_error(curve37, point37, monkeypatch):
    monkeypatch.setattr(eds, "eds_term", lambda E, P, n: EdsTerm(n=n, A=0, D=1))
    with pytest.raises(SoundnessError):
        eds_range(curve37, point37, 10)


def test_divisibility_violation_is_soundness_error(curve37, point37, monkeypatch):
    monkeypatch.setattr(EdsTable, "check_divisibility", lambda self: [(5, 10)])
    with pytest.raises(SoundnessError):
        eds_range(curve37, point37, 10)


def test_divisibility_scan_clean(table37, table43):
    assert table37.check_divisibility() == []
    assert table43.check_divisibility() == []


def _planted(table, edits):
    """A copy of the table with D_n replaced by edits[n]."""
    terms = [EdsTerm(t.n, t.A, edits.get(t.n, t.D)) for t in table.terms]
    return EdsTable(table.curve, table.point, terms)


# D_30 = 7 breaks the pair (30, 60), which only a scan over every m <= N/2 sees;
# D_59 = 4 breaks nothing, since 59 has no proper multiple in the table.
@pytest.mark.parametrize("edits", [{6: 7, 12: 13}, {12: 13}, {5: 3, 30: 7, 59: 4}])
def test_divisibility_scan_matches_pairwise_oracle(table37, edits):
    planted = _planted(table37, edits)
    bad = planted.check_divisibility()
    assert bad and bad == divisibility_violations_by_pairs(planted.d_values())


def test_table_lookup_bounds(table37):
    with pytest.raises(TableMiss):
        table37.D(0)
    with pytest.raises(TableMiss):
        table37.D(61)


def test_torsion_point_range():
    E = WeierstrassCurve(0, -1, 1, 0, 0)
    with pytest.raises(TorsionPoint):
        eds_range(E, (F(0), F(0)), 8)
    # (0, 0) on y^2 = x^3 - x has order 2, so Psi_2 = 0 before any division by it.
    E2 = WeierstrassCurve(0, 0, 0, -1, 0)
    for N in (2, 8):
        with pytest.raises(TorsionPoint):
            eds_range(E2, (F(0), F(0)), N)


def test_growth_guard(curve37, point37q):
    # D_n for this point grows fast enough that 40 terms project far
    # beyond a 50-digit budget.
    with pytest.raises(BudgetExceeded):
        eds_range(curve37, point37q, 40, max_digits=50)


def test_dump_load_round_trip(tmp_path, curve37, point37, table37):
    path = str(tmp_path / "table.jsonl")
    digest = table37.dump(path)
    terms, content_hash = read_table_file(path, curve37, point37)
    assert terms == table37.terms
    assert content_hash == digest


def test_content_hash_distinguishes_points(tmp_path, table37, table37q):
    assert table37.dump(str(tmp_path / "a.jsonl")) != table37q.dump(str(tmp_path / "b.jsonl"))


def test_second_point_is_fifth_multiple(table37, table37q):
    # (1/4, -5/8) = [5](0,0), so its sequence is the subsequence at 5n.
    for n in range(1, 13):
        assert table37q.D(n) == table37.D(5 * n)


def _dumped(tmp_path, table):
    path = tmp_path / "table.jsonl"
    table.dump(str(path))
    return path


def test_versions_agree(tmp_path, curve37, point37):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    header = json.loads(_dumped(tmp_path, eds_range(curve37, point37, 4)).read_text().splitlines()[0])
    assert version == edskit.__version__ == header["tool_version"]


def test_dump_is_atomic(tmp_path, curve37, point37, table37, monkeypatch):
    path = tmp_path / "table.jsonl"
    table37.dump(str(path))
    before = path.read_text()
    assert os.listdir(tmp_path) == ["table.jsonl"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    short = eds_range(curve37, point37, 5)
    with pytest.raises(OSError):
        short.dump(str(path))
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["table.jsonl"]



def _decimal_cases():
    rng = random.Random(16)
    cases = [0, 1, -1]
    for k in (1, 511, 512, 513, 1023, 1024, 1025, 2048, 4300):
        cases += [10 ** k, 10 ** k - 1, 10 ** k + 1, -(10 ** k), -(10 ** k - 1)]
    for _ in range(40):
        x = rng.randrange(10 ** rng.randrange(1, 20000))
        cases += [x, -x]
    return cases


def test_decimal_matches_str():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for x in _decimal_cases():
            assert _decimal(x) == str(x), x.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)


# Tops with zero runs inside, so a split can leave a zero-filled half at either end.
_tops = st.integers(0, 10 ** 40) | st.builds(
    lambda a, b: a * 10 ** 700 + b, st.integers(1, 10 ** 6), st.integers(0, 10 ** 6)
)


@given(st.integers(0, 4), st.integers(-2, 2), _tops, st.integers(-10 ** 40, 10 ** 40), st.booleans())
def test_decimal_matches_str_at_split_points(j, shift, top, low, negative):
    # x = top * 10**h + low straddles the split point 10**(512 * 2**j): top = 1
    # and low < 0 give runs of nines just below it, top = 0 gives small x.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        x = top * 10 ** (512 * 2 ** j + shift) + low
        x = -x if negative else x
        assert _decimal(x) == str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_under_the_smallest_digit_limit():
    # str() refuses 641 digits at the smallest limit; _decimal only ever converts shorter pieces.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        digits = _decimal(-(7 ** 20000))
        sys.set_int_max_str_digits(0)
        assert digits == str(-(7 ** 20000))
    finally:
        sys.set_int_max_str_digits(limit)
