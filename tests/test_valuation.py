"""Exceptional sets, the valuation law, detecting primes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import edskit
from edskit.curve import WeierstrassCurve
from edskit.errors import SoundnessError, TableMiss
from edskit.factor import Effort
from edskit.intmath import primes_up_to, valuation
from edskit.valuation import (
    _verify_structured_divisor,
    build_exceptional_set,
    check_valuation_law,
    detecting_primes,
    term_radical_data,
    valuation_via_law,
)

P_ABOVE_2_40 = 1149313944433  # divides D_53 on the Delta=37 fixture


def test_build_exceptional_set_with_guard(curve37, point37, point37q):
    S = build_exceptional_set(curve37, point37)
    assert S.primes == [2, 3, 37]
    Sq = build_exceptional_set(curve37, point37q)
    assert Sq.primes == [2, 3, 37]  # D_1 = 2 already sits in the guard
    S11 = build_exceptional_set(curve37, point37, extra=[11])
    assert S11.primes == [2, 3, 11, 37]


def test_build_exceptional_set_minimal(s37, s37q, s43):
    assert s37.primes == [37]
    assert s37q.primes == [2, 37]
    assert s43.primes == [43]


def test_provenance_tags(curve37, point37q):
    S = build_exceptional_set(curve37, point37q, extra=[11])
    assert S.provenance[37] == "bad_reduction"
    assert S.provenance[2] == "divides_D1"
    assert S.provenance[3] == "small_prime_guard"
    assert S.provenance[11] == "user_added"
    assert S.to_json()["primes"][0] == ["2", "divides_D1"]


def test_check_valuation_law_p5(curve37, point37, s37, table37):
    rep = check_valuation_law(curve37, point37, s37, 5, 10, table37)
    assert rep.holds
    assert rep.r_p == 8
    assert valuation(table37.D(8), 5) == 1
    assert all(table37.D(n) % 5 != 0 for n in list(range(1, 8)) + [9, 10])


def test_check_valuation_law_p7(curve37, point37, s37, table37):
    rep = check_valuation_law(curve37, point37, s37, 7, 10, table37)
    assert rep.holds
    assert curve37.group_order(7) % rep.r_p == 0


def test_check_valuation_law_rejects_exceptional_prime(curve37, point37, table37):
    S = build_exceptional_set(curve37, point37)  # guard puts 2 into S
    with pytest.raises(ValueError):
        check_valuation_law(curve37, point37, S, 2, 10, table37)


def test_valuation_via_law_examples(curve37, point37, s37, table37):
    assert valuation_via_law(curve37, point37, s37, 5, 8, table37) == 1
    assert valuation_via_law(curve37, point37, s37, 5, 40, table37) == 2
    assert valuation_via_law(curve37, point37, s37, 5, 7, table37) == 0


def test_valuation_via_law_only_needs_r_p(curve37, point37, s37):
    from edskit.eds import eds_range

    small = eds_range(curve37, point37, 8)
    # n = 4000 is far outside the table; only D_8 is consulted.
    assert valuation_via_law(curve37, point37, s37, 5, 4000, small) == 1 + valuation(500, 5)


def test_valuation_via_law_table_miss(curve37, point37, s37):
    from edskit.eds import eds_range

    tiny = eds_range(curve37, point37, 4)
    with pytest.raises(TableMiss):
        valuation_via_law(curve37, point37, s37, 5, 8, tiny)  # r_5 = 8 > 4


def test_law_agrees_with_direct_valuation(all_fixtures):
    for curve, point, table, S in all_fixtures:
        for p in primes_up_to(1000):
            if p in S or not curve.has_good_reduction(p):
                continue
            for n in (6, 24, 35, 60):
                direct = valuation(table.D(n), p)
                assert valuation_via_law(curve, point, S, p, n, table) == direct, (p, n)


def test_detecting_primes_examples(curve37, point37, s37, table37):
    found, complete = detecting_primes(curve37, point37, s37, 5, 2, table37)
    assert (found, complete) == ([(2, 1)], True)
    found, complete = detecting_primes(curve37, point37, s37, 7, 2, table37)
    assert (found, complete) == ([(3, 1)], True)
    found, complete = detecting_primes(curve37, point37, s37, 2, 2, table37)
    assert (found, complete) == ([], True)


def test_detecting_primes_larger_indices(curve37, point37, s37, table37):
    found, complete = detecting_primes(curve37, point37, s37, 11, 2, table37)
    assert complete and (23, 1) in found
    found, complete = detecting_primes(curve37, point37, s37, 13, 2, table37)
    assert complete and (59, 1) in found


def test_detecting_primes_are_primitive(curve37, point37, s37, table37):
    for l in (5, 7, 11, 13, 17, 19):
        found, _ = detecting_primes(curve37, point37, s37, l, 2, table37)
        for p, _v in found:
            assert curve37.reduction_order(point37, p) == l
            assert all(table37.D(m) % p != 0 for m in range(1, l))


def test_radical_coprimality(curve37, point37, s37, table37):
    ells = [l for l in primes_up_to(31)]
    rads = {}
    for l in ells:
        data = term_radical_data(curve37, point37, s37, l, table37)
        rads[l] = data.power_radical(2)[0]
    from math import gcd

    for i, a in enumerate(ells):
        for b in ells[i + 1 :]:
            assert gcd(rads[a], rads[b]) == 1, (a, b)


def test_term_radical_data_excludes_s(curve37, point37, table37):
    S = build_exceptional_set(curve37, point37)  # 2, 3 guarded
    data = term_radical_data(curve37, point37, S, 5, table37)
    assert data.entries == []  # D_5 = 2 is entirely inside S
    assert data.complete
    assert data.power_radical(2) == (1, "certain")


def test_law_and_radical_data_never_count_points(all_fixtures, monkeypatch):
    def forbidden(self, p):
        raise RuntimeError(f"group_order({p}) called outside the tests")

    monkeypatch.setattr(WeierstrassCurve, "group_order", forbidden)
    for curve, point, table, S in all_fixtures:
        for p in primes_up_to(200):
            if p not in S and curve.has_good_reduction(p):
                assert check_valuation_law(curve, point, S, p, 60, table).holds
        for l in primes_up_to(31):
            # A small factoring budget: only the sieve's r_p checks matter here.
            term_radical_data(curve, point, S, l, table, effort=Effort(10 ** 4, 10 ** 4))


def test_structured_divisor_check_above_2_40(curve37, point37, table37):
    p = P_ABOVE_2_40
    assert p > 2 ** 40 and table37.D(53) % p == 0
    _verify_structured_divisor(curve37, point37, p, 53, table37)
    with pytest.raises(SoundnessError):
        _verify_structured_divisor(curve37, point37, p, 47, table37)


def test_structured_divisor_check_survives_optimize():
    code = textwrap.dedent(f"""
        import sys
        from fractions import Fraction
        from edskit.curve import WeierstrassCurve
        from edskit.eds import eds_range
        from edskit.errors import SoundnessError
        from edskit.valuation import _verify_structured_divisor

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        E = WeierstrassCurve(0, 0, 1, -1, 0)
        P = (Fraction(0), Fraction(0))
        try:
            _verify_structured_divisor(E, P, {P_ABOVE_2_40}, 47, eds_range(E, P, 53))
        except SoundnessError:
            sys.exit(0)
        sys.exit("order check did not raise")
    """)
    src = str(Path(edskit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
