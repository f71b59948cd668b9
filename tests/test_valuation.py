"""Exceptional sets, the valuation law, detecting primes."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import edskit
from edskit.curve import WeierstrassCurve
from edskit.eds import EdsTerm, eds_range
from edskit.errors import SoundnessError, TableMiss
from edskit.factor import Effort
from edskit.intmath import primes_up_to, valuation
from edskit.obstruction import ObstructionContext, evaluate_tuple
from edskit.relation import test_relation as product_relation
from edskit.valuation import (
    LAW_FAILS_AT_2,
    SIEVE_BOUND,
    ExceptionalSet,
    TermRadicalData,
    _verify_structured_divisor,
    build_exceptional_set,
    check_valuation_law,
    detecting_prime_exists,
    s_free_part,
    term_radical_data,
)
from oracles import brute_valuation, radical_data_by_sieve, random_pairs, valuation_via_law

P_ABOVE_2_40 = 1149313944433  # divides D_53 on the Delta=37 fixture


def test_build_exceptional_set_with_guard(curve37, point37, point37q):
    S = build_exceptional_set(curve37, point37, include_guard=True)
    assert S.primes == [2, 3, 37]
    Sq = build_exceptional_set(curve37, point37q, include_guard=True)
    assert Sq.primes == [2, 3, 37]  # D_1 = 2 already sits in the guard
    S11 = build_exceptional_set(curve37, point37, extra=[11], include_guard=True)
    assert S11.primes == [2, 3, 11, 37]


def test_build_exceptional_set_minimal(s37, s37q, s43):
    assert s37.primes == [37]
    assert s37q.primes == [2, 37]
    assert s43.primes == [43]


def test_provenance_tags(curve37, point37q):
    S = build_exceptional_set(curve37, point37q, extra=[11], include_guard=True)
    assert S.provenance[37] == "bad_reduction"
    assert S.provenance[2] == "divides_D1"
    assert S.provenance[3] == "small_prime_guard"
    assert S.provenance[11] == "user_added"
    assert S.to_json()["primes"][0] == ["2", "divides_D1"]


def test_exceptional_set_decides_2_from_the_curve(monkeypatch):
    # a1 = -1 is odd and D_2 = 2, so v_2(D_{r_2}) = 1: 2 joins S, before the guard and extras.
    E, P = WeierstrassCurve(-1, 3, -1, 1, 0), (Fraction(-1), Fraction(-1))
    assert build_exceptional_set(E, P).to_json()["primes"] == [
        ["2", "law_fails_at_2"], ["61", "bad_reduction"]]
    for guard in (False, True):
        S = build_exceptional_set(E, P, extra=[2], include_guard=guard)
        assert S.provenance[2] == "law_fails_at_2"
    # r_2 | #E(F_2) <= 5, so an odd D_1..D_5 is a contradiction, not a pass.
    monkeypatch.setattr(edskit.valuation, "eds_term", lambda E, P, n: EdsTerm(n=n, A=1, D=1))
    with pytest.raises(SoundnessError):
        build_exceptional_set(E, P)


def assert_existence_matches_search(data, where):
    """A detecting prime found exists, and a complete search finds one wherever one exists."""
    for rho in (2, 3):
        found = bool(data.detecting(rho))
        assert data.detected(rho) or not found, (where, rho)
        if data.complete:
            assert data.detected(rho) == found, (where, rho)


def test_exceptional_set_on_random_pairs():
    # On seeded pairs with odd and even a1, S gains 2 exactly where the law at 2
    # fails without it, the law holds at 3 whenever 3 is outside S, the exact
    # existence test agrees with the primes found at every prime l <= 32, and no
    # certified exclusion is a rho-th power.  A small effort keeps the D_l of
    # large height cheap; it can only leave verdicts inconclusive.
    rng = random.Random(21)
    effort = Effort(10 ** 4, 2000, 600)
    fired = 0
    for E, P in random_pairs(seed=21, count=100):
        S = build_exceptional_set(E, P)
        table = eds_range(E, P, 32, max_digits=10 ** 6)
        if S.provenance.get(2, LAW_FAILS_AT_2) == LAW_FAILS_AT_2:
            without_2 = ExceptionalSet()
            without_2.provenance = {p: why for p, why in S.provenance.items() if p != 2}
            law = check_valuation_law(table, without_2, 2)
            assert (2 in S) == (not law.holds), E.coefficients()
            fired += 2 in S
        if 3 not in S:
            assert check_valuation_law(table, S, 3).holds, E.coefficients()
        for l in primes_up_to(32):  # trial division only: most D_l stay partial
            data = term_radical_data(table, S, l, Effort(0, 0, 0))
            assert_existence_matches_search(data, (E.coefficients(), l))
        m = rng.randint(1, 6)
        tuples = [[m, 2 * m]] + [
            [rng.randint(1, 12) for _ in range(rng.randint(2, 3))] for _ in range(2)]
        squares = [[a, b] for a in range(1, 13) for b in range(a + 1, 13)
                   if product_relation(table, (a, b), 2).is_power]
        for rho, extra in ((2, squares), (3, [])):
            ctx = ObstructionContext(table, S, rho, effort=effort)
            for n in tuples + extra:
                if evaluate_tuple(ctx, n).certified_exclusions:
                    assert not product_relation(table, n, rho).is_power, (E.coefficients(), n)
    assert fired >= 5


def test_check_valuation_law_p5(s37, table37):
    rep = check_valuation_law(table37, s37, 5)
    assert rep.holds
    assert (rep.r_p, rep.n_max) == (8, table37.max_index)
    assert valuation(table37.D(8), 5) == 1
    assert all(table37.D(n) % 5 != 0 for n in list(range(1, 8)) + [9, 10])


def test_check_valuation_law_p7(curve37, s37, table37):
    rep = check_valuation_law(table37, s37, 7)
    assert rep.holds
    assert curve37.group_order(7) % rep.r_p == 0


def test_check_valuation_law_rejects_exceptional_prime(curve37, point37, table37):
    S = build_exceptional_set(curve37, point37, include_guard=True)  # guard puts 2 into S
    with pytest.raises(ValueError):
        check_valuation_law(table37, S, 2)


def test_check_valuation_law_reports_planted_violations(curve37, point37, s37, table37):
    from edskit.eds import EdsTable

    # r_5 = 8.  Plant a 5 into D_3 and one more into D_8, and take the 5
    # out of D_24: the report must match the law read off term by term.
    terms = list(table37.terms)
    terms[2] = terms[2]._replace(D=terms[2].D * 5)
    terms[7] = terms[7]._replace(D=terms[7].D * 5)
    terms[23] = terms[23]._replace(D=terms[23].D // 5)
    planted = EdsTable(curve37, point37, terms)
    expected = []
    v_base = brute_valuation(terms[7].D, 5)
    for n in range(1, 61):
        v = brute_valuation(terms[n - 1].D, 5)
        divides = n % 8 == 0
        if (v > 0) != divides:
            expected.append((n, 1, int(divides), v))
        elif divides and v_base + brute_valuation(n // 8, 5) != v:
            expected.append((n, 2, v_base + brute_valuation(n // 8, 5), v))
    rep = check_valuation_law(planted, s37, 5)
    assert rep.violations == expected
    assert {(n, clause) for n, clause, _, _ in expected} >= {(3, 1), (16, 2), (24, 1)}


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


def test_detecting_primes_examples(s37, table37):
    for l, found in ((5, [(2, 1)]), (7, [(3, 1)]), (2, [])):
        data = term_radical_data(table37, s37, l)
        assert (data.detecting(2), data.complete) == (found, True)


def test_detecting_primes_larger_indices(s37, table37):
    for l, p in ((11, 23), (13, 59)):
        data = term_radical_data(table37, s37, l)
        assert data.complete and (p, 1) in data.detecting(2)


def test_detecting_primes_are_primitive(curve37, point37, s37, table37):
    for l in (5, 7, 11, 13, 17, 19):
        found = term_radical_data(table37, s37, l).detecting(2)
        for p, _v in found:
            assert curve37.reduction_order(point37, p) == l
            assert all(table37.D(m) % p != 0 for m in range(1, l))


def test_radical_coprimality(s37, table37):
    ells = [l for l in primes_up_to(31)]
    rads = {}
    for l in ells:
        data = term_radical_data(table37, s37, l)
        rads[l] = data.power_radical(2)
    from math import gcd

    for i, a in enumerate(ells):
        for b in ells[i + 1 :]:
            assert gcd(rads[a], rads[b]) == 1, (a, b)


def test_detecting_prime_exists_on_the_s_free_part(s37q):
    # S = {2, 37} on 37q: the S-free part of 2^5 * 37 * 9 is 9, a square and no cube.
    s_free = s_free_part(2 ** 5 * 37 * 9, s37q)
    assert s_free == 9
    assert not detecting_prime_exists(s_free, 2)
    assert detecting_prime_exists(s_free, 3)


def test_term_radical_data_excludes_s(curve37, point37, table37):
    S = build_exceptional_set(curve37, point37, include_guard=True)  # 2, 3 guarded
    data = term_radical_data(table37, S, 5)
    assert data.entries == []  # D_5 = 2 is entirely inside S
    assert data.complete
    assert data.power_radical(2) == 1


def test_term_radical_data_matches_sieve_oracle(all_fixtures):
    # A 200-step rho budget leaves many D_l partial: the primes found and the
    # completeness flag must agree wherever the search stops.  With trial
    # division below 10 and no rho step, only a search that reaches the sieve
    # bound finds the primes in (10, 10^4] (checked on 37 and 43).
    cases = [(fx, Effort(10 ** 4, 200)) for fx in all_fixtures]
    cases += [(fx, Effort(trial_bound=10, rho_iterations=1)) for fx in all_fixtures[::2]]
    for (_, _, table, S), effort in cases:
        for l in range(1, 61):
            data = term_radical_data(table, S, l, effort)
            oracle = radical_data_by_sieve(table.D(l), S, SIEVE_BOUND, effort)
            assert (data.entries, data.complete) == oracle, (l, effort)
    _, _, table, S = all_fixtures[0]
    assert table.D(1) == 1
    assert term_radical_data(table, S, 1) == TermRadicalData(1, [], True, 1)


def test_radical_data_valuations_match_the_table(all_fixtures):
    # evaluate_tuple reads v_p(D_l) off these entries instead of dividing the
    # table.  A detecting prime found exists, and a complete search finds one
    # wherever one exists, whatever the budget that decides completeness.  The default
    # budget runs for minutes on 37q's D_l of up to 3200 bits, so 37q takes
    # the small budget of the sieve-oracle test above.
    zero = Effort(0, 0, 0)
    budgets = [(Effort(), zero), (Effort(10 ** 4, 200), zero), (Effort(), zero)]
    for (_, _, table, S), efforts in zip(all_fixtures, budgets):
        for effort in efforts:
            for l in range(1, 61):
                data = term_radical_data(table, S, l, effort)
                for p, v in data.entries:
                    assert v == brute_valuation(table.D(l), p) > 0, (l, p, effort)
                assert_existence_matches_search(data, (l, effort))


def test_law_and_radical_data_never_count_points(all_fixtures, monkeypatch):
    def forbidden(self, p):
        raise RuntimeError(f"group_order({p}) called outside the tests")

    monkeypatch.setattr(WeierstrassCurve, "group_order", forbidden)
    for curve, _, table, S in all_fixtures:
        for p in primes_up_to(200):
            if p not in S and curve.has_good_reduction(p):
                assert check_valuation_law(table, S, p).holds
        for l in primes_up_to(31):
            # A small factoring budget: only the sieve's r_p checks matter here.
            term_radical_data(table, S, l, effort=Effort(10 ** 4, 10 ** 4))


def test_prime_index_radical_data_complete_on_37_and_43(table37, s37, table43, s43):
    # The bench budget factors every D_l with l <= 60 prime on these two
    # fixtures completely.  (On 37q the D_l reach 3200 bits and stay partial.)
    effort = Effort(10 ** 6, 10 ** 6, 600)
    for table, S in ((table37, s37), (table43, s43)):
        for l in primes_up_to(60):
            assert term_radical_data(table, S, l, effort=effort).complete, l


def test_structured_divisor_check_above_2_40(table37):
    p = P_ABOVE_2_40
    assert p > 2 ** 40 and table37.D(53) % p == 0
    _verify_structured_divisor(table37, p, 53)
    with pytest.raises(SoundnessError):
        _verify_structured_divisor(table37, p, 47)


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
            _verify_structured_divisor(eds_range(E, P, 53), {P_ABOVE_2_40}, 47)
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
