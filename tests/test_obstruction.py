"""Incidence algebra over F_rho and the product-obstruction checkers.

All concrete examples run on the y^2 + y = x^3 - x fixture with P = (0,0),
whose table starts D = 1,1,1,1,2,1,3,5,... and has detecting primes
2 (at l=5), 3 (at l=7), 23 (at l=11), 59 (at l=13).
"""

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest

import edskit.obstruction
from edskit.errors import HypothesisViolated, SoundnessError
from edskit.factor import Effort
from edskit.intmath import is_rho_power, primes_up_to
from edskit.obstruction import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ObstructionContext,
    ObstructionVerdict,
    TupleReport,
    _radical_meets_bound,
    _top_primes,
    cluster_packing,
    evaluate_tuple,
    gf_rank,
    incidence_set,
    large_prime_gap,
    prime_facts,
    prime_support_check,
    radical_lower_bound,
    repeated_top_prime,
    smooth_cofactor_balance,
)
from edskit.relation import test_relation as product_relation
from edskit.valuation import TermRadicalData, build_exceptional_set
from oracles import (
    brute_is_squarefree, brute_valuation, congruence, oracle_lq_count, oracle_pairing,
)


def test_incidence_set_examples():
    assert incidence_set((5, 10, 3), 5) == [1, 2]
    assert incidence_set((5, 10, 3), 7) == []
    assert incidence_set((6, 6), 3) == [1, 2]


def test_gf_rank():
    assert gf_rank([[1, 0], [0, 1]], 2) == 2
    assert gf_rank([[1, 1], [1, 1]], 2) == 1
    assert gf_rank([], 3) == 0
    assert gf_rank([[2, 1], [1, 1]], 3) == 2
    assert gf_rank([[2, 1], [1, 2]], 3) == 1  # second row is twice the first
    assert gf_rank([[1, 2], [2, 4]], 5) == 1


def test_rank_equals_row_count_for_disjoint_supports():
    rng = random.Random(3)
    for rho in (2, 3):
        for _ in range(30):
            k = rng.randrange(2, 9)
            rows, free = [], list(range(k))
            rng.shuffle(free)
            while free:
                take = free[: rng.randrange(1, len(free) + 1)]
                free = free[len(take) :]
                row = [0] * k
                for i in take:
                    row[i] = 1
                rows.append(row)
            assert gf_rank(rows, rho) == len(rows)


def configured(ctx, B=2, L_rho=0):
    """A context like ctx, on its table, S and rho, with another B and L_rho."""
    return ObstructionContext(ctx.table, ctx.S, ctx.rho, B, L_rho, ctx.effort)


def hypotheses(ctx, n, Lambda):
    """The facts of n at each l of Lambda, as evaluate_tuple builds them."""
    return [prime_facts(ctx, n, l) for l in Lambda]


def support(ctx, n, l):
    """prime_support_check on the facts evaluate_tuple passes it."""
    return prime_support_check(ctx, n, prime_facts(ctx, n, l))


def views(report, statement):
    """The (l, p) of every verdict of one congruence view in a tuple report."""
    key = "p" if statement == "absorption_congruence" else "q"
    return [
        (v.witnesses["l"], v.witnesses[key]) for v in report.verdicts if v.statement == statement
    ]


# -- absorption congruence and pairing ---------------------------------


def test_absorption_examples(ctx37):
    v = congruence(ctx37, (5, 5), 5, 2, 2).absorption()
    assert v.verdict == HOLDS  # 2*1 + 0 = 2 even; D_5^2 = 4 is a square
    v = congruence(ctx37, (5, 3), 5, 2, 2).absorption()
    assert v.verdict == FAILS  # 1*1 + 0 = 1 odd; D_5 D_3 = 2 not a square
    assert v.certified_exclusion
    assert not is_rho_power(2, 2)
    v = congruence(ctx37, (10, 3), 5, 2, 2).absorption()
    assert v.verdict == HOLDS  # 1*1 + v_2(10/5) = 2 even


def test_absorption_preconditions(ctx37, curve37, point37, table37):
    # evaluate_tuple builds the views only for primes p outside S with p | D_l.
    S = build_exceptional_set(curve37, point37, include_guard=True)
    guarded = ObstructionContext(table37, S, rho=2)
    for ctx, at_5 in ((ctx37, [(5, 2)]), (guarded, [])):  # D_5 = 2; the guard puts 2 in S
        rep = evaluate_tuple(ctx, (5, 3, 35))
        expected = [(l, p) for l in primes_up_to(35) for p, _ in ctx.radical_data(l).entries]
        assert all(p not in ctx.S and ctx.table.D(l) % p == 0 for l, p in expected)
        for statement in ("absorption_congruence", "incidence_pairing"):
            built = views(rep, statement)
            assert built == expected
            assert [(l, p) for l, p in built if l == 5] == at_5


def test_incidence_pairing_examples(ctx37):
    assert congruence(ctx37, (5, 5), 5, 2, 2).pairing().verdict == HOLDS
    assert congruence(ctx37, (10, 3), 5, 2, 2).pairing().verdict == HOLDS
    v = congruence(ctx37, (5, 3), 5, 2, 2).pairing()
    assert v.verdict == FAILS
    assert v.witnesses["lhs"] == 0 and v.witnesses["rhs"] == 1


def test_absorption_pairing_equivalence(ctx37):
    """All four congruence statements against the textbook forms, computed directly.

    The pairing form is sum_i e_i * v_q(n_i) against |I_l| * (v_q(l) - v_q(D_l));
    the counting form (squarefree tuples) is N_{l,q} = #{i : l*q | n_i} against
    -|I_l| * v_q(D_l).  Neither goes through the views' shared core.
    """
    rng = random.Random(11)
    pairs = [(5, 2), (7, 3), (11, 23), (13, 59)]
    squarefree_seen = 0
    for _ in range(60):
        k = rng.randrange(1, 4)
        n = tuple(rng.randrange(1, 31) for _ in range(k))
        squarefree = all(brute_is_squarefree(ni) for ni in n)
        for rho in (2, 3):
            for l, p in pairs:
                I = [i for i, ni in enumerate(n, start=1) if ni % l == 0]
                v_D = brute_valuation(ctx37.table.D(l), p)
                quot = sum(brute_valuation(n[i - 1] // l, p) for i in I)
                lhs = oracle_pairing(n, l, p) % rho
                rhs = len(I) * (brute_valuation(l, p) - v_D) % rho
                expected = HOLDS if lhs == rhs else FAILS
                case = (n, l, p, rho)

                c = congruence(ctx37, n, l, p, rho)
                a = c.absorption()
                assert a.verdict == expected, case
                assert a.witnesses == {
                    "l": l, "p": p, "I_l": I, "v_p_D_l": v_D,
                    "quotient_valuation_sum": quot,
                    "lhs_mod_rho": (len(I) * v_D + quot) % rho,
                }, case
                b = c.pairing()
                assert b.verdict == expected, case
                assert b.witnesses == {"l": l, "q": p, "lhs": lhs, "rhs": rhs, "I_l": I}, case
                m = c.multiplicity()
                assert m.verdict == expected, case
                assert m.witnesses == {
                    "l": l, "q": p, "I_l": I, "v_q_quotient": quot, "v_q_D_l": v_D,
                    "case": "rho_divides_I" if len(I) % rho == 0 else "rho_not_dividing_I",
                }, case
                if not squarefree:
                    continue
                squarefree_seen += 1
                N_lq = oracle_lq_count(n, l, p)
                counted = HOLDS if (N_lq + len(I) * v_D) % rho == 0 else FAILS
                assert counted == expected, case  # the two textbook forms agree
                s = c.squarefree()
                assert s.verdict == counted, case
                assert s.witnesses == {
                    "l": l, "q": p, "N_l": len(I), "N_lq": N_lq, "v_q_D_l": v_D,
                }, case
    assert squarefree_seen > 0


# -- squarefree, support, multiplicity ---------------------------------


def test_squarefree_incidence_examples(ctx37):
    assert congruence(ctx37, (10, 10), 5, 2, 2).squarefree().verdict == HOLDS
    assert congruence(ctx37, (5, 5), 5, 2, 2).squarefree().verdict == HOLDS
    # evaluate_tuple builds the view only on squarefree tuples, and only for q != l:
    # 53 divides D_53.
    assert views(evaluate_tuple(ctx37, (4, 10)), "squarefree_incidence") == []
    assert (5, 2) in views(evaluate_tuple(ctx37, (10, 10)), "squarefree_incidence")
    rep = evaluate_tuple(ctx37, (53,))
    assert (53, 53) in views(rep, "absorption_congruence")
    assert (53, 937) in views(rep, "squarefree_incidence")
    assert (53, 53) not in views(rep, "squarefree_incidence")


def test_prime_support_examples(ctx37):
    v = support(ctx37, (10, 3), 5)
    assert v.verdict == HOLDS
    assert v.witnesses["radical"] == 2
    v = support(ctx37, (5, 3), 5)
    assert v.verdict == FAILS  # rad = 2 does not divide the quotient product 1
    assert v.certified_exclusion
    v = support(ctx37, (10, 10), 5)
    assert v.verdict == INCONCLUSIVE  # |I_5| = 2 is even: vacuous
    assert not v.hypotheses["rho_not_dividing_I"]
    # 253 = 11 * 23: 11 is not its top prime, so the interval test (which 23 > 11 fails) is off.
    facts = prime_facts(ctx37, (253,), 11)
    assert not facts.top
    assert support(ctx37, (253,), 11).verdict == HOLDS
    v = prime_support_check(ctx37, (253,), facts._replace(top=True))
    assert v.verdict == FAILS and not v.witnesses["top_prime_interval_ok"]


def test_multiplicity_examples(ctx37, s43, table43):
    assert congruence(ctx37, (10, 3), 5, 2, 2).multiplicity().verdict == HOLDS
    assert congruence(ctx37, (10, 10), 5, 2, 2).multiplicity().verdict == HOLDS
    v = congruence(ctx37, (5, 3), 5, 2, 2).multiplicity()
    assert v.verdict == FAILS
    # evaluate_tuple builds the view only for q != l in the power radical of D_l.
    built = views(evaluate_tuple(ctx37, (10, 3)), "multiplicity_obstruction")
    assert (5, 2) in built and (5, 7) not in built  # 7 not in the radical
    assert (53, 53) not in views(evaluate_tuple(ctx37, (53,)), "multiplicity_obstruction")
    # On 43, v_13(D_19) = 3: 13 lies in the power radical of D_19 for rho = 2 only.
    for rho, built in ((2, True), (3, False)):
        rep = evaluate_tuple(ObstructionContext(table43, s43, rho), (19,))
        assert (19, 13) in views(rep, "absorption_congruence")
        assert ((19, 13) in views(rep, "multiplicity_obstruction")) == built


# -- section-5 checkers ------------------------------------------------


def test_smooth_cofactor_balance(ctx37):
    def balance(ctx, n, l):
        return smooth_cofactor_balance(ctx, prime_facts(ctx, n, l))

    # |I_7| = 2: balanced, no obstruction.
    assert balance(ctx37, (7, 14), 7).verdict == HOLDS
    # |I_7| = 1 with a verified detecting prime (3 | D_7): certified exclusion.
    v = balance(ctx37, (7,), 7)
    assert v.verdict == FAILS
    assert v.certified_exclusion
    # l = 5 sits below (sqrt(4)+1)^2 = 9: threshold hypothesis fails.
    with pytest.raises(HypothesisViolated):
        balance(configured(ctx37, B=4), (5,), 5)


def test_exclusion_needs_no_found_detecting_prime(ctx37):
    # With no factoring budget nothing is found in D_43, but its S-free part is not a
    # square: a detecting prime exists, so the balance exclusion is certified.
    zero = ObstructionContext(ctx37.table, ctx37.S, 2, effort=Effort(0, 0, 0))
    data = zero.radical_data(43)
    assert not data.complete and data.detecting(2) == [] and data.detected(2)
    v = smooth_cofactor_balance(zero, prime_facts(zero, (43,), 43))
    assert v.verdict == FAILS and v.certified_exclusion
    v = support(zero, (43,), 43)
    assert v.verdict == INCONCLUSIVE
    assert v.notes == ["partial factorization and empty certain radical"]


def test_prime_support_reads_existence_not_the_search(ctx37, monkeypatch):
    # A D_l left unfactored whose S-free part is a square has no detecting prime.
    monkeypatch.setattr(ctx37, "radical_data", lambda l: TermRadicalData(l, [], False, 9))
    v = support(ctx37, (11,), 11)
    assert v.verdict == HOLDS
    assert v.notes == ["radical trivial: no detecting prime at this index"]


@pytest.mark.parametrize("fixture, rho", [("37", 2), ("43", 3)])
def test_pair_census_is_sound_and_independent_of_effort(fixture, rho, request):
    # Every pair from {2..60} and every triple from {2..40}: no certified exclusion
    # is a rho-th power, and the factoring budget changes no certified exclusion,
    # since existence is exact.
    S, table = (request.getfixturevalue(name + fixture) for name in ("s", "table"))
    tuples = list(combinations_with_replacement(range(2, 61), 2))
    tuples += combinations_with_replacement(range(2, 41), 3)
    certified = []
    for effort in (Effort(0, 0, 0), Effort()):
        ctx = ObstructionContext(table, S, rho, effort=effort)
        reports = [evaluate_tuple(ctx, n) for n in tuples]
        certified.append({rep.n for rep in reports if rep.certified_exclusions})
    assert certified[0] == certified[1]
    assert not [n for n in certified[1] if product_relation(table, n, rho).is_power]
    # The paper's Hasse step, at the default effort: r_q = l for each radical prime q gives
    # l <= (sqrt(q)+1)^2, and at a simple top prime l, q divides prod n_i / l, so q < l.
    support = [v for rep in reports for v in rep.verdicts if v.statement == "prime_support_check"]
    assert sum("top_prime_interval_ok" in v.witnesses for v in support) > 0
    notes = {note for v in support for note in v.notes}
    assert "Hasse-scale inequality violated by a radical prime" not in notes
    assert "top-prime interval violated by a radical prime" not in notes


def test_smooth_cofactor_threshold_exact():
    from edskit.obstruction import _exceeds_sqrtB_plus_1_sq

    # (sqrt(2)+1)^2 = 3 + 2*sqrt(2) = 5.828...: 5 fails, 6 passes.
    assert not _exceeds_sqrtB_plus_1_sq(5, 2)
    assert _exceeds_sqrtB_plus_1_sq(6, 2)
    # (sqrt(4)+1)^2 = 9 exactly: 9 fails (strict), 10 passes.
    assert not _exceeds_sqrtB_plus_1_sq(9, 4)
    assert _exceeds_sqrtB_plus_1_sq(10, 4)


def test_context_B_bound_is_least_l_above_sqrtB_plus_1_sq(ctx37):
    from edskit.obstruction import _exceeds_sqrtB_plus_1_sq

    # (sqrt(B)+1)^2 is an integer for B = 4, 9 and 100, which pins the strict inequality.
    rng = random.Random(20)
    bounds = [2, 2.0, 3, 4, 9, 100, 30.5, Fraction(49, 4), 10**6 + 0.25, 10**12]
    for _ in range(200):
        d = rng.randrange(1, 1000)
        bounds.append(Fraction(rng.randrange(2 * d, 10**6 * d), d))
    for B in bounds:
        l = configured(ctx37, B=B).B_bound
        assert _exceeds_sqrtB_plus_1_sq(l, B), B
        assert not _exceeds_sqrtB_plus_1_sq(l - 1, B), B
    assert [configured(ctx37, B=B).B_bound for B in (2, 4, 9, 100)] == [6, 10, 17, 122]


def test_cluster_packing_disjoint_blocks(ctx37):
    # Two rho-balanced blocks at l=11 and l=13 with 3-smooth cofactors.
    n = (22, 33, 26, 39)
    ctx = configured(ctx37, B=3)
    rep = cluster_packing(ctx, n, hypotheses(ctx, n, [11, 13]))
    assert rep.dropped == {}
    assert rep.lambda_star == [11, 13]
    assert rep.matrix[11] == [1, 1, 0, 0]
    assert rep.matrix[13] == [0, 0, 1, 1]
    assert rep.rank == 2
    assert len(rep.lambda_star) == len(n) // 2
    assert all(v == HOLDS for v in rep.conclusions.values())
    assert not rep.exclusion


def test_cluster_packing_weight_one_rows(ctx37, table37):
    n = (22, 26, 6)
    ctx = configured(ctx37, B=3)
    rep = cluster_packing(ctx, n, hypotheses(ctx, n, [11, 13]))
    assert rep.conclusions[1] == FAILS
    assert rep.exclusion and rep.certified
    # Ground truth: the product really is not a square.
    assert not product_relation(table37, (22, 26, 6), 2).is_power


def test_cluster_packing_empty_lambda_star(ctx37):
    rep = cluster_packing(ctx37, (2,), hypotheses(ctx37, (2,), [11]))
    assert rep.lambda_star == []
    assert rep.conclusions[5] == HOLDS
    assert not rep.exclusion


def test_cluster_packing_drops_bad_hypotheses(ctx37):
    # v_11(121) = 2 violates the top-prime hypothesis at l = 11.
    n = (121, 26, 39)
    ctx = configured(ctx37, B=3)
    rep = cluster_packing(ctx, n, hypotheses(ctx, n, [11, 13]))
    assert 11 in rep.dropped
    assert rep.lambda_used == [13]


def test_repeated_top_prime(ctx37):
    # Multiplicities 2 and 1 for tops 11, 13: the odd one excludes.
    ctx = configured(ctx37, B=3)
    v = repeated_top_prime(ctx, (22, 33, 13))
    assert v.verdict == FAILS and v.certified_exclusion
    # Balanced multiplicity: no exclusion from this test.
    assert repeated_top_prime(ctx, (22, 33)).verdict == HOLDS
    # Pairwise distinct tops with k = 3: always an exclusion for rho = 2.
    v = repeated_top_prime(ctx37, (11, 13, 17))
    assert v.verdict == FAILS and v.witnesses["pairwise_distinct"]


def test_repeated_top_prime_hypothesis_violations(ctx37):
    with pytest.raises(HypothesisViolated):
        repeated_top_prime(configured(ctx37, B=3), (121, 13))  # v_11 = 2
    with pytest.raises(HypothesisViolated):
        repeated_top_prime(ctx37, (1, 13))  # n_i = 1 has no top prime


def test_large_prime_gap(ctx37):
    # m = 14: top prime 7, cofactor 2 < (sqrt(7)-1)^2 = 2.708...
    v = large_prime_gap(ctx37, 14, 9)
    assert v.verdict == FAILS and v.certified_exclusion
    assert v.witnesses["route"] == "prime_gap"
    # m = l itself: cofactor 1, exclusion for every coprime n.
    v = large_prime_gap(ctx37, 7, 10)
    assert v.verdict == FAILS
    # Gap condition satisfied: no exclusion.
    assert large_prime_gap(ctx37, 12, 7).verdict == HOLDS


def test_large_prime_gap_hypotheses(ctx37):
    with pytest.raises(HypothesisViolated):
        large_prime_gap(ctx37, 49, 10)  # v_7(49) = 2
    with pytest.raises(HypothesisViolated):
        large_prime_gap(ctx37, 14, 21)  # not coprime
    with pytest.raises(HypothesisViolated):
        large_prime_gap(configured(ctx37, L_rho=11), 14, 9)  # l = 7 below threshold


def test_radical_lower_bound(ctx37):
    # Empty Lambda: empty product bound 1, trivially holds.
    assert radical_lower_bound(ctx37, (10, 3), []).verdict == HOLDS
    # Single l = 5: radical of 10/5 = 2 exceeds (sqrt(5)-1)^2 = 1.527...
    assert radical_lower_bound(ctx37, (10, 3), hypotheses(ctx37, (10, 3), [5])).verdict == HOLDS
    # n = (22,): radical 2 falls below (sqrt(11)-1)^2 = 5.366...; D_22 is
    # certified not a square.
    v = radical_lower_bound(ctx37, (22,), hypotheses(ctx37, (22,), [11]))
    assert v.verdict == FAILS and v.certified_exclusion
    assert not is_rho_power(ctx37.table.D(22), 2)


def test_radical_meets_bound_exact():
    # (sqrt(5)-1)^2 = 1.527... and (sqrt(11)-1)^2 = 5.366...
    assert _radical_meets_bound(1, [5]) is False
    assert _radical_meets_bound(2, [5]) is True
    assert _radical_meets_bound(5, [11]) is False
    assert _radical_meets_bound(6, [11]) is True
    assert _radical_meets_bound(1, []) is True


def test_radical_meets_bound_past_float_range():
    ells = [l for l in primes_up_to(2000) if l >= 1009][:120]
    assert len(ells) == 120
    # The float product overflows, so a float comparison would call every rad "below".
    assert math.prod((math.sqrt(l) - 1) ** 2 for l in ells) == math.inf
    with localcontext() as dec:
        dec.prec = 1000
        floor = int(math.prod((Decimal(l).sqrt() - 1) ** 2 for l in ells))
    assert floor.bit_length() > 1024
    assert _radical_meets_bound(floor, ells) is False
    assert _radical_meets_bound(floor + 1, ells) is True
    assert _radical_meets_bound(math.prod(ells), ells) is True


def test_radical_lower_bound_undecided_is_inconclusive(ctx37, monkeypatch):
    monkeypatch.setattr(edskit.obstruction, "_radical_meets_bound", lambda rad, ells: None)
    v = radical_lower_bound(ctx37, (22,), hypotheses(ctx37, (22,), [11]))
    assert v.verdict == INCONCLUSIVE
    assert v.notes == ["radical too close to the bound"]
    assert v.witnesses["bound"] == "5.366750"  # the float witness is unchanged


def test_radical_coprimality_violation_is_soundness_error(ctx37, monkeypatch):
    # Two indices whose certain radicals share the prime 2 contradict primitivity.
    def shared(l):
        return TermRadicalData(l=l, entries=[(2, 1)], complete=True, s_free=2)

    monkeypatch.setattr(ctx37, "radical_data", shared)
    with pytest.raises(SoundnessError):
        radical_lower_bound(ctx37, (11, 13), hypotheses(ctx37, (11, 13), [11, 13]))


def test_large_prime_gap_oracle_contradiction_is_soundness_error(ctx37, monkeypatch):
    real = edskit.obstruction.test_relation
    monkeypatch.setattr(edskit.obstruction, "test_relation",
                        lambda table, n, rho: real(table, n, rho)._replace(is_power=True))
    with pytest.raises(SoundnessError):
        large_prime_gap(ctx37, 14, 9)


def test_radical_lower_bound_hypotheses(ctx37):
    # The bound picks Lambda from the facts itself: of every prime up to 22, only 11 is
    # the simple top prime of an odd number of entries of (22,).
    every = radical_lower_bound(ctx37, (22,), hypotheses(ctx37, (22,), primes_up_to(22)))
    only = radical_lower_bound(ctx37, (22,), hypotheses(ctx37, (22,), [11]))
    assert every.to_json() == only.to_json()
    assert every.witnesses["bound"] == "5.366750"


@pytest.mark.parametrize("n, Lambda, L_rho, message", [
    ((10, 10), [5], 0, None),  # rho divides |I_5|
    ((22,), [4], 0, None),  # 4 divides no entry
    ((10, 3), [5], 5, "l=5 below L_rho"),
    ((35, 3), [5], 0, None),  # P+(35) = 7
    ((25, 3), [5], 0, None),  # v_5(25) = 2
    ((10, 3), [5, 3], 3, "l=3 below L_rho"),
])
def test_radical_lower_bound_hypothesis_messages(ctx37, n, Lambda, L_rho, message):
    # An l failing the top-prime hypotheses is left out of Lambda; one below L_rho raises.
    ctx = configured(ctx37, L_rho=L_rho)
    facts = hypotheses(ctx, n, Lambda)
    if message is None:
        v = radical_lower_bound(ctx, n, facts)
        assert v.verdict == HOLDS and v.witnesses["bound"] == "1.000000"  # Lambda is empty
        return
    with pytest.raises(HypothesisViolated) as info:
        radical_lower_bound(ctx, n, facts)
    assert str(info.value) == message


def test_largest_prime_factor_examples(ctx37):
    assert _top_primes(ctx37, 1) == (1, 1)
    assert _top_primes(ctx37, 7) == (7, 1)
    assert _top_primes(ctx37, 12) == (3, 2)
    assert _top_primes(ctx37, 35) == (7, 5)
    assert _top_primes(ctx37, 18) == (3, 3)  # 3^2 | 18: the cofactor keeps the top prime
    assert _top_primes(ctx37, 2 * 7 ** 3) == (7, 7)


# -- whole-tuple evaluation --------------------------------------------


def test_evaluate_tuple_exclusion(ctx37):
    rep = evaluate_tuple(ctx37, (5, 3))
    assert "absorption_congruence" in rep.certified_exclusions
    assert not product_relation(ctx37.table, (5, 3), 2).is_power


def test_evaluate_tuple_square(ctx37):
    rep = evaluate_tuple(ctx37, (5, 5))
    assert rep.certified_exclusions == []
    assert product_relation(ctx37.table, (5, 5), 2).is_power


def test_evaluate_tuple_reports_skips(ctx37):
    rep = evaluate_tuple(ctx37, (1, 2))
    assert any("repeated_top_prime" in s for s in rep.skipped)


PER_L_STATEMENTS = {
    "absorption_congruence", "incidence_pairing", "multiplicity_obstruction",
    "squarefree_incidence", "prime_support_check", "smooth_cofactor_balance",
}


def at_l(report, l):
    """The per-l verdicts of a tuple report at index l."""
    return [v for v in report.verdicts if v.statement in PER_L_STATEMENTS and v.witnesses["l"] == l]


@pytest.mark.parametrize("fixture", ["37", "43"])
def test_idle_prime_blocks_do_not_leak_between_tuples(fixture, request):
    _, _, table, S = request.getfixturevalue("all_fixtures")[0 if fixture == "37" else 2]
    # (11, 3) and (11, 9) share the idle l = 2, 5, 7; only the first is squarefree.  On 43,
    # v_13(D_19) = 3, so at an idle 19 the multiplicity view exists for rho = 2 only.
    tuples = [
        (11, 3), (11, 9), (5, 3), (4, 3), (13, 3), (7, 7, 2), (1,), (10, 6, 15), (23, 29),
        (3, 11), (11, 6),
    ]
    settings = [(2, 2, 0), (3, 2, 0), (2, 7, 0), (2, 2, 5)]  # (rho, B, L_rho)
    runs = [(n, rho, B, L_rho) for n in tuples for rho, B, L_rho in settings]

    def sweep(order):
        ctxs = {s: ObstructionContext(table, S, *s) for s in settings}
        return {run: evaluate_tuple(ctxs[run[1:]], run[0]) for run in order}

    forward, backward = sweep(runs), sweep(runs[::-1])
    for run in runs:
        assert forward[run].to_json() == backward[run].to_json()
        n = run[0]
        for l in primes_up_to(max(n)):
            if not incidence_set(n, l):
                assert all(v.verdict != FAILS for v in at_l(forward[run], l))
    # A block is keyed on the positions and entries that l divides: (11, 3) and (13, 3)
    # share theirs at the idle l = 2, 5, 7 and at l = 3, where both read n_2 = 3.
    def shared(a, b, l):
        """For each per-l verdict of a (rho 2, B 2), whether b holds the same object."""
        va, vb = at_l(forward[(a, 2, 2, 0)], l), at_l(forward[(b, 2, 2, 0)], l)
        assert va and len(va) == len(vb)
        return [x is y for x, y in zip(va, vb)]

    for l in (2, 3, 5, 7):
        assert all(shared((11, 3), (13, 3), l))
    # At l = 3, (3, 11) has 3 at position 1, and (11, 6) has 6 at position 2 (both squarefree).
    assert not any(shared((11, 3), (3, 11), 3))
    assert not any(shared((11, 3), (11, 6), 3))
    if fixture == "37":  # the squarefree view at the idle l = 7 (D_7 = 3)
        squarefree_at_7 = {
            n: [v for v in at_l(forward[(n, 2, 2, 0)], 7) if v.statement == "squarefree_incidence"]
            for n in ((11, 3), (11, 9))
        }
        assert len(squarefree_at_7[(11, 3)]) == 1 and squarefree_at_7[(11, 9)] == []


def test_no_checker_holds_on_failed_hypotheses(ctx37):
    # Vacuity discipline: the vacuous support check is inconclusive, and
    # its hypothesis record shows which assumption failed.
    v = support(ctx37, (10, 10), 5)
    assert v.verdict == INCONCLUSIVE
    assert v.hypotheses == {"rho_not_dividing_I": False}


def test_verdict_json_uses_decimal_strings(ctx37):
    doc = congruence(ctx37, (5, 3), 5, 2, 2).absorption().to_json()
    assert doc["witnesses"]["p"] == "2"
    assert doc["verdict"] == FAILS


def test_tuple_report_json_past_int_str_digit_limit():
    big = 7 ** 6000  # 5071 decimal digits
    wit = {"radical": big, "flag": True, "primes": {3, 2}}
    rep = TupleReport((1,), 2, [ObstructionVerdict("s", HOLDS, {}, wit)], None, [])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        doc = rep.to_json()["verdicts"][0]["witnesses"]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(doc["radical"]) == 5071 and doc["radical"].startswith("387")
    assert doc["flag"] == "True" and doc["primes"] == ["2", "3"]
