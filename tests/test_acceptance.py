"""Acceptance gate: one test per top-level correctness criterion.

Each test states its criterion, its tolerance (exact unless noted), and
its time budget.  Budgets are asserted, not just hoped for.
"""

import time
from itertools import combinations_with_replacement
from math import gcd

from edskit.eds import eds_range
from edskit.intmath import is_rho_power, primes_up_to, valuation
from edskit.obstruction import (
    FAILS,
    HOLDS,
    ObstructionContext,
    cluster_packing,
    evaluate_tuple,
    prime_facts,
)
from edskit.relation import test_relation as product_relation
from edskit.valuation import check_valuation_law
from oracles import congruence, enumerate_fp_points, oracle_d_values, search_relations


def test_01_fixture_sequence_matches_independent_oracle(curve37, point37):
    """D_1..D_8 = 1,1,1,1,2,1,3,5 exactly, against the symbolic oracle. < 1 s."""
    start = time.monotonic()
    computed = eds_range(curve37, point37, 8).d_values()
    elapsed = time.monotonic() - start
    assert computed == [1, 1, 1, 1, 2, 1, 3, 5]
    assert oracle_d_values((0, 0, 1, -1, 0), point37, 8) == computed
    assert elapsed < 1.0, f"table generation took {elapsed:.2f}s"


def test_02_divisibility_on_all_fixtures(all_fixtures):
    """m | n implies D_m | D_n for n <= 60 on all three fixtures. < 60 s."""
    start = time.monotonic()
    for curve, point, table, _S in all_fixtures:
        assert table.max_index == 60
        assert table.check_divisibility() == []
        # Regenerate one table to charge generation cost to this budget.
    regenerated = eds_range(all_fixtures[0][0], all_fixtures[0][1], 60)
    assert regenerated.d_values() == all_fixtures[0][2].d_values()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"divisibility suite took {elapsed:.1f}s"


def test_03_valuation_law_to_ten_thousand(all_fixtures):
    """Both clauses of the valuation law for p <= 10^4, n <= 60, all fixtures. < 30 s."""
    start = time.monotonic()
    checked = 0
    for curve, _, table, S in all_fixtures:
        for p in primes_up_to(10 ** 4):
            if p in S or not curve.has_good_reduction(p):
                continue
            report = check_valuation_law(table, S, p)
            assert report.holds, (p, report.violations)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked > 3000
    assert elapsed < 30.0, f"valuation-law suite took {elapsed:.1f}s"


def test_04_reduction_order_fixtures(curve37, point37):
    """r_2 = 5, r_3 = 7, r_5 = 8, with group orders cross-checked naively."""
    for p, order, r in ((2, 5, 5), (3, 7, 7), (5, 8, 8)):
        assert len(enumerate_fp_points((0, 0, 1, -1, 0), p)) == order
        assert curve37.group_order(p) == order
        assert curve37.reduction_order(point37, p) == r


def test_05_hasse_interval_for_divisor_primes(ctx37):
    """Every p outside S dividing D_l (prime l <= 31) has l <= p+1+2*sqrt(p)."""
    for l in primes_up_to(31):
        data = ctx37.radical_data(l)
        assert data.complete
        for p, _v in data.entries:
            # l <= p + 1 + 2*sqrt(p), tested exactly: (l-p-1)^2 <= 4p.
            t = l - p - 1
            assert t <= 0 or t * t <= 4 * p, (l, p)


def test_06_radical_coprimality(ctx37):
    """Certain parts of rad_{S,2}(D_l), rad_{S,2}(D_l') coprime for distinct prime l, l' <= 31."""
    ells = primes_up_to(31)
    rads = {l: ctx37.radical_data(l).power_radical(2) for l in ells}
    for i, a in enumerate(ells):
        for b in ells[i + 1 :]:
            assert gcd(rads[a], rads[b]) == 1, (a, b)


def test_07_soundness_sweep(ctx37):
    """No certified "fails" ever contradicts the exact power oracle.

    All multisets from {1..12}^k, k <= 3, rho in {2, 3}. < 10 min.
    """
    start = time.monotonic()
    tuples = checked_exclusions = 0
    for rho in (2, 3):
        ctx = ObstructionContext(ctx37.table, ctx37.S, rho)
        for k in (1, 2, 3):
            for combo in combinations_with_replacement(range(1, 13), k):
                report = evaluate_tuple(ctx, combo)
                oracle = product_relation(ctx37.table, combo, rho)
                tuples += 1
                if report.certified_exclusions:
                    checked_exclusions += 1
                    assert not oracle.is_power, (combo, rho, report.certified_exclusions)
    elapsed = time.monotonic() - start
    assert tuples == 908
    assert checked_exclusions > 100  # the sweep must actually exercise exclusions
    assert elapsed < 600.0, f"soundness sweep took {elapsed:.1f}s"


def test_08_positive_relations_pass_absorption(ctx37):
    """Every exact power relation found satisfies the absorption congruence
    at every detecting prime (k <= 3, N <= 12, rho in {2, 3})."""
    for rho in (2, 3):
        relations = []
        for k in (1, 2, 3):
            relations.extend(search_relations(ctx37.table, k, 12, rho))
        assert relations
        for l in primes_up_to(12):
            data = ctx37.radical_data(l)
            assert data.complete
            for p, _v in data.detecting(rho):
                for rel in relations:
                    verdict = congruence(ctx37, rel.n, l, p, rho).absorption()
                    assert verdict.verdict == HOLDS, (rel.n, l, p, rho)


def test_09_cluster_packing_fixtures(ctx37):
    """The 4-tuple two-block fixture satisfies all five conclusions; the
    weight-1 fixture yields a certified exclusion confirmed by the oracle."""
    ctx = ObstructionContext(ctx37.table, ctx37.S, rho=2, B=3)

    def packing(n):
        return cluster_packing(ctx, n, [prime_facts(ctx, n, l) for l in (11, 13)])

    rep = packing((22, 33, 26, 39))
    assert rep.dropped == {}
    assert rep.lambda_star == [11, 13]
    assert rep.rank == len(rep.lambda_star) == 4 // 2  # the packing bound k // rho
    assert all(v == HOLDS for v in rep.conclusions.values())

    rep = packing((22, 26, 6))
    assert rep.conclusions[1] == FAILS
    assert rep.exclusion and rep.certified
    assert not product_relation(ctx37.table, (22, 26, 6), 2).is_power


def test_10_power_oracle_vs_brute_force():
    """is_rho_power agrees with brute-force enumeration for x <= 10^6,
    rho in {2, 3, 5}. < 30 s."""
    start = time.monotonic()
    limit = 10 ** 6
    for rho in (2, 3, 5):
        powers = set()
        y = 1
        while y ** rho <= limit:
            powers.add(y ** rho)
            y += 1
        for x in range(1, limit + 1):
            assert is_rho_power(x, rho) == (x in powers), (x, rho)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"power-oracle sweep took {elapsed:.1f}s"
