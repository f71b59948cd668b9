"""Ground-truth power-relation testing and exhaustive small search."""

import sys
from itertools import combinations_with_replacement

import pytest

from edskit.eds import _unlimited_int_digits, eds_range
from edskit.errors import BudgetExceeded, TableMiss
from edskit.relation import test_relation as product_relation
from oracles import brute_nth_root, search_relations


def test_relation_examples(table37):
    rel = product_relation(table37, (5, 5), 2)
    assert (rel.product, rel.is_power, rel.root) == (4, True, 2)
    rel = product_relation(table37, (5, 7), 2)
    assert (rel.product, rel.is_power) == (6, False)
    assert rel.root is None
    rel = product_relation(table37, (1, 2, 3), 3)
    assert (rel.product, rel.is_power, rel.root) == (1, True, 1)


def test_relation_out_of_range(table37):
    with pytest.raises(TableMiss):
        product_relation(table37, (61,), 2)


def test_search_relations_k2(table37):
    found = {r.n for r in search_relations(table37, 2, 8, 2)}
    assert (5, 5) in found and (7, 7) in found and (1, 4) in found
    assert all((i, i) in found for i in range(1, 9))
    assert (5, 7) not in found


def test_search_relations_k1(table37):
    found = {r.n[0] for r in search_relations(table37, 1, 8, 2)}
    assert found == {1, 2, 3, 4, 6}  # exactly the indices with D_n = 1


def test_search_relations_k0(table37):
    rels = search_relations(table37, 0, 8, 2)
    assert len(rels) == 1
    assert rels[0].product == 1 and rels[0].is_power


def test_search_relations_budget(table37):
    with pytest.raises(BudgetExceeded):
        search_relations(table37, 3, 12, 2, space_cap=10)
    with pytest.raises(BudgetExceeded):
        search_relations(table37, 2, 61, 2)


def test_search_is_deterministic_and_sorted(table37):
    a = [r.n for r in search_relations(table37, 2, 12, 2)]
    b = [r.n for r in search_relations(table37, 2, 12, 2)]
    assert a == b == sorted(a)


def test_search_matches_brute_force(table37):
    for rho in (2, 3):
        for k in (1, 2, 3):
            found = {r.n for r in search_relations(table37, k, 12, rho)}
            expected = set()
            for combo in combinations_with_replacement(range(1, 13), k):
                product = 1
                for n in combo:
                    product *= table37.D(n)
                if brute_nth_root(product, rho)[1]:
                    expected.add(combo)
            assert found == expected, (k, rho)


def test_relation_json(table37):
    doc = product_relation(table37, (5, 3), 2).to_json()
    assert doc == {"n": [5, 3], "rho": 2, "product": "2", "is_power": False}


def test_relation_json_past_int_str_digit_limit(curve37, point37):
    # D_441^3 on this fixture has more than 4300 decimal digits.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rel = product_relation(eds_range(curve37, point37, 441), (441, 441, 441), 2)
        doc = rel.to_json()
        assert sys.get_int_max_str_digits() == 4300
        assert len(doc["product"]) > 4300
        with _unlimited_int_digits():
            assert int(doc["product"]) == rel.product
    finally:
        sys.set_int_max_str_digits(limit)
