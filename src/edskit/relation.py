"""Ground-truth product-relation testing and small-scale relation search.

For positive integers, membership of a product of terms in the rho-th
powers of Q^x is exactly integer rho-th power membership, so the oracle
here is unconditional: no factorization is ever needed.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .eds import EdsTable, _unlimited_int_digits
from .errors import BudgetExceeded
from .intmath import int_nth_root

DEFAULT_SEARCH_CAP = 2_000_000


class ProductRelation(NamedTuple):
    n: Tuple[int, ...]
    rho: int
    product: int
    is_power: bool
    root: Optional[int]

    def to_json(self) -> dict:
        with _unlimited_int_digits():  # products pass 4300 digits at modest indices
            product = str(self.product)
        return {
            "n": list(self.n),
            "rho": self.rho,
            "product": product,
            "is_power": self.is_power,
        }


def test_relation(table: EdsTable, n: Sequence[int], rho: int) -> ProductRelation:
    """Exact product of the D-terms at the given indices plus the power verdict."""
    product = 1
    for ni in n:
        product *= table.D(ni)
    root, exact = int_nth_root(product, rho)
    return ProductRelation(
        n=tuple(n), rho=rho, product=product, is_power=exact, root=root if exact else None
    )


def search_relations(
    table: EdsTable,
    k: int,
    N: int,
    rho: int,
    space_cap: int = DEFAULT_SEARCH_CAP,
) -> List[ProductRelation]:
    """All size-k multisets from {1..N} whose term product is an exact rho-th power.

    Multisets, not tuples: the product is order-invariant, so results use
    the canonical sorted representative.  Output is deterministic
    (lexicographically sorted).
    """
    if N > table.max_index:
        raise BudgetExceeded(f"index bound {N} exceeds table range {table.max_index}")
    if k == 0:
        return [ProductRelation(n=(), rho=rho, product=1, is_power=True, root=1)]
    from math import comb

    if comb(N + k - 1, k) > space_cap:
        raise BudgetExceeded(f"multiset space C({N + k - 1},{k}) exceeds cap {space_cap}")
    found = []
    for combo in combinations_with_replacement(range(1, N + 1), k):
        rel = test_relation(table, combo, rho)
        if rel.is_power:
            found.append(rel)
    return found
