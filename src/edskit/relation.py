"""Ground-truth product-relation testing.

For positive integers, membership of a product of terms in the rho-th
powers of Q^x is exactly integer rho-th power membership, so the oracle
here is unconditional: no factorization is ever needed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from .eds import EdsTable, _decimal
from .intmath import int_nth_root


class ProductRelation(NamedTuple):
    n: Tuple[int, ...]
    rho: int
    product: int
    is_power: bool
    root: Optional[int]

    def to_json(self) -> dict:
        return {
            "n": list(self.n),
            "rho": self.rho,
            "product": _decimal(self.product),  # passes 4300 digits at modest indices
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
