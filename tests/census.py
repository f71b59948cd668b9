"""What the obstruction checkers decide on every small multiset of indices.

For one table, exceptional set and rho, a census evaluates every multiset
of 1..k entries from {2..N} and records, for each, whether the exact power
oracle finds the product of its D_n to be a rho-th power and which
statements certify an exclusion.  The counts it yields are pinned by
test_obstruction, so a change to the checkers states how each one moved.
"""

from itertools import combinations_with_replacement
from typing import Dict, FrozenSet, Iterable, Iterator, NamedTuple, Tuple

from edskit.factor import DEFAULT_EFFORT, Effort
from edskit.obstruction import ObstructionContext, TupleReport, evaluate_tuple
from edskit.relation import test_relation as product_relation


class CensusRow(NamedTuple):
    is_power: bool
    certified: FrozenSet[str]


def multisets(N: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Every multiset of 1..k entries from {2..N}, as a sorted tuple."""
    for size in range(1, k + 1):
        yield from combinations_with_replacement(range(2, N + 1), size)


def census_reports(
    ctx: ObstructionContext, tuples: Iterable[Tuple[int, ...]]
) -> Iterator[Tuple[TupleReport, bool]]:
    """(report, is_power) per tuple: the checkers' report and the oracle's answer."""
    for n in tuples:
        yield evaluate_tuple(ctx, n), product_relation(ctx.table, n, ctx.rho).is_power


def census(
    table, S, rho: int, N: int, k: int, effort: Effort = DEFAULT_EFFORT
) -> Dict[Tuple[int, ...], CensusRow]:
    """The census of every multiset of 1..k entries from {2..N} on one table."""
    ctx = ObstructionContext(table, S, rho, effort=effort)
    return {
        rep.n: CensusRow(is_power, frozenset(rep.certified_exclusions))
        for rep, is_power in census_reports(ctx, multisets(N, k))
    }
