"""Test-only helpers: brute-force oracles and small constructors.

Each oracle scans every candidate -- every subset of a carrier, every
filter, or every raw table -- against the axioms, so it shares no shortcut
with the fast enumeration it checks.  Tiny sizes only: a subset scan stops
at ``MAX_BRUTE_FORCE_CARRIER`` elements and a table scan at 2**that many
tables.
"""

import itertools

from stonecheck.algebra import (
    MAX_BRUTE_FORCE_CARRIER,
    BoolHom,
    FinBoolAlg,
    FinLattice,
    order_dual,
    validate_hom,
)
from stonecheck.errors import (
    BoundExceeded,
    DegenerateAlgebra,
    NotComplementPreserving,
    NotJoinPreserving,
    NotMeetPreserving,
)


def identity_hom(algebra: FinBoolAlg) -> BoolHom:
    return validate_hom(tuple(range(algebra.size)), algebra, algebra)


def export_presentation(algebra: FinBoolAlg) -> tuple[int, list[tuple[int, int]], tuple[int, ...]]:
    """Dump an algebra back to the abstract form accepted by the validator."""
    n = algebra.size
    pairs = [(i, j) for i in range(n) for j in range(n) if algebra.leq_of(i, j)]
    return n, pairs, algebra.complement


def is_filter(lattice: FinLattice, members: frozenset[int]) -> bool:
    if lattice.top not in members:
        return False
    for i in members:
        if not lattice.poset.upset(i) <= members:
            return False
        for j in members:
            if lattice.meet[i][j] not in members:
                return False
    return True


def all_filters_bruteforce(lattice: FinLattice) -> set[frozenset[int]]:
    """Scan all subsets against the filter axioms (cross-check oracle)."""
    n = lattice.size
    if n > MAX_BRUTE_FORCE_CARRIER:
        raise BoundExceeded("subset scan capped", n)
    found = set()
    for bits in range(1 << n):
        members = frozenset(i for i in range(n) if bits >> i & 1)
        if members and is_filter(lattice, members):
            found.add(members)
    return found


def all_ideals_bruteforce(lattice: FinLattice) -> set[frozenset[int]]:
    """Scan all subsets against the ideal axioms (cross-check oracle)."""
    return all_filters_bruteforce(order_dual(lattice))


def ultrafilters_bruteforce(algebra: FinBoolAlg) -> set[frozenset[int]]:
    """Maximal proper filters found by scanning all filters (oracle)."""
    if algebra.bottom == algebra.top:
        raise DegenerateAlgebra("the one-element algebra has no proper filters")
    proper = [
        f for f in all_filters_bruteforce(algebra.lattice)
        if algebra.bottom not in f
    ]
    return {f for f in proper if not any(f < g for g in proper)}


def all_homs_bruteforce(source: FinBoolAlg, target: FinBoolAlg) -> set[tuple[int, ...]]:
    """All hom tables found by filtering every raw table (oracle; tiny sizes only)."""
    if target.size ** source.size > 1 << MAX_BRUTE_FORCE_CARRIER:
        raise BoundExceeded("table scan capped", (source.size, target.size))
    found = set()
    for table in itertools.product(range(target.size), repeat=source.size):
        try:
            found.add(validate_hom(table, source, target).table)
        except (NotMeetPreserving, NotJoinPreserving, NotComplementPreserving):
            pass
    return found
