"""Test-only helpers: brute-force oracles and small constructors.

Each oracle scans every candidate -- every subset of a carrier, every
filter, or every raw table -- against the axioms, so it shares no shortcut
with the fast enumeration it checks.  Tiny sizes only: a subset scan stops
at ``MAX_BRUTE_FORCE_CARRIER`` elements and a table scan at 2**that many
tables.
"""

import inspect
import itertools

from stonecheck.algebra import (
    MAX_BRUTE_FORCE_CARRIER,
    BoolHom,
    FinBoolAlg,
    FinLattice,
    boolean_algebra_of_up_sets,
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


def replace(obj, **changes):
    """A copy of a record with the given constructor fields changed.

    The copy is built through the record's constructor, with every
    parameter of ``inspect.signature(type(obj))`` read off obj unless
    changed, so its derived fields are recomputed and its ``_cache`` starts
    empty, as ``dataclasses.replace`` gave.
    """
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


def identity_hom(algebra: FinBoolAlg) -> BoolHom:
    return validate_hom(tuple(range(algebra.size)), algebra, algebra)


def validate_boolean_algebra(size, leq_pairs, complement) -> FinBoolAlg:
    """Validate an abstract presentation (carrier + order pairs + complements).

    The pair list is taken literally: reflexive pairs must be present and
    the relation must already be transitively closed, or NotAPoset is
    raised with the offending tuple.
    """
    up = [0] * size
    for i, j in leq_pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"order pair ({i}, {j}) is outside the carrier")
        up[i] |= 1 << j
    return boolean_algebra_of_up_sets(up, complement)


def report_jsonable(report) -> list[dict]:
    """Instances as plain data.  timing_ms is serialized as 0 so that report
    files are byte-identical across runs; wall-clock values stay on the
    in-memory objects."""
    return [
        {
            "descriptor": inst.descriptor,
            "checks": [c.as_row() for c in inst.checks],
            "timing_ms": 0,
        }
        for inst in report.instances
    ]


def export_presentation(algebra: FinBoolAlg) -> tuple[int, list[tuple[int, int]], tuple[int, ...]]:
    """Dump an algebra back to the abstract form accepted by the validator."""
    n = algebra.size
    pairs = [(i, j) for i in range(n) for j in range(n) if algebra.up[i] >> j & 1]
    return n, pairs, algebra.complement


def members_of(mask: int) -> frozenset[int]:
    """The elements whose bits a member bitmask sets, as the oracles' set."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def is_filter(lattice: FinLattice, members: frozenset[int]) -> bool:
    if lattice.top not in members:
        return False
    for i in members:
        if not members_of(lattice.poset.up[i]) <= members:
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
