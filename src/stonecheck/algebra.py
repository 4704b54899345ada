"""Finite posets, lattices, and Boolean algebras with filters and homomorphisms.

Carriers are index based: the elements of a structure of size n are the
integers 0..n-1.  A validated Boolean algebra additionally carries its
canonical atom-bitmask form: element i is assigned the bitmask of the atoms
below it, which identifies the algebra with the powerset of its atom set and
makes order and operations single-word bit operations.  For powerset
algebras the element index *is* its atom mask.

A valid algebra is recognised by its atom encoding.  By Stone's
representation a finite Boolean algebra is the powerset of its atoms, so
``boolean_algebra_of_up_sets`` first reads candidate atoms and atom masks
off the up-set bitmasks of the order, in O(k * 2**k) steps for 2**k
elements.  When the masks show a powerset order, the order, meet and join
tables are translated from the masks, and only the complement laws are
left to check.  The row scans below run only on an order that is not a
powerset order, to name its witness.

Those scans run a row at a time.  A poset keeps each row of its order as
an up-set bitmask (and each column as a down-set bitmask), so the order
laws are mask tests and a least upper bound is the element whose up-set
mask is the intersection of two others.  The distributive and homomorphism
laws compare rows of bytes built from the operation tables with
``bytes.translate``; a lattice keeps its meet and join tables as flat byte
blocks (``meet_bytes``, ``join_bytes``, cached like any other result; a
recognised powerset order is handed the blocks its constructor built), for
``fin_bool_alg`` and ``validate_hom`` to translate.  Only a comparison that
fails is scanned, so every check still names the same first witness as an
element-by-element scan in index order.

A homomorphism is recognised by its atom masks.  By Stone duality a table
between finite Boolean algebras is a homomorphism exactly when, read in
atom-mask coordinates, it is the preimage table of a point map
(``atom_additive``), which takes O(size) steps.  ``validate_hom`` accepts
such a table at once; its law scans run only on a table that is not one,
to name its first witness, and slice the target's rows as they go.

Filters are stored extensionally (as element sets).  The fast enumeration
exploits that every filter of a finite lattice is a principal up-set; the
tests check it against a scan of every subset.  Ideals are the filters of
the order dual, which reuses the lattice's own tables with the order, the
operations, and the bounds swapped.  An ultrafilter also keeps a 256-byte ``indicator``, so
that membership of a whole row of elements is one ``bytes.translate``;
``ultrafilter_rows`` keys the ultrafilters by the resulting rows.

A result computed from one structure is cached on that structure
(``object_cache``), so it is freed with it; only ``powerset_algebra``,
whose tables are few and reused, is cached for the whole process.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from functools import cache, reduce, wraps
from operator import or_
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .errors import (
    BoundExceeded,
    ComplementLawFails,
    DegenerateAlgebra,
    InvariantViolation,
    NotALattice,
    NotAPoset,
    NotComplementPreserving,
    NotDistributive,
    NotJoinPreserving,
    NotMeetPreserving,
)

# The cap table, the only place a bound is set.  Algebras, and with them
# homomorphisms, stop at MAX_ATOMS atoms, document carriers at 2**MAX_ATOMS
# labels, and Stone spaces (``duality.topology``) at MAX_ATOMS points, so the
# table search tries at most MAX_ATOMS**MAX_ATOMS tables; subset scans stop
# at MAX_BRUTE_FORCE_CARRIER elements, raw table scans at 2**that many
# tables.  Byte rows need element indices below 256, so MAX_ATOMS <= 8;
# and ``extension._assert_complete`` splits its not-above/not-below masks
# into two bytes, so MAX_BRUTE_FORCE_CARRIER <= 16.
MAX_ATOMS = 5
MAX_BRUTE_FORCE_CARRIER = 16


def object_cache(func: Callable) -> Callable:
    """Cache ``func(obj)`` in the ``_cache`` field of obj, keyed by the
    wrapper's ``slot``, so that each result is freed with the object it was
    computed from.

    An exception is never cached.  ``cache_info()`` counts hits and misses
    over the process.  A field, not the instance ``__dict__``: on CPython
    3.11 taking an instance's ``__dict__`` slows its later attribute reads.
    """
    slot = f"{func.__module__}.{func.__qualname__}"
    counts = [0, 0]

    @wraps(func)
    def wrapper(obj):
        memo = obj._cache
        try:
            result = memo[slot]
        except KeyError:
            counts[1] += 1
        else:
            counts[0] += 1
            return result
        result = memo[slot] = func(obj)
        return result

    wrapper.slot = slot
    wrapper.cache_info = lambda: SimpleNamespace(hits=counts[0], misses=counts[1])
    return wrapper


def cache_field():
    """The ``_cache`` field that ``object_cache`` keeps its results in."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class FinPoset:
    """A finite partial order; ``leq[i][j]`` holds iff element i <= element j.

    ``up[i]`` is the bitmask of the elements above i and ``down[i]`` that of
    the elements below it.
    """

    leq: tuple[tuple[bool, ...], ...]
    up: tuple[int, ...] = field(repr=False)
    down: tuple[int, ...] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.leq)

    def leq_of(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def upset(self, i: int) -> frozenset[int]:
        return frozenset(j for j in range(self.size) if self.leq[i][j])

    def downset(self, i: int) -> frozenset[int]:
        return frozenset(j for j in range(self.size) if self.leq[j][i])


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _first_difference(a: bytes, b: bytes) -> int:
    return next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _byte_table(row: Sequence[int]) -> bytes:
    """A table row as a 256-byte ``bytes.translate`` table (entries below 256)."""
    return bytes(row).ljust(256, b"\0")


def _subset_unions(parts: Sequence[int]) -> list[int]:
    """Entry S is the union of ``parts[x]`` over the x in the bitmask S,
    built by subset doubling: adding x to every set so far adds parts[x]."""
    unions = [0]
    for part in parts:
        unions += [m | part for m in unions]
    return unions


def _preimage_table(table: Sequence[int], target_size: int) -> list[int]:
    """The preimage mask of every target point set under a point table:
    entry m is the union of the fibres of the points in m."""
    fibres = [0] * target_size
    for i, v in enumerate(table):
        fibres[v] |= 1 << i
    return _subset_unions(fibres)


def fin_poset(rows: Sequence[Sequence[bool]]) -> FinPoset:
    """Validate a relation matrix as a partial order: ``poset_of_up_sets``
    over its rows read as bitmasks."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("relation matrix must be square")
    bits = [1 << j for j in range(n)]
    return poset_of_up_sets([sum(itertools.compress(bits, row)) for row in rows])


def poset_of_up_sets(up: Sequence[int]) -> FinPoset:
    """Validate a relation given row by row as bitmasks as a partial order.

    Bit j of ``up[i]`` says that i <= j.  Raises NotAPoset naming the first
    witnessing tuple, scanning reflexivity, then antisymmetry, then
    transitivity in index order.  For i <= j the first transitivity witness
    k is the lowest element above j but not above i.
    """
    n = len(up)
    if n == 0:
        raise ValueError("carrier must be nonempty")
    up = tuple(up)
    if any(m >> n for m in up):
        raise ValueError("relation masks must lie inside the carrier")
    bits = [1 << j for j in range(n)]
    leq = tuple(tuple(map(bool, map(m.__and__, bits))) for m in up)
    down = tuple(sum(itertools.compress(bits, col)) for col in zip(*leq))
    for i in range(n):
        if not up[i] >> i & 1:
            raise NotAPoset("relation is not reflexive", ("reflexivity", i))
    for i in range(n):
        both = (up[i] & down[i]) >> (i + 1)
        if both:
            j = i + 1 + _lowest_bit(both)
            raise NotAPoset("relation is not antisymmetric", ("antisymmetry", i, j))
    for i in range(n):
        outside = ~up[i]
        if not reduce(or_, itertools.compress(up, leq[i]), 0) & outside:
            continue
        j = next(j for j in range(n) if leq[i][j] and up[j] & outside)
        k = _lowest_bit(up[j] & outside)
        raise NotAPoset("relation is not transitive", ("transitivity", i, j, k))
    return FinPoset(leq, up, down)


@dataclass(frozen=True, eq=False)
class FinLattice:
    """A finite lattice: a poset plus total meet/join tables and its bounds.
    Its size is a plain field, read off the poset when the lattice is made."""

    poset: FinPoset
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    size: int = field(init=False, repr=False, compare=False)
    _cache: dict = cache_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", self.poset.size)

    def leq_of(self, i: int, j: int) -> bool:
        return self.poset.leq[i][j]

    def meet_of(self, i: int, j: int) -> int:
        return self.meet[i][j]

    def join_of(self, i: int, j: int) -> int:
        return self.join[i][j]

    def meet_all(self, elems: Iterable[int]) -> int:
        """Meet of an arbitrary finite family; the empty meet is top."""
        out = self.top
        for e in elems:
            out = self.meet[out][e]
        return out

    def join_all(self, elems: Iterable[int]) -> int:
        """Join of an arbitrary finite family; the empty join is bottom."""
        out = self.bottom
        for e in elems:
            out = self.join[out][e]
        return out

    @property
    @object_cache
    def meet_bytes(self) -> bytes:
        """The meet table as one flat block of n rows of n bytes."""
        return bytes(itertools.chain.from_iterable(self.meet))

    @property
    @object_cache
    def join_bytes(self) -> bytes:
        """The join table as one flat block of n rows of n bytes."""
        return bytes(itertools.chain.from_iterable(self.join))


@object_cache
def order_dual(lattice: FinLattice) -> FinLattice:
    """The same carrier under the reversed order: meet and join, bottom and
    top, and up-sets and down-sets trade places."""
    poset = lattice.poset
    dual_poset = FinPoset(tuple(zip(*poset.leq)), poset.down, poset.up)
    return FinLattice(dual_poset, lattice.join, lattice.meet, lattice.top, lattice.bottom)


def _bound_table(masks: tuple[int, ...], kind: str, message: str) -> tuple[tuple[int, ...], ...]:
    """Tabulate the element whose mask is the intersection of two masks.

    With up-set masks this is the least upper bound (an element u is the
    least of the common upper bounds exactly when its up-set is all of
    them); with down-set masks it is the greatest lower bound.
    """
    by_mask = {m: k for k, m in enumerate(masks)}
    table = []
    for i, m in enumerate(masks):
        row = tuple(map(by_mask.get, map(m.__and__, masks)))
        if None in row:
            raise NotALattice(message, (kind, i, row.index(None)))
        table.append(row)
    return tuple(table)


def fin_lattice(poset: FinPoset) -> FinLattice:
    """Check that every pair has a unique meet and join and tabulate them.

    The whole join table is built before the meet table, so a poset that
    lacks both names its first pair without a join.
    """
    join = _bound_table(poset.up, "join", "pair has no least upper bound")
    meet = _bound_table(poset.down, "meet", "pair has no greatest lower bound")
    full = (1 << poset.size) - 1
    return FinLattice(poset, meet, join, poset.up.index(full), poset.down.index(full))


@dataclass(frozen=True, eq=False)
class FinBoolAlg:
    """A finite Boolean algebra in canonical atom-bitmask form.

    Its size, atom count and bounds are plain fields, read off the lattice
    and the atoms when the algebra is made.
    """

    lattice: FinLattice
    complement: tuple[int, ...]
    atoms: tuple[int, ...]
    atom_mask: tuple[int, ...]
    _mask_index: dict
    size: int = field(init=False, repr=False, compare=False)
    atom_count: int = field(init=False, repr=False, compare=False)
    bottom: int = field(init=False, repr=False, compare=False)
    top: int = field(init=False, repr=False, compare=False)
    _cache: dict = cache_field()

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", self.lattice.size)
        object.__setattr__(self, "atom_count", len(self.atoms))
        object.__setattr__(self, "bottom", self.lattice.bottom)
        object.__setattr__(self, "top", self.lattice.top)

    def leq_of(self, i: int, j: int) -> bool:
        return self.lattice.leq_of(i, j)

    def meet_of(self, i: int, j: int) -> int:
        return self.lattice.meet[i][j]

    def join_of(self, i: int, j: int) -> int:
        return self.lattice.join[i][j]

    def complement_of(self, i: int) -> int:
        return self.complement[i]

    def mask_of(self, i: int) -> int:
        return self.atom_mask[i]

    def element_of_mask(self, mask: int) -> int:
        return self._mask_index[mask]


@cache
def _mask_ops(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...], tuple[bytes, ...]]:
    """Row x of ``x & y``, of ``x | y`` and of ``x <= y`` (1 when x is a
    subset of y, else 0) over the n-bit masks y, each as a 256-byte
    ``bytes.translate`` table (zero-padded)."""
    size = 1 << n
    return tuple(
        tuple(bytes(op(x, y) for y in range(size)).ljust(256, b"\0") for x in range(size))
        for op in (int.__and__, int.__or__, lambda x, y: x & ~y == 0)
    )


def _checked_complement(n: int, complement: Sequence[int]) -> tuple[int, ...]:
    """The complement table of an n-element lattice, after the size cap."""
    if n > 1 << MAX_ATOMS:
        raise BoundExceeded(f"Boolean algebras capped at {1 << MAX_ATOMS} elements", n)
    comp = tuple(map(int, complement))
    if len(comp) != n or min(comp) < 0 or max(comp) >= n:
        raise ValueError("complement table must map the carrier into itself")
    return comp


def _check_complement_laws(lattice: FinLattice, comp: tuple[int, ...]) -> None:
    """Raise ComplementLawFails at the first x whose complement fails a law."""
    meet, join = lattice.meet, lattice.join
    for x in range(lattice.size):
        if meet[x][comp[x]] != lattice.bottom:
            raise ComplementLawFails("x and not-x do not meet to bottom", (x, comp[x]))
        if join[x][comp[x]] != lattice.top:
            raise ComplementLawFails("x and not-x do not join to top", (x, comp[x]))


def fin_bool_alg(lattice: FinLattice, complement: Sequence[int]) -> FinBoolAlg:
    """Validate distributivity and the complement laws, then canonicalize.

    The distributive law is checked a row at a time and scanned for its
    first witness only in a row that fails.  By Birkhoff's description of
    finite Boolean algebras the atom-bitmask encoding of a valid algebra is
    an order isomorphism onto the powerset of the atom set, so a failure
    there, checked after the complement laws, is reported as an internal
    invariant violation rather than a user error.  Lattices of more than
    ``2 ** MAX_ATOMS`` elements raise BoundExceeded.
    """
    n = lattice.size
    comp = _checked_complement(n, complement)
    meet_block, join_block = lattice.meet_bytes, lattice.join_bytes
    join_tables = [_byte_table(row) for row in lattice.join]
    for x in range(n):
        # row y, column z: meet[x][join[y][z]] against join[meet[x][y]][meet[x][z]]
        meet_row = meet_block[x * n : x * n + n]
        lhs = join_block.translate(_byte_table(meet_row))
        rhs = b"".join([meet_row.translate(join_tables[m]) for m in meet_row])
        if lhs != rhs:
            y, z = divmod(_first_difference(lhs, rhs), n)
            raise NotDistributive("distributive law fails", (x, y, z))
    _check_complement_laws(lattice, comp)

    leq, down = lattice.poset.leq, lattice.poset.down
    bottom = lattice.bottom
    atoms = tuple(i for i in range(n) if i != bottom and down[i] == 1 << i | 1 << bottom)
    atom_mask = tuple(
        sum(1 << k for k, a in enumerate(atoms) if down[i] >> a & 1) for i in range(n)
    )
    mask_index = {m: i for i, m in enumerate(atom_mask)}
    if len(mask_index) != n or n != 1 << len(atoms):
        raise InvariantViolation("atom encoding is not a bijection", (n, len(atoms)))
    for i, m in enumerate(atom_mask):
        # i <= j exactly when the atoms of i are among those of j
        row = tuple(map(m.__eq__, map(m.__and__, atom_mask)))
        if row != leq[i]:
            j = next(j for j in range(n) if row[j] != leq[i][j])
            raise InvariantViolation("atom encoding does not match the order", (i, j))
    return FinBoolAlg(lattice, comp, atoms, atom_mask, mask_index)


def _atom_encoding(up: tuple[int, ...]) -> tuple[tuple[int, ...], bytes] | None:
    """The atoms and atom masks of a powerset order given by its up-sets,
    or None when the order is not one (or has more than 256 elements).

    With n = 2**k elements, the candidate atoms are the elements with
    2**(k-1) elements above them, in index order, and bit t of an element's
    mask says that it lies above candidate t.  The order is a powerset
    order exactly when the masks are a bijection onto 0..n-1 and the up-set
    of each element is the set of elements whose mask contains its own:
    entry m of ``above`` is the intersection of the candidates' up-sets
    over the bits of m.
    """
    n = len(up)
    if not n or n & (n - 1) or n > 256:
        return None
    atoms = tuple(i for i, m in enumerate(up) if m.bit_count() == n >> 1)
    if n != 1 << len(atoms):
        return None
    packed, above = 0, [(1 << n) - 1]
    for t, a in enumerate(atoms):
        column = up[a]
        if column >> n:
            return None
        # one byte per element, 1 where it lies above atom t, moved to bit t
        row = format(column, f"0{n}b").encode().translate(_BITS)
        packed += int.from_bytes(row, "big") << t
        above += [m & column for m in above]
    masks = packed.to_bytes(n, "little")
    if len(set(masks)) != n or tuple(map(above.__getitem__, masks)) != up:
        return None
    return atoms, masks


def boolean_algebra_of_up_sets(up: Sequence[int], complement: Sequence[int]) -> FinBoolAlg:
    """Validate an order given row by row as up-set bitmasks, with its
    complement table, as a Boolean algebra.

    A powerset order (``_atom_encoding``) is a Boolean lattice, so its
    order, meet and join tables are translated from the atom masks through
    ``_mask_ops``, and only the cap, the complement table and the
    complement laws are left to check, in ``fin_bool_alg``'s order.  Any
    other order goes through ``poset_of_up_sets``, ``fin_lattice`` and
    ``fin_bool_alg``, whose scans name the first witness.
    """
    up = tuple(up)
    encoding = _atom_encoding(up)
    if encoding is None:
        return fin_bool_alg(fin_lattice(poset_of_up_sets(up)), complement)
    atoms, masks = encoding
    n = len(up)
    comp = _checked_complement(n, complement)
    ands, ors, subsets = _mask_ops(len(atoms))
    atom_mask = tuple(masks)
    mask_index = {m: i for i, m in enumerate(atom_mask)}
    index = _byte_table([mask_index[m] for m in range(n)])
    rows = struct.Struct(f"{n}?").unpack
    leq = tuple([rows(masks.translate(subsets[m])) for m in atom_mask])
    meet_rows, join_rows = (
        [masks.translate(ops[m]).translate(index) for m in atom_mask] for ops in (ands, ors)
    )
    below = [(1 << n) - 1]
    for a in atoms:
        outside = ~up[a]
        below = [m & outside for m in below] + below
    down = tuple(map(below.__getitem__, atom_mask))
    meet, join = (tuple(map(tuple, rows)) for rows in (meet_rows, join_rows))
    lattice = FinLattice(FinPoset(leq, up, down), meet, join, index[0], index[n - 1])
    lattice._cache[FinLattice.meet_bytes.fget.slot] = b"".join(meet_rows)
    lattice._cache[FinLattice.join_bytes.fget.slot] = b"".join(join_rows)
    _check_complement_laws(lattice, comp)
    return FinBoolAlg(lattice, comp, atoms, atom_mask, mask_index)


def validate_boolean_algebra(
    size: int,
    leq_pairs: Iterable[tuple[int, int]],
    complement: Sequence[int],
) -> FinBoolAlg:
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


@cache
def powerset_algebra(n: int) -> FinBoolAlg:
    """The 2**n-element powerset algebra; element index == atom mask."""
    if n < 0:
        raise ValueError("atom count must be nonnegative")
    if n > MAX_ATOMS:
        raise BoundExceeded(f"powerset algebra capped at {MAX_ATOMS} atoms", n)
    size = 1 << n
    up = [sum(1 << j for j in range(size) if i & ~j == 0) for i in range(size)]
    algebra = boolean_algebra_of_up_sets(up, [(size - 1) ^ m for m in range(size)])
    if algebra.atom_mask != tuple(range(size)):
        raise InvariantViolation("powerset algebra is not in canonical form", n)
    return algebra


@dataclass(frozen=True)
class Filter:
    """An upward-closed, meet-closed subset containing top (improper allowed)."""

    lattice: FinLattice
    members: frozenset[int]

    @property
    def generator(self) -> int:
        """In a finite lattice every filter is the up-set of its total meet."""
        return self.lattice.meet_all(self.members)


@dataclass(frozen=True)
class UltraFilter:
    """A maximal proper filter; principal at a unique atom in the finite case."""

    algebra: FinBoolAlg
    filter: Filter
    atom: int
    _cache: dict = cache_field()

    @property
    def members(self) -> frozenset[int]:
        return self.filter.members

    @property
    @object_cache
    def indicator(self) -> bytes:
        """A 256-byte ``bytes.translate`` table: 1 at each member, else 0.

        Translating a row of elements through it marks which lie in the
        ultrafilter; its first ``algebra.size`` bytes are the membership row
        that ``ultrafilter_rows`` keys on.
        """
        row = bytearray(256)
        for a in self.members:
            row[a] = 1
        return bytes(row)


def ultrafilter_rows(ufs: Sequence[UltraFilter]) -> dict[bytes, int]:
    """The position of each ultrafilter, keyed by its membership row."""
    return {u.indicator[: u.algebra.size]: k for k, u in enumerate(ufs)}


@object_cache
def all_filters(lattice: FinLattice) -> tuple[Filter, ...]:
    """Every filter of a finite lattice: the principal up-sets, one per element.

    Ordered by generating element index.  The tests check it against a
    scan of every subset.
    """
    return tuple(
        Filter(lattice, lattice.poset.upset(x)) for x in range(lattice.size)
    )


@object_cache
def all_ideals(lattice: FinLattice) -> tuple[Filter, ...]:
    """Every ideal: the filters of the order dual, so each generator is a join."""
    return all_filters(order_dual(lattice))


@object_cache
def ultrafilters(algebra: FinBoolAlg) -> tuple[UltraFilter, ...]:
    """All maximal proper filters, sorted by the generating atom's mask.

    In a finite Boolean algebra these are exactly the principal up-sets of
    atoms; the tests check them against the maximal proper filters.
    """
    if algebra.bottom == algebra.top:
        raise DegenerateAlgebra("the one-element algebra has no proper filters")
    lat = algebra.lattice
    ufs = [
        UltraFilter(algebra, Filter(lat, lat.poset.upset(a)), a)
        for a in algebra.atoms
    ]
    ufs.sort(key=lambda u: algebra.mask_of(u.atom))
    return tuple(ufs)


@dataclass(frozen=True)
class BoolHom:
    """A validated Boolean homomorphism given by its image table."""

    source: FinBoolAlg
    target: FinBoolAlg
    table: tuple[int, ...]

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def is_surjective(self) -> bool:
        return set(self.table) == set(range(self.target.size))


def atom_additive(by_mask: Sequence[int], n1: int, n2: int) -> bool:
    """Whether a table from the n1-bit to the n2-bit masks, indexed by the
    source mask, is a Boolean homomorphism between the two powersets.

    It is one exactly when it sends the full mask to the full mask, the
    images of the n1 atoms have popcounts summing to n2, and every entry is
    the union of the atom images below it (``_subset_unions``).  Proof:
    the atom images then join to the full mask with popcounts summing to
    its own, so they partition it, and a union over S of the parts of a
    partition keeps bottom, top, joins, meets and complements.  Conversely
    a homomorphism keeps joins, so each entry is the union of its atoms'
    images, and these meet pairwise to bottom and join to top.  The table
    is then the preimage table of the point map that sends target atom q
    to the source atom whose image holds q.  Entries may be any ints: a
    negative or too wide atom image cannot join to the full mask.
    """
    parts = [by_mask[1 << x] for x in range(n1)]
    return (
        by_mask[(1 << n1) - 1] == (1 << n2) - 1
        and sum(map(int.bit_count, parts)) == n2
        and _subset_unions(parts) == list(by_mask)
    )


def validate_hom(table: Sequence[int], source: FinBoolAlg, target: FinBoolAlg) -> BoolHom:
    """Accept a raw image table as a homomorphism or name the first broken law.

    The image masks, ordered by the source element's mask, are tested with
    ``atom_additive``, and a table that passes is accepted at once.  Any
    other table breaks a law, and the scans below name the first: bottom
    preservation is checked with the meets (bottom is the meet of the whole
    carrier) and top preservation with the joins.  Each operation law reads
    the lattices' flat byte blocks (``meet_bytes``, ``join_bytes``).
    """
    t = tuple(map(int, table))
    n = source.size
    if len(t) != n or min(t) < 0 or max(t) >= target.size:
        raise ValueError("table must map the source carrier into the target carrier")
    masks = target.atom_mask
    if source.atom_mask == tuple(range(n)):
        by_mask = [masks[v] for v in t]
    else:
        index = source._mask_index
        by_mask = [masks[t[index[m]]] for m in range(n)]
    if atom_additive(by_mask, source.atom_count, target.atom_count):
        return BoolHom(source, target, t)
    image = bytes(t)
    image_table = _byte_table(t)
    src, dst = source.lattice, target.lattice
    if t[source.bottom] != target.bottom:
        raise NotMeetPreserving("bottom must map to bottom", ("bottom", source.bottom))
    witness = _unpreserved(src.meet_bytes, dst.meet_bytes, dst.size, image, image_table)
    if witness is not None:
        raise NotMeetPreserving("meet not preserved", witness)
    if t[source.top] != target.top:
        raise NotJoinPreserving("top must map to top", ("top", source.top))
    witness = _unpreserved(src.join_bytes, dst.join_bytes, dst.size, image, image_table)
    if witness is not None:
        raise NotJoinPreserving("join not preserved", witness)
    lhs = bytes(source.complement).translate(image_table)
    rhs = image.translate(_byte_table(target.complement))
    if lhs != rhs:
        raise NotComplementPreserving("complement not preserved", (_first_difference(lhs, rhs),))
    raise InvariantViolation("a table that keeps every law is not atom additive", t)


def _unpreserved(
    source_op: bytes, target_op: bytes, m: int, image: bytes, image_table: bytes
) -> tuple[int, int] | None:
    """The first (i, j) with t[op(i, j)] != op(t[i], t[j]), or None.

    The operations are flat byte blocks, n by n on the source and m by m on
    the target.  Both sides are built as n rows of n bytes, row i of the
    right side by translating the image through row t[i] of the target
    block, sliced and padded to a 256-byte table once per value taken.
    """
    lhs = source_op.translate(image_table)
    rows = {v: _byte_table(target_op[v * m : v * m + m]) for v in set(image)}
    rhs = b"".join([image.translate(rows[v]) for v in image])
    if lhs == rhs:
        return None
    return divmod(_first_difference(lhs, rhs), len(image))


def compose_homs(outer: BoolHom, inner: BoolHom) -> BoolHom:
    """The homomorphism outer∘inner (inner applied first)."""
    if inner.target is not outer.source:
        raise ValueError("homomorphisms do not compose")
    return validate_hom(
        tuple(outer.table[v] for v in inner.table), inner.source, outer.target
    )


def hom_from_atom_function(
    source: FinBoolAlg, target: FinBoolAlg, atom_function: Sequence[int]
) -> BoolHom:
    """Expand a function from target atoms to source atoms into the hom it induces.

    ``atom_function[q] = p`` says that the q-th atom of the target tracks the
    p-th atom of the source: h(a) is the target element whose atoms are
    exactly those q with atom p below a, the preimage of a's atoms.  This is
    the dual description of a homomorphism used both by the exhaustive
    generator and by the document shorthand.
    """
    g = tuple(map(int, atom_function))
    if len(g) != target.atom_count or g and (min(g) < 0 or max(g) >= source.atom_count):
        raise ValueError("atom function must map target atoms to source atoms")
    pre = _preimage_table(g, source.atom_count)
    index = target._mask_index
    return validate_hom([index[pre[m]] for m in source.atom_mask], source, target)


def atom_function_of_hom(hom: BoolHom) -> tuple[int, ...]:
    """Recover the dual atom function; inverse of ``hom_from_atom_function``.
    Target atom q tracks the source atom whose image lies above it."""
    images = [hom.target.mask_of(hom.table[a]) for a in hom.source.atoms]
    return tuple(
        next(p for p, m in enumerate(images) if m >> q & 1)
        for q in range(hom.target.atom_count)
    )


def all_homs(source: FinBoolAlg, target: FinBoolAlg) -> tuple[BoolHom, ...]:
    """Every homomorphism source -> target, in lexicographic atom-function order.

    The count always equals |Uf(source)| ** |Uf(target)|; the generator
    asserts this, and the test suite cross-checks against a raw table scan.
    """
    homs = tuple(
        hom_from_atom_function(source, target, g)
        for g in itertools.product(range(source.atom_count), repeat=target.atom_count)
    )
    expected = source.atom_count ** target.atom_count
    if len(homs) != expected or len({h.table for h in homs}) != expected:
        raise InvariantViolation("hom enumeration does not match the duality count")
    return homs
