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
elements.  When the masks show a powerset order, only the complement laws
are left to check, on the masks: x meets not-x to bottom when their masks
are disjoint, and joins it to top when their masks cover every atom.  A
valid algebra keeps its up-sets and atom masks, and its meet and join
tables (``FinBoolAlg.lattice``) are translated from the masks when
something first reads them, so an algebra that is only validated, or whose
ultrafilters are only listed, costs no tables.

A homomorphism is recognised by its atom masks.  By Stone duality a table
between finite Boolean algebras is a homomorphism exactly when, read in
atom-mask coordinates, it is the preimage table of a point map
(``atom_additive``), which takes O(size) steps.  ``validate_hom`` accepts
such a table at once.

Every valid input is accepted by these mask tests.  Only an input that
fails one reaches the law scans (``poset_of_up_sets``, ``fin_lattice``,
``fin_bool_alg`` and the tail of ``validate_hom``), which name its first
witness in index order.  An order is held as bitmasks only: a poset keeps
each row as an up-set bitmask and each column as a down-set bitmask, so
``leq_of`` is one bit, the order dual swaps the two, the order laws are
mask tests and a least upper bound is the element whose up-set mask is the
intersection of two others; the distributive and homomorphism laws are
plain loops over the operation tables.

A set of elements is a bitmask too.  Filters are stored extensionally, as
member masks: every filter of a finite lattice is a principal up-set, so
the filters are the poset's up-set masks; the tests check them against a
scan of every subset.  Ideals are the filters of the order dual, which
reuses the lattice's own tables with the order, the operations, and the
bounds swapped, so they are its down-set masks.  An ultrafilter is its
atom and its member mask, the atom's up-set; the byte rows that the dual
constructions read off the members are built in
``duality.ultrafilter_rows``.

A result computed from one structure is cached on that structure
(``object_cache``), so it is freed with it; only ``powerset_algebra``,
whose tables are few and reused, is cached for the whole process.
"""

from __future__ import annotations

import itertools
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
    """Cache ``func(obj)`` in the ``_cache`` dict of obj, keyed by the
    wrapper's ``slot``, so that each result is freed with the object it was
    computed from.

    An exception is never cached.  ``cache_info()`` counts hits and misses
    over the process.  The dict sits in a ``__slots__`` slot that the
    record's ``__init__`` fills: records have no instance ``__dict__``.
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


class FieldEquality:
    """``==`` and ``hash`` over the constructor's fields, named in ``_fields``,
    between records of one class; a record without this base compares by
    identity.

    Every record is a plain ``__slots__`` class whose ``__init__`` sets each
    field once, derived fields and the empty ``_cache`` dict included; no
    code outside an ``__init__`` assigns a field (``tests/test_field_stores.py``).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FinPoset:
    """A finite partial order as bitmasks: bit j of ``up[i]`` says that
    element i <= element j, and ``down[j]`` is the bitmask of the elements
    below j, so it is ``up`` transposed.
    """

    __slots__ = ("up", "down", "__weakref__")

    def __init__(self, up: tuple[int, ...], down: tuple[int, ...]) -> None:
        self.up = up
        self.down = down

    @property
    def size(self) -> int:
        return len(self.up)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


_BITS = bytes.maketrans(b"01", b"\0\1")


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
    down = tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))
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
        above = [j for j in range(n) if up[i] >> j & 1]
        if not reduce(or_, map(up.__getitem__, above), 0) & outside:
            continue
        j = next(j for j in above if up[j] & outside)
        k = _lowest_bit(up[j] & outside)
        raise NotAPoset("relation is not transitive", ("transitivity", i, j, k))
    return FinPoset(up, down)


class FinLattice:
    """A finite lattice: a poset plus total meet/join tables and its bounds.
    Its size is a plain field, read off the poset when the lattice is made."""

    __slots__ = ("poset", "meet", "join", "bottom", "top", "size", "_cache", "__weakref__")

    def __init__(
        self,
        poset: FinPoset,
        meet: tuple[tuple[int, ...], ...],
        join: tuple[tuple[int, ...], ...],
        bottom: int,
        top: int,
    ) -> None:
        self.poset = poset
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.size = poset.size
        self._cache = {}

    def leq_of(self, i: int, j: int) -> int:
        """1 when element i <= element j, else 0."""
        return self.poset.up[i] >> j & 1

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


def order_dual(lattice: FinLattice) -> FinLattice:
    """The same carrier under the reversed order: meet and join, bottom and
    top, and up-sets and down-sets trade places.  Not cached: its one
    caller, ``all_ideals``, is."""
    poset = FinPoset(lattice.poset.down, lattice.poset.up)
    return FinLattice(poset, lattice.join, lattice.meet, lattice.top, lattice.bottom)


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


class FinBoolAlg:
    """A finite Boolean algebra in canonical atom-bitmask form.

    It keeps the up-set bitmasks of its order; its size, atom count and
    bounds are plain fields, read off the atom masks when the algebra is
    made.  Its ``lattice`` is built from the masks when first read.
    """

    __slots__ = (
        "up", "complement", "atoms", "atom_mask", "_mask_index",
        "size", "atom_count", "bottom", "top", "_cache", "__weakref__",
    )

    def __init__(
        self,
        up: tuple[int, ...],
        complement: tuple[int, ...],
        atoms: tuple[int, ...],
        atom_mask: tuple[int, ...],
        _mask_index: dict,
    ) -> None:
        self.up = up
        self.complement = complement
        self.atoms = atoms
        self.atom_mask = atom_mask
        self._mask_index = _mask_index
        self.size = size = len(atom_mask)
        self.atom_count = len(atoms)
        self.bottom = _mask_index[0]
        self.top = _mask_index[size - 1]
        self._cache = {}

    @property
    @object_cache
    def lattice(self) -> FinLattice:
        """The meet and join tables, translated from the atom masks through
        ``_mask_ops``, over the algebra's up-sets and their down-sets."""
        up, atom_mask, n = self.up, self.atom_mask, self.size
        masks = bytes(atom_mask)
        index = bytes([self._mask_index[m] for m in range(n)]).ljust(256, b"\0")
        meet, join = (
            tuple([tuple(masks.translate(ops[m]).translate(index)) for m in atom_mask])
            for ops in _mask_ops(self.atom_count)
        )
        below = [(1 << n) - 1]
        for a in self.atoms:
            outside = ~up[a]
            below = [m & outside for m in below] + below
        down = tuple(map(below.__getitem__, atom_mask))
        return FinLattice(FinPoset(up, down), meet, join, self.bottom, self.top)

    def mask_of(self, i: int) -> int:
        return self.atom_mask[i]


@cache
def _mask_ops(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Row x of ``x & y`` and of ``x | y`` over the n-bit masks y, each as
    a 256-byte ``bytes.translate`` table (zero-padded)."""
    size = 1 << n
    return tuple(
        tuple(bytes(op(x, y) for y in range(size)).ljust(256, b"\0") for x in range(size))
        for op in (int.__and__, int.__or__)
    )


def _checked_complement(n: int, complement: Sequence[int]) -> tuple[int, ...]:
    """The complement table of an n-element lattice, after the size cap."""
    if n > 1 << MAX_ATOMS:
        raise BoundExceeded(f"Boolean algebras capped at {1 << MAX_ATOMS} elements", n)
    comp = tuple(map(int, complement))
    if len(comp) != n or min(comp) < 0 or max(comp) >= n:
        raise ValueError("complement table must map the carrier into itself")
    return comp


def fin_bool_alg(lattice: FinLattice, complement: Sequence[int]) -> FinBoolAlg:
    """Validate distributivity and the complement laws, then canonicalize.

    Each law is a plain scan that names the first witness in index order:
    the triples (x, y, z) of the distributive law, then each x with its
    complement.  By Birkhoff's description of finite Boolean algebras a
    Boolean lattice is a powerset order, so an order that
    ``_atom_encoding`` does not read as one, checked after the complement
    laws, is reported as an internal invariant violation rather than a user
    error.  Lattices of more than ``2 ** MAX_ATOMS`` elements raise
    BoundExceeded.
    """
    n = lattice.size
    comp = _checked_complement(n, complement)
    meet, join = lattice.meet, lattice.join
    for x, y, z in itertools.product(range(n), repeat=3):
        if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
            raise NotDistributive("distributive law fails", (x, y, z))
    for x, c in enumerate(comp):
        if meet[x][c] != lattice.bottom:
            raise ComplementLawFails("x and not-x do not meet to bottom", (x, c))
        if join[x][c] != lattice.top:
            raise ComplementLawFails("x and not-x do not join to top", (x, c))
    encoding = _atom_encoding(lattice.poset.up)
    if encoding is None:
        raise InvariantViolation("a Boolean lattice is not a powerset order", n)
    atoms, masks = encoding
    atom_mask = tuple(masks)
    mask_index = {m: i for i, m in enumerate(atom_mask)}
    algebra = FinBoolAlg(lattice.poset.up, comp, atoms, atom_mask, mask_index)
    algebra._cache[FinBoolAlg.lattice.fget.slot] = lattice
    return algebra


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

    A powerset order (``_atom_encoding``) is a Boolean lattice, so only the
    cap, the complement table and the complement laws are left to check, in
    ``fin_bool_alg``'s order; the laws are tested on the atom masks, and
    the tables are built only when the algebra's ``lattice`` is first read.
    Any other order goes through ``poset_of_up_sets``, ``fin_lattice`` and
    ``fin_bool_alg``, whose scans name the first witness.
    """
    up = tuple(up)
    encoding = _atom_encoding(up)
    if encoding is None:
        return fin_bool_alg(fin_lattice(poset_of_up_sets(up)), complement)
    atoms, masks = encoding
    n = len(up)
    comp = _checked_complement(n, complement)
    # x meets not-x in bottom, whose mask is 0, and joins it in top
    full = n - 1
    for x, c in enumerate(comp):
        if masks[x] & masks[c]:
            raise ComplementLawFails("x and not-x do not meet to bottom", (x, c))
        if masks[x] | masks[c] != full:
            raise ComplementLawFails("x and not-x do not join to top", (x, c))
    atom_mask = tuple(masks)
    return FinBoolAlg(up, comp, atoms, atom_mask, {m: i for i, m in enumerate(atom_mask)})


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


class UltraFilter(FieldEquality):
    """A maximal proper filter; principal at a unique atom in the finite case.
    ``members`` is the bitmask of its elements, the atom's up-set."""

    _fields = ("algebra", "members", "atom")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, algebra: FinBoolAlg, members: int, atom: int) -> None:
        self.algebra = algebra
        self.members = members
        self.atom = atom


@object_cache
def all_filters(lattice: FinLattice) -> tuple[int, ...]:
    """Every filter of a finite lattice as a member bitmask: the principal
    up-sets, one per element, so the poset's ``up`` masks.

    Ordered by generating element index.  The tests check it against a
    scan of every subset.
    """
    return lattice.poset.up


@object_cache
def all_ideals(lattice: FinLattice) -> tuple[int, ...]:
    """Every ideal: the filters of the order dual, so each generator is a
    join and the masks are the poset's ``down`` masks."""
    return all_filters(order_dual(lattice))


@object_cache
def ultrafilters(algebra: FinBoolAlg) -> tuple[UltraFilter, ...]:
    """All maximal proper filters, sorted by the generating atom's mask.

    In a finite Boolean algebra these are exactly the principal up-sets of
    atoms, so each one's members are its atom's up-set mask and no lattice
    is built; the tests check them against the maximal proper filters.
    """
    if algebra.bottom == algebra.top:
        raise DegenerateAlgebra("the one-element algebra has no proper filters")
    ufs = [UltraFilter(algebra, algebra.up[a], a) for a in algebra.atoms]
    ufs.sort(key=lambda u: algebra.mask_of(u.atom))
    return tuple(ufs)


class BoolHom(FieldEquality):
    """A validated Boolean homomorphism given by its image table."""

    _fields = ("source", "target", "table")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, source: FinBoolAlg, target: FinBoolAlg, table: tuple[int, ...]) -> None:
        self.source = source
        self.target = target
        self.table = table

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
    other table breaks a law, and plain scans name the first: bottom, the
    meet of each pair (i, j) in row-major order, top, the join of each
    pair, then the complement of each element.
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
    src, dst = source.lattice, target.lattice
    pairs = list(itertools.product(range(n), repeat=2))
    if t[source.bottom] != target.bottom:
        raise NotMeetPreserving("bottom must map to bottom", ("bottom", source.bottom))
    for i, j in pairs:
        if t[src.meet[i][j]] != dst.meet[t[i]][t[j]]:
            raise NotMeetPreserving("meet not preserved", (i, j))
    if t[source.top] != target.top:
        raise NotJoinPreserving("top must map to top", ("top", source.top))
    for i, j in pairs:
        if t[src.join[i][j]] != dst.join[t[i]][t[j]]:
            raise NotJoinPreserving("join not preserved", (i, j))
    for a in range(n):
        if t[source.complement[a]] != target.complement[t[a]]:
            raise NotComplementPreserving("complement not preserved", (a,))
    raise InvariantViolation("a table that keeps every law is not atom additive", t)


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
