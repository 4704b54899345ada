"""Completions of finite lattices and the canonical extension of maps.

A completion pairs a complete lattice with a validated lattice embedding.
The density and compactness tests quantify over the extensional filter and
ideal enumerations, each filter and ideal a member bitmask, implementing
the defining identities literally; both read the embedded filter meets and
ideal joins, folded once per completion (``_embedded_bounds``, cached on
it).  The canonical extension of a Boolean algebra is the completion of
its lattice by the powerset of its ultrafilter set with the Stone
embedding, returned once it has passed both tests, and the extension of a
map is its table, computed by the filter-quantified join formula --
deliberately not by the dual-map shortcut, which lives in the verification
harness as the independent path the formula is checked against.

The filter-formula extension reads each filter's intersections off a
plan of the source's filters, cached per algebra (``_filter_plan``): each
filter is its generator plus its maximal proper subfilters, so the
intersections take one AND per cover rather than one per member.

The completeness scan of a completion's lattice runs once per lattice
object (``_assert_complete`` is cached on the lattice).  Every canonical
extension of an n-atom algebra is completed by the lattice of the one
``powerset_algebra(n)``, so its 2**(2**n)-subset scan is paid once per
lattice object, not once per algebra that names it; a lattice that fails
raises again on every call, since an exception is never cached.  The scan
tests 256 subsets at a time against the low and the high bytes of the
bound masks, and walks subset by subset only to name the first lost bound.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    MAX_BRUTE_FORCE_CARRIER as MAX_ISO_SEARCH,
    BoolHom,
    FieldEquality,
    FinBoolAlg,
    FinLattice,
    all_filters,
    all_ideals,
    fin_lattice,
    fin_poset,
    object_cache,
    powerset_algebra,
    ultrafilters,
)
from .duality import phi_table
from .errors import BoundExceeded, DegenerateAlgebra, InvariantViolation, NotAnEmbedding


class Completion:
    """A complete finite lattice together with an embedding of the base."""

    __slots__ = ("base", "complete", "embedding", "_cache", "__weakref__")

    def __init__(self, base: FinLattice, complete: FinLattice, embedding: tuple[int, ...]) -> None:
        self.base = base
        self.complete = complete
        self.embedding = embedding
        self._cache = {}


class DensityVerdict(FieldEquality):
    _fields = ("passed", "element", "side")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, passed: bool, element: int | None = None, side: str | None = None) -> None:
        self.passed = passed
        self.element = element
        self.side = side


class CompactnessVerdict(FieldEquality):
    """Passed, or the first filter and ideal, as member masks, whose
    embedded meet lies below the embedded join although they are disjoint."""

    _fields = ("passed", "filter_members", "ideal_members")
    __slots__ = (*_fields, "__weakref__")

    def __init__(
        self,
        passed: bool,
        filter_members: int | None = None,
        ideal_members: int | None = None,
    ) -> None:
        self.passed = passed
        self.filter_members = filter_members
        self.ideal_members = ideal_members


class IsoVerdict(FieldEquality):
    _fields = ("passed", "table")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, passed: bool, table: tuple[int, ...] | None = None) -> None:
        self.passed = passed
        self.table = table


def completion(base: FinLattice, complete: FinLattice, embedding: Sequence[int]) -> Completion:
    """Validate the embedding: injective order-embedding preserving meet and join.

    Completeness of the codomain is automatic for finite lattices; it is
    still asserted by scanning every subset when the carrier is small enough
    for that to be feasible.
    """
    e = tuple(int(x) for x in embedding)
    if len(e) != base.size or any(not 0 <= v < complete.size for v in e):
        raise ValueError("embedding must map the base carrier into the completion")
    if len(set(e)) != base.size:
        raise NotAnEmbedding("embedding is not injective", e)
    for a in range(base.size):
        for b in range(base.size):
            if base.leq_of(a, b) != complete.leq_of(e[a], e[b]):
                raise NotAnEmbedding("order not reflected", (a, b))
            if e[base.meet[a][b]] != complete.meet[e[a]][e[b]]:
                raise NotAnEmbedding("meet not preserved", (a, b))
            if e[base.join[a][b]] != complete.join[e[a]][e[b]]:
                raise NotAnEmbedding("join not preserved", (a, b))
    _assert_complete(complete)
    return Completion(base, complete, e)


@object_cache
def _assert_complete(lattice: FinLattice) -> None:
    """Check that every subset has its meet and join as lower and upper bound.

    Subset scan only where 2**size is affordable; beyond that finite
    totality of the binary tables is what guarantees completeness.  A
    subset's meet (join) is folded from that of the subset without its
    highest member, the order in which ``meet_all`` (``join_all``) folds,
    one highest member at a time through a byte translation table.  Each
    bound is tested against the bitmask of the elements above (below) it.

    The test runs 256 subsets at a time, split by bytes: a block of bounds
    is translated into the low and into the high bytes of their
    not-above (not-below) masks, and each is ANDed, as one int, with the
    low or the high bytes of the block's subsets.  Only when some block
    finds a lost bound does the subset-by-subset scan run, so the witness
    is the first failing subset.  Cached on the lattice; a failing lattice
    is not cached.
    """
    n = lattice.size
    if n > MAX_ISO_SEARCH:
        return
    full = (1 << n) - 1
    not_above = [full ^ up for up in lattice.poset.up]
    not_below = [full ^ down for down in lattice.poset.down]
    meets = bytearray([lattice.top])
    joins = bytearray([lattice.bottom])
    for high in range(n):
        meets += meets.translate(bytes(row[high] for row in lattice.meet).ljust(256, b"\0"))
        joins += joins.translate(bytes(row[high] for row in lattice.join).ljust(256, b"\0"))
    # each bound's mask as two translation tables, of its low and high bytes
    checks = [
        (bounds, [bytes(m >> s & 255 for m in masks).ljust(256, b"\0") for s in (0, 8)])
        for bounds, masks in ((meets, not_above), (joins, not_below))
    ]
    block = min(len(meets), 256)
    low = int.from_bytes(bytes(range(block)), "little")
    for start in range(0, len(meets), block):
        high = int.from_bytes(bytes([start >> 8]) * block, "little")
        rows = [(bounds[start : start + block], tables) for bounds, tables in checks]
        if any(
            int.from_bytes(row.translate(low_table), "little") & low
            or int.from_bytes(row.translate(high_table), "little") & high
            for row, (low_table, high_table) in rows
        ):
            break
    else:
        return
    for bits, (m, j) in enumerate(zip(meets, joins)):
        if bits & not_above[m] or bits & not_below[j]:
            raise InvariantViolation("finite lattice lost a bound", bits)


@object_cache
def _embedded_bounds(c: Completion) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The meet of every embedded filter and the join of every embedded
    ideal, in ``all_filters`` and ``all_ideals`` order, folded once per
    completion for both ``is_dense`` and ``is_compact``."""
    C = c.complete
    e = c.embedding
    n = c.base.size
    meets = [C.meet_all(e[a] for a in range(n) if F >> a & 1) for F in all_filters(c.base)]
    joins = [C.join_all(e[a] for a in range(n) if I >> a & 1) for I in all_ideals(c.base)]
    return tuple(meets), tuple(joins)


def is_dense(c: Completion) -> DensityVerdict:
    """Check both density identities for every element of the completion.

    Each element must be the join of the meets of embedded filters below it
    and the meet of the joins of embedded ideals above it; the verdict names
    the first failing element and which side failed.
    """
    C = c.complete
    filter_meets, ideal_joins = _embedded_bounds(c)
    for x in range(C.size):
        join_side = C.join_all(m for m in filter_meets if C.leq_of(m, x))
        if join_side != x:
            return DensityVerdict(False, x, "join")
        meet_side = C.meet_all(j for j in ideal_joins if C.leq_of(x, j))
        if meet_side != x:
            return DensityVerdict(False, x, "meet")
    return DensityVerdict(True)


def is_compact(c: Completion) -> CompactnessVerdict:
    """Whenever an embedded filter meet lies below an embedded ideal join,
    the filter and ideal must intersect."""
    C = c.complete
    filter_meets, ideal_joins = _embedded_bounds(c)
    ideals = all_ideals(c.base)
    for F, fm in zip(all_filters(c.base), filter_meets):
        for I, ij in zip(ideals, ideal_joins):
            if C.leq_of(fm, ij) and not F & I:
                return CompactnessVerdict(False, F, I)
    return CompactnessVerdict(True)


@object_cache
def canonical_extension(algebra: FinBoolAlg) -> Completion:
    """The powerset of the ultrafilter set with the Stone embedding, as a
    validated completion of the algebra's lattice.

    Density and compactness are asserted before returning, so a returned
    extension passes both; a failure would be a library bug and raises
    InvariantViolation with the verdict's witness.
    """
    pow_alg = powerset_algebra(len(ultrafilters(algebra)))
    comp = completion(algebra.lattice, pow_alg.lattice, phi_table(algebra))
    dense = is_dense(comp)
    if not dense.passed:
        raise InvariantViolation("canonical extension is not dense", (dense.element, dense.side))
    compact = is_compact(comp)
    if not compact.passed:
        witness = (compact.filter_members, compact.ideal_members)
        raise InvariantViolation("canonical extension is not compact", witness)
    return comp


def sigma_extend(h: BoolHom) -> tuple[int, ...]:
    """Extend a homomorphism by the filter-quantified join formula, as the
    table of the extension between the powersets of the ultrafilter sets:
    entry A is the image of the point set with bitmask A over the source
    ultrafilter order, itself a bitmask over the target order.

    For every point set A, the image is the union over all filters F of the
    source whose embedded intersection lies inside A of the intersection of
    the embedded h-images of the members of F.  A filter's members are its
    generator and the members of its maximal proper subfilters, so each
    intersection is the generator's entry intersected with those of the
    subfilters, read off the source's filter plan (``_filter_plan``): n *
    2**(n - 1) ANDs for n points rather than one per member, 3**n.  The
    union is a subset zeta transform (Bjorklund, Husfeldt, Kaski & Koivisto,
    "Fourier meets Moebius: fast subset convolution", STOC 2007): each
    filter's image is scattered to the entry of its embedded intersection,
    and then each entry takes the union of the entries of its subsets, one
    point at a time, in O(n * 2**n) steps rather than O(filters * 2**n).
    The table is not checked here: the harness battery judges it
    (``sigma_is_boolean_hom`` implies order preservation, and
    ``sigma_equals_double_dual`` with ``embedded_elements_preserved``
    implies that it extends h), so a wrong table becomes a failed check
    with a witness.
    """
    src, dst = h.source, h.target
    if src.bottom == src.top or dst.bottom == dst.top:
        raise DegenerateAlgebra("extension needs nondegenerate algebras")
    n1 = src.atom_count
    phi1 = phi_table(src)
    phi2 = phi_table(dst)
    image = h.table
    plan = _filter_plan(src)
    inter1s = [0] * len(plan)
    inter2s = [0] * len(plan)
    for k, g, subfilters in plan:
        inter1 = phi1[g]
        inter2 = phi2[image[g]]
        for j in subfilters:
            inter1 &= inter1s[j]
            inter2 &= inter2s[j]
        inter1s[k] = inter1
        inter2s[k] = inter2
    table = [0] * (1 << n1)
    for inter1, inter2 in zip(inter1s, inter2s):
        table[inter1] |= inter2
    for bit in (1 << p for p in range(n1)):
        for A in range(1 << n1):
            if A & bit:
                table[A] |= table[A ^ bit]
    return tuple(table)


@object_cache
def _filter_plan(algebra: FinBoolAlg) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Each filter of ``all_filters`` as (its position, its generator, the
    positions of its maximal proper subfilters), smaller filters first.

    The generator is the member whose up-set is the filter, and the
    maximal proper subfilters are the up-sets of the members that cover it:
    the y with ``up[g] & down[y] == {g, y}``.  One AND per member, read off
    the up and down masks.  A filter that is not the up-set of a member, or
    a cover whose up-set is not listed, is a library bug.
    """
    poset = algebra.lattice.poset
    up, down = poset.up, poset.down
    generator = {m: x for x, m in enumerate(up)}
    filters = all_filters(algebra.lattice)
    position = {m: k for k, m in enumerate(filters)}
    plan = []
    for k, m in enumerate(filters):
        g = generator.get(m)
        if g is None:
            raise InvariantViolation("filter is not the up-set of a member", k)
        covers = [
            position.get(up[y])
            for y in range(algebra.size)
            if m >> y & 1 and y != g and down[y] & m == 1 << g | 1 << y
        ]
        if None in covers:
            raise InvariantViolation("a maximal proper subfilter is not listed", k)
        plan.append((m.bit_count(), k, g, tuple(covers)))
    plan.sort()
    return tuple(entry[1:] for entry in plan)


def completion_isomorphic(c1: Completion, c2: Completion) -> IsoVerdict:
    """Search for a lattice isomorphism commuting with the two embeddings.

    Backtracking over the unmatched elements, pruned by order signatures;
    capped at MAX_ISO_SEARCH (the subset-scan cap) elements.
    """
    if c1.base is not c2.base and c1.base.poset.up != c2.base.poset.up:
        raise ValueError("completions must share the base lattice")
    C1, C2 = c1.complete, c2.complete
    if C1.size != C2.size:
        return IsoVerdict(False)
    if C1.size > MAX_ISO_SEARCH:
        raise BoundExceeded(f"isomorphism search capped at {MAX_ISO_SEARCH}", C1.size)

    n = C1.size
    assign: dict[int, int] = {}
    used: set[int] = set()
    for a in range(c1.base.size):
        x, y = c1.embedding[a], c2.embedding[a]
        if assign.get(x, y) != y:
            return IsoVerdict(False)
        assign[x] = y
        used.add(y)
    if len(used) != len(assign):
        return IsoVerdict(False)

    def signature(lat: FinLattice, x: int) -> tuple[int, int]:
        below = sum(1 for k in range(n) if lat.leq_of(k, x))
        above = sum(1 for k in range(n) if lat.leq_of(x, k))
        return below, above

    sig1 = [signature(C1, x) for x in range(n)]
    sig2 = [signature(C2, y) for y in range(n)]
    free = [x for x in range(n) if x not in assign]

    def consistent(x: int, y: int, partial: dict[int, int]) -> bool:
        for u, v in partial.items():
            if C1.leq_of(x, u) != C2.leq_of(y, v) or C1.leq_of(u, x) != C2.leq_of(v, y):
                return False
        return True

    def preserves_ops(table: dict[int, int]) -> bool:
        for x in range(n):
            for y in range(n):
                if table[C1.meet[x][y]] != C2.meet[table[x]][table[y]]:
                    return False
                if table[C1.join[x][y]] != C2.join[table[x]][table[y]]:
                    return False
        return True

    def backtrack(i: int, partial: dict[int, int], taken: set[int]):
        if i == len(free):
            if preserves_ops(partial):
                return tuple(partial[x] for x in range(n))
            return None
        x = free[i]
        for y in range(n):
            if y in taken or sig1[x] != sig2[y] or not consistent(x, y, partial):
                continue
            partial[x] = y
            taken.add(y)
            found = backtrack(i + 1, partial, taken)
            if found is not None:
                return found
            del partial[x]
            taken.discard(y)
        return None

    witness = backtrack(0, dict(assign), set(used))
    if witness is None:
        return IsoVerdict(False)
    return IsoVerdict(True, witness)


def permuted_completion(c: Completion, perm: Sequence[int]) -> Completion:
    """The same completion with the complete lattice's carrier re-indexed.

    Used to generate dense and compact variants for the uniqueness checks;
    ``perm[i]`` is the new index of old element i.
    """
    if sorted(perm) != list(range(c.complete.size)):
        raise ValueError("not a permutation of the carrier")
    n = c.complete.size
    old = c.complete
    rows = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = old.leq_of(i, j)
    relabeled = fin_lattice(fin_poset(rows))
    emb = tuple(perm[e] for e in c.embedding)
    return completion(c.base, relabeled, emb)
