"""Completions of finite lattices and the canonical extension of maps.

A completion pairs a complete lattice with a validated lattice embedding.
The density and compactness tests each return their first witness, or
None when they pass, and quantify over the extensional filter and
ideal enumerations, each filter and ideal a member bitmask, implementing
the defining identities literally; both read the embedded filter meets and
ideal joins, folded once per completion (``_embedded_bounds``, cached on
it).  The canonical extension of a Boolean algebra is the completion of
its lattice by the powerset of its ultrafilter set with the Stone
embedding, returned once it has passed both tests, and the extension of a
map is its table, computed by the filter-quantified join formula --
deliberately not by the dual-map shortcut, which lives in the verification
harness as the independent path the formula is checked against.  Two
completions are compared by the one map their embeddings force
(``completion_isomorphic``), since a dense completion of a finite lattice
is onto.

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

import itertools
from typing import Sequence

from .algebra import (
    # perfbench/worker.py imports the subset-scan cap under this name
    MAX_BRUTE_FORCE_CARRIER as MAX_ISO_SEARCH,
    BoolHom,
    FinBoolAlg,
    FinLattice,
    all_filters,
    all_ideals,
    fin_lattice,
    object_cache,
    poset_of_up_sets,
    powerset_algebra,
    ultrafilters,
)
from .duality import phi_table
from .errors import DegenerateAlgebra, InvariantViolation, NotAnEmbedding


class Completion:
    """A complete finite lattice together with an embedding of the base."""

    __slots__ = ("base", "complete", "embedding", "_cache", "__weakref__")

    def __init__(self, base: FinLattice, complete: FinLattice, embedding: tuple[int, ...]) -> None:
        self.base = base
        self.complete = complete
        self.embedding = embedding
        self._cache = {}


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


def is_dense(c: Completion) -> tuple[int, str] | None:
    """Check both density identities for every element of the completion.

    Each element must be the join of the meets of embedded filters below it
    and the meet of the joins of embedded ideals above it; the witness is
    the first failing element and which side failed, None when all hold.
    """
    C = c.complete
    filter_meets, ideal_joins = _embedded_bounds(c)
    for x in range(C.size):
        join_side = C.join_all(m for m in filter_meets if C.leq_of(m, x))
        if join_side != x:
            return x, "join"
        meet_side = C.meet_all(j for j in ideal_joins if C.leq_of(x, j))
        if meet_side != x:
            return x, "meet"
    return None


def is_compact(c: Completion) -> tuple[int, int] | None:
    """Whenever an embedded filter meet lies below an embedded ideal join,
    the filter and ideal must intersect.  The witness is the first disjoint
    pair that breaks this, as (filter mask, ideal mask); None when none does."""
    C = c.complete
    filter_meets, ideal_joins = _embedded_bounds(c)
    ideals = all_ideals(c.base)
    for F, fm in zip(all_filters(c.base), filter_meets):
        for I, ij in zip(ideals, ideal_joins):
            if C.leq_of(fm, ij) and not F & I:
                return F, I
    return None


@object_cache
def canonical_extension(algebra: FinBoolAlg) -> Completion:
    """The powerset of the ultrafilter set with the Stone embedding, as a
    validated completion of the algebra's lattice.

    Density and compactness are asserted before returning, so a returned
    extension passes both; a failure would be a library bug and raises
    InvariantViolation with the check's witness.
    """
    pow_alg = powerset_algebra(len(ultrafilters(algebra)))
    comp = completion(algebra.lattice, pow_alg.lattice, phi_table(algebra))
    witness = is_dense(comp)
    if witness is not None:
        raise InvariantViolation("canonical extension is not dense", witness)
    witness = is_compact(comp)
    if witness is not None:
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


def completion_isomorphic(c1: Completion, c2: Completion) -> tuple[int, ...] | None:
    """The lattice isomorphism from c1 to c2 that commutes with the two
    embeddings, as its table, or None when there is none.

    A dense completion of a finite lattice has an onto embedding: each
    element is the join of the embedded elements below it, and the
    embedding preserves finite joins.  So the only candidate is the forced
    map x -> e2(e1^-1(x)), and it is an isomorphism exactly when it is a
    bijection that preserves and reflects the order.  Raises ValueError
    when c1's embedding is not onto.
    """
    if c1.base is not c2.base and c1.base.poset.up != c2.base.poset.up:
        raise ValueError("completions must share the base lattice")
    C1, C2 = c1.complete, c2.complete
    if set(c1.embedding) != set(range(C1.size)):
        raise ValueError("the first completion's embedding is not onto")
    if C1.size != C2.size:
        return None
    table = [0] * C1.size
    for x, y in zip(c1.embedding, c2.embedding):
        table[x] = y
    pairs = itertools.product(range(C1.size), repeat=2)
    if all(C1.leq_of(x, y) == C2.leq_of(table[x], table[y]) for x, y in pairs):
        return tuple(table)
    return None


def permuted_completion(c: Completion, perm: Sequence[int]) -> Completion:
    """The same completion with the complete lattice's carrier re-indexed.

    Used to generate dense and compact variants for the uniqueness checks;
    ``perm[i]`` is the new index of old element i.
    """
    if sorted(perm) != list(range(c.complete.size)):
        raise ValueError("not a permutation of the carrier")
    n = c.complete.size
    up = [0] * n
    for i, mask in enumerate(c.complete.poset.up):
        up[perm[i]] = sum(1 << perm[j] for j in range(n) if mask >> j & 1)
    relabeled = fin_lattice(poset_of_up_sets(up))
    emb = tuple(perm[e] for e in c.embedding)
    return completion(c.base, relabeled, emb)
