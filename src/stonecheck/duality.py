"""Finite Stone spaces and the contravariant functors to and from Boolean algebras.

Spaces keep an explicit generating family rather than hard-coding
discreteness: the topology is genuinely generated from the base, the
Hausdorff property is verified from it, and inputs whose generated topology
fails to separate points are rejected.  Every point set is a bitmask over
the point indices: the base sets of a space, its opens, and the Stone
embeddings ``phi_table`` and ``hat_phi_table``.

Points of dual spaces are the ultrafilter values themselves, so that the
double-dual constructions can be manipulated extensionally.

Maps are checked a block at a time: a ``ContinuousLanes`` holds the point
tables of one source and one target space, one per byte lane, entry s of
lane j at byte ``s * lanes + j``, with the preimage of every target point
set under every lane (``algebra._preimage_lanes``), one run of bytes per
lane, built once per block and kept as its ``preimages``, a field set when
the block is made.  Continuity is then one test of the whole block,
``_continuous``, against the set of opens (``open_set``, once per space),
and every later preimage is a lookup; a single map is a block of one
lane, so ``continuous_map`` and ``dual_map`` return one.  Each block is
validated once:
``continuous_map`` checks a table's entries and ``_checked_lanes`` the
continuity of every lane, which is all that tables built from index
lookups of valid points need, and the extension search makes the block of
each table it has tested itself.  A space's point count is a field.  Each
space is validated once (``validate_stone`` is cached on the space).  The
opens stay behind ``topology`` and ``open_set``, which a space above the
point cap reaches only to raise, rather than in fields of every space
made.  The Stone embedding is one table per algebra (``phi_table``), which
the hot loops read directly, and the Stone representation is its table
into the clopens of the dual space; the double-dual embedding
(``hat_phi_table``) is built once per algebra, with its inverse, by the
harness's record of the algebra.
``dual_map_lanes`` finds the preimages of an ultrafilter under every hom of
a block as one byte row per hom: the block's image tables, one run per
hom, translated through the ultrafilter's indicator, each run looked up
among the source's ultrafilter rows, which ``ultrafilter_rows`` builds with
the indicators, once per algebra (``_ultrafilter_rows``); ``dual_map`` is
its block of one.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    MAX_ATOMS,
    BoolHom,
    FinBoolAlg,
    UltraFilter,
    _preimage_lanes,
    boolean_algebra_of_up_sets,
    object_cache,
    powerset_algebra,
    ultrafilters,
    validate_hom,
)
from .errors import BoundExceeded, InvariantViolation, NotContinuous, NotStone, StonecheckError


class FinStoneSpace:
    """A finite point set with a distinguished generating family of subsets,
    each a bitmask over the point indices."""

    __slots__ = ("points", "base", "size", "_cache", "__weakref__")

    def __init__(self, points: tuple, base: tuple[int, ...]) -> None:
        self.points = points
        self.base = base
        self.size = len(points)
        self._cache = {}


def discrete_space(points: Sequence) -> FinStoneSpace:
    """The discrete space on the given points: base = all singletons."""
    pts = tuple(points)
    return FinStoneSpace(pts, tuple(1 << i for i in range(len(pts))))


@object_cache
def topology(space: FinStoneSpace) -> tuple[int, ...]:
    """All opens generated by the base, as a sorted tuple of point masks.

    The family is treated as a subbase: close under pairwise intersection
    (the empty intersection contributes the whole space), then under
    pairwise union (the empty union contributes the empty set).  A space of
    more than ``MAX_ATOMS`` points raises BoundExceeded before any open is
    generated; every use of a space's opens comes through here.
    """
    if space.size > MAX_ATOMS:
        raise BoundExceeded(f"Stone spaces capped at {MAX_ATOMS} points", space.size)
    full = (1 << space.size) - 1
    inters = {full}
    inters.update(space.base)
    while True:
        new = {a & b for a in inters for b in inters} - inters
        if not new:
            break
        inters |= new
    opens = {0} | inters
    while True:
        new = {a | b for a in opens for b in opens} - opens
        if not new:
            break
        opens |= new
    return tuple(sorted(opens))


@object_cache
def open_set(space: FinStoneSpace) -> frozenset[int]:
    """The opens of ``topology`` as one set, for membership tests."""
    return frozenset(topology(space))


def closure_mask(space: FinStoneSpace, mask: int) -> int:
    """Smallest closed superset: drop every open disjoint from the set."""
    full = (1 << space.size) - 1
    avoid = 0
    for o in topology(space):
        if o & mask == 0:
            avoid |= o
    return full & ~avoid


@object_cache
def validate_stone(space: FinStoneSpace) -> tuple[int, ...]:
    """Verify the generated topology is Hausdorff and return it.

    Cached on the space, so that each space is validated once however many
    searches use it; a space that fails raises again on every call, and one
    above the point cap raises from ``topology``.  Finite spaces are
    automatically compact, and a finite Hausdorff space is discrete (hence
    zero-dimensional); discreteness is asserted as an internal consistency
    check after the pairwise separation test.
    """
    opens = topology(space)
    for i in range(space.size):
        for j in range(i + 1, space.size):
            if not any(
                o1 >> i & 1 and o2 >> j & 1 and o1 & o2 == 0
                for o1 in opens
                for o2 in opens
            ):
                raise NotStone(
                    "points are not separated by disjoint opens",
                    (space.points[i], space.points[j]),
                )
    if len(opens) != 1 << space.size:
        raise InvariantViolation("finite Hausdorff space must be discrete")
    return opens


class ContinuousLanes:
    """A block of point tables from one source space to one target space,
    each validated so that preimages of opens are open, one per lane: entry
    s of lane j is byte ``s * lanes + j`` of ``table``, and the preimage of
    target mask m under lane j is byte ``j * 2**target.size + m`` of
    ``preimages``.  A block of one lane is a single map."""

    __slots__ = ("source", "target", "table", "preimages", "lanes", "__weakref__")

    def __init__(
        self,
        source: FinStoneSpace,
        target: FinStoneSpace,
        table: bytes,
        preimages: bytes,
        lanes: int,
    ) -> None:
        self.source = source
        self.target = target
        self.table = table
        self.preimages = preimages
        self.lanes = lanes


def continuous_map(
    source: FinStoneSpace, target: FinStoneSpace, table: Sequence[int]
) -> ContinuousLanes:
    t = tuple(map(int, table))
    if len(t) != source.size or t and (min(t) < 0 or max(t) >= target.size):
        raise ValueError("table must map source points to target points")
    return _checked_lanes(source, target, bytes(t), 1)


def _continuous(source: FinStoneSpace, target: FinStoneSpace, pre: Sequence[int]) -> bool:
    """Whether the preimage tables ``pre``, one run of ``2**target.size``
    entries per lane, send every open of the target to an open of the
    source, in every lane.  When every mask is an open, every entry is
    tested at once."""
    opens = topology(target)
    size = 1 << target.size
    tested = pre if len(opens) == size else b"".join([bytes(pre[o::size]) for o in opens])
    return open_set(source).issuperset(tested)


def _checked_lanes(
    source: FinStoneSpace, target: FinStoneSpace, table: bytes, lanes: int
) -> ContinuousLanes:
    """The block of a table whose entries are target points, once every
    open's preimage is open in every lane (a scan names the first open that
    fails in some lane).  The entries are not checked again: callers build
    them from point indices, or ``continuous_map`` checks them."""
    pre = _preimage_lanes(table, lanes, target.size)
    if not _continuous(source, target, pre):
        source_opens, size = open_set(source), 1 << target.size
        o = next(o for o in topology(target) if not source_opens.issuperset(pre[o::size]))
        raise NotContinuous("preimage of an open set is not open", o)
    return ContinuousLanes(source, target, table, pre, lanes)


def compose_continuous(outer: ContinuousLanes, inner: ContinuousLanes) -> ContinuousLanes:
    if inner.target is not outer.source:
        raise ValueError("maps do not compose")
    return continuous_map(
        inner.source, outer.target, tuple(outer.table[v] for v in inner.table)
    )


def phi_mask(algebra: FinBoolAlg, a: int) -> int:
    """The Stone embedding of a, the set of ultrafilters containing a, as a
    bitmask over the canonical ultrafilter order: one entry of
    ``phi_table``."""
    return phi_table(algebra)[a]


@object_cache
def phi_table(algebra: FinBoolAlg) -> tuple[int, ...]:
    """The Stone embedding of every element as a bitmask over the canonical
    ultrafilter order, indexed by the element.  Callers that read many
    entries read this table once; it is shared, so never mutated."""
    ufs = ultrafilters(algebra)
    return tuple(
        sum(1 << i for i, u in enumerate(ufs) if u.members >> a & 1) for a in range(algebra.size)
    )


@object_cache
def dual_space(algebra: FinBoolAlg) -> FinStoneSpace:
    """The ultrafilter space with base {phi(a) : a in the carrier}, validated."""
    ufs = ultrafilters(algebra)
    # phi_table's masks, not read from it: the two paths share no helper (audit)
    base = tuple(
        sum(1 << i for i, u in enumerate(ufs) if u.members >> a & 1) for a in range(algebra.size)
    )
    space = FinStoneSpace(ufs, base)
    validate_stone(space)
    return space


def ultrafilter_rows(ufs: Sequence[UltraFilter]) -> tuple[dict[bytes, int], tuple[bytes, ...]]:
    """The position of each ultrafilter, keyed by its membership row, and the
    ultrafilters' indicators in order.  An indicator is a 256-byte
    ``bytes.translate`` table, 1 at each member: translating a row of
    elements through it marks which lie in the ultrafilter, and its first
    ``algebra.size`` bytes are the membership row."""
    indicators = [
        bytes([u.members >> a & 1 for a in range(u.algebra.size)]).ljust(256, b"\0") for u in ufs
    ]
    rows = {ind[: u.algebra.size]: k for k, (u, ind) in enumerate(zip(ufs, indicators))}
    return rows, tuple(indicators)


@object_cache
def _ultrafilter_rows(algebra: FinBoolAlg) -> tuple[dict[bytes, int], tuple[bytes, ...]]:
    """``ultrafilter_rows`` of the algebra's ultrafilters, once per algebra."""
    return ultrafilter_rows(ultrafilters(algebra))


def dual_map(hom: BoolHom) -> ContinuousLanes:
    """The continuous map Uf(target) -> Uf(source), v -> preimage of v under
    h: ``dual_map_lanes`` for a block of one hom."""
    return dual_map_lanes([hom])


def dual_map_lanes(homs: Sequence[BoolHom]) -> ContinuousLanes:
    """The dual maps of a block of homs with one source and one target, one
    lane per hom, in order.

    Each preimage is checked to be an ultrafilter of the source algebra.
    The image tables of the block are one run of bytes per hom; translated
    through the indicator of v, they are the membership rows of every hom's
    preimage of v, each looked up among the source's ultrafilter rows.  The
    entries are those positions, so only continuity is tested.  A preimage
    that is not an ultrafilter is named by its members, read off its row:
    the first in the order of v, then of the homs.
    """
    hom = homs[0]
    src_space = dual_space(hom.target)
    dst_space = dual_space(hom.source)
    index = _ultrafilter_rows(hom.source)[0]
    indicators = _ultrafilter_rows(hom.target)[1]
    size, lanes = hom.source.size, len(homs)
    images = b"".join([bytes(h.table) for h in homs])
    rows = [slice(start, start + size) for start in range(0, len(images), size)]
    table = []
    for v in indicators:
        members = images.translate(v)
        table += map(index.get, map(members.__getitem__, rows))
    if None in table:
        k = table.index(None)
        row = images.translate(indicators[k // lanes])[rows[k % lanes]]
        members = frozenset(a for a, inside in enumerate(row) if inside)
        raise InvariantViolation("hom preimage of an ultrafilter is not one", members)
    return _checked_lanes(src_space, dst_space, bytes(table), lanes)


class ClopenAlgebra:
    """The Boolean algebra of clopen sets of a space, ordered by inclusion:
    element k is the clopen with point mask ``clopen_masks[k]``."""

    __slots__ = ("algebra", "clopen_masks", "__weakref__")

    def __init__(self, algebra: FinBoolAlg, clopen_masks: tuple[int, ...]) -> None:
        self.algebra = algebra
        self.clopen_masks = clopen_masks


@object_cache
def clopen_algebra(space: FinStoneSpace) -> ClopenAlgebra:
    """Compute the clopen family from the generated topology and package it."""
    validate_stone(space)
    opens = open_set(space)
    full = (1 << space.size) - 1
    clopens = sorted(o for o in opens if (full & ~o) in opens)
    n = len(clopens)
    up = [sum(1 << j for j in range(n) if c & ~clopens[j] == 0) for c in clopens]
    comp = tuple(clopens.index(full & ~c) for c in clopens)
    algebra = boolean_algebra_of_up_sets(up, comp)
    return ClopenAlgebra(algebra, tuple(clopens))


def dual_of_continuous(f: ContinuousLanes) -> BoolHom:
    """The homomorphism Clop(target) -> Clop(source), U -> preimage of U."""
    src_clop = clopen_algebra(f.target)
    dst_clop = clopen_algebra(f.source)
    table = [dst_clop.clopen_masks.index(f.preimages[m]) for m in src_clop.clopen_masks]
    return validate_hom(table, src_clop.algebra, dst_clop.algebra)


def stone_representation(algebra: FinBoolAlg) -> tuple[int, ...]:
    """Certify a -> phi(a) as a bijective homomorphism onto Clop(dual space)
    and return its table: entry a is the index of phi(a) among the clopens.

    The laws are checked by ``validate_hom``.  A failure here cannot come
    from user input; it would be a library bug, so it raises
    InvariantViolation, naming the first element whose phi mask is not a
    clopen, if any.
    """
    clop = clopen_algebra(dual_space(algebra))
    index = {m: k for k, m in enumerate(clop.clopen_masks)}
    table = tuple(map(index.get, phi_table(algebra)))
    if None in table:
        raise InvariantViolation("phi of an element is not a clopen", table.index(None))
    if len(set(table)) != algebra.size or algebra.size != clop.algebra.size:
        raise InvariantViolation("representation is not bijective")
    try:
        validate_hom(table, algebra, clop.algebra)
    except StonecheckError as exc:
        witness = (type(exc).__name__, exc.witness)
        raise InvariantViolation("representation is not a homomorphism", witness) from exc
    return table


def hat_phi_point_mask(algebra: FinBoolAlg, subset_mask: int) -> int:
    """The double-dual embedding hat_phi: the ultrafilters of P(Uf(B)) that
    hold a set of ultrafilters, with both the set and the points as bitmasks.

    Computed literally over ultrafilter-of-powerset objects: membership of
    the subset is tested in each ultrafilter of the powerset algebra, whose
    element index is the subset mask.
    """
    n = len(ultrafilters(algebra))
    return sum(
        1 << k
        for k, nabla in enumerate(ultrafilters(powerset_algebra(n)))
        if nabla.members >> subset_mask & 1
    )


def hat_phi_table(algebra: FinBoolAlg) -> tuple[int, ...]:
    """hat_phi_point_mask of every subset mask, indexed by the mask.  Not
    cached: its one caller, ``harness._diagram_side``, is."""
    n = len(ultrafilters(algebra))
    return tuple(hat_phi_point_mask(algebra, a) for a in range(1 << n))

