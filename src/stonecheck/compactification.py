"""The greatest compactification of a finite discrete space, built literally.

For a finite discrete space the compactification collapses: the space is
homeomorphic to itself.  The construction is nevertheless carried out
through the ultrafilter space of the powerset algebra, keeping points as
ultrafilter objects, because the verification harness chases the resulting
diagram extensionally and a shortcut would hide bugs.

Map extensions come in two independently computed flavours: the certified
unique continuous extension (found by exhausting every table that agrees
with the values the embedding forces) and the direct ultrafilter formula
``lift(f)(U) = {B : preimage of B in U}``.  Their agreement is one of the
properties the test suite verifies.  One search, ``_forced_lanes``, serves
the extension certificate, the compactification order and equivalence,
whose witness must also pass ``_is_homeomorphism``, and all three return
the maps the search made, the order and equivalence checks the first
witness map or None when there is none.  ``beta_preserves`` names the
first of one-to-one, onto and bijective that a map has and its lift
lacks, or None.  The search has no cap of its own:
``duality.topology`` caps every space at ``MAX_ATOMS`` points, so it tries
at most ``MAX_ATOMS ** MAX_ATOMS`` tables.

Both flavours work a block at a time, every map of a block in one byte
lane (``duality.ContinuousLanes``), and the per-map functions
(``extension_candidates``, ``beta_extend_to_compact``, ``beta_lift``,
``_forced_tables``) are blocks of one, which they return as they are.
Each table of the search is one block, the values the embedding forces
in each lane and the free points' values shared by all lanes, and
its continuity and the lift's image sets read one block of preimage tables
(``algebra._preimage_lanes``) instead of summing a preimage per open set
or per ultrafilter; the target space is validated once per space.  No
table is built twice and no continuity is tested twice: the search yields
each block that passes ``duality._continuous`` in some lane as a
``ContinuousLanes`` that keeps the preimage tables it was tested on, with
the lanes it passed in, ``sole_extension`` returns the first of those
blocks as it is, the lift reads the block's preimage tables, and the
lift's entries are point indices, so only its continuity is tested.  The
lift reads each image set of every lane as a byte row, the preimage
tables translated through a point's indicator, and looks it up among the
target's point rows (``BetaSpace.indicators`` and ``point_rows``, plain
fields built from the space's own points).  How many tables the search
found in each lane is judged by its caller: ``beta_extend_to_compact``
raises on two or more, and the harness battery reports them as a failed
check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .algebra import (
    UltraFilter,
    _preimage_lanes,
    _preimage_table,
    powerset_algebra,
    ultrafilters,
)
from .duality import (
    ContinuousLanes,
    FinStoneSpace,
    _checked_lanes,
    _continuous,
    closure_mask,
    discrete_space,
    dual_space,
    topology,
    ultrafilter_rows,
    validate_stone,
)
from .errors import (
    EmptySpace,
    ImageNotDense,
    InvariantViolation,
    NoExtension,
    NotAnEmbedding,
)


class Compactification:
    """A dense homeomorphic embedding of a discrete base into a Stone space.

    The raw constructor performs no validation (tests use it to build
    deliberately broken instances); ``build_compactification`` validates.
    """

    __slots__ = ("base", "space", "embed", "__weakref__")

    def __init__(self, base: FinStoneSpace, space: FinStoneSpace, embed: tuple[int, ...]) -> None:
        self.base = base
        self.space = space
        self.embed = embed


class BetaSpace:
    """The powerset-dual compactification whose points are ultrafilters.

    The compactification's base, space and embedding are its fields, and
    the rows and indicators of the points (``ultrafilter_rows``) plain
    fields set when the space is made, with two read by the battery: the
    member rows of all the points over the subset masks, one after
    another, and ``holders``, a 256-byte ``bytes.translate`` table whose
    byte m has bit k set when point k's ultrafilter holds the subset m.
    """

    __slots__ = (
        "base", "space", "embed", "points_as_ultrafilters", "point_rows", "indicators",
        "member_rows", "holders", "__weakref__",
    )

    def __init__(
        self,
        base: FinStoneSpace,
        space: FinStoneSpace,
        embed: tuple[int, ...],
        points_as_ultrafilters: tuple[UltraFilter, ...],
    ) -> None:
        self.base = base
        self.space = space
        self.embed = embed
        self.points_as_ultrafilters = points_as_ultrafilters
        self.point_rows, self.indicators = ultrafilter_rows(points_as_ultrafilters)
        self.member_rows = b"".join([indicator[: 1 << base.size] for indicator in self.indicators])
        holders = sum(int.from_bytes(ind, "little") << k for k, ind in enumerate(self.indicators))
        self.holders = holders.to_bytes(256, "little")


def build_compactification(
    base: FinStoneSpace, space: FinStoneSpace, embed: Sequence[int]
) -> Compactification:
    """Validate injectivity, homeomorphic embedding, and density of the image.

    Density is checked by an actual closure computation in the generated
    topology, not inferred from surjectivity.
    """
    validate_stone(base)
    validate_stone(space)
    e = tuple(int(x) for x in embed)
    if len(e) != base.size or any(not 0 <= v < space.size for v in e):
        raise ValueError("embedding must map base points into the space")
    if len(set(e)) != len(e):
        raise NotAnEmbedding("embedding is not injective", e)
    image = sum(1 << v for v in e)
    opens = topology(space)
    for v in e:
        # Homeomorphism onto the image: each image point must be isolated
        # in the subspace topology, since the base is discrete.
        if not any(o >> v & 1 and o & image == 1 << v for o in opens):
            raise NotAnEmbedding("image subspace is not discrete at a point", v)
    if closure_mask(space, image) != (1 << space.size) - 1:
        raise ImageNotDense("closure of the embedded image is not the whole space")
    return Compactification(base, space, e)


def beta_space(points: tuple) -> BetaSpace:
    """The dual Stone space of the powerset algebra over the given points.

    The embedding sends a point to the ultrafilter of all subsets containing
    it; that description, as a member mask over the subset masks, is
    checked literally against the members of each embedded ultrafilter.
    """
    if len(points) == 0:
        raise EmptySpace("cannot compactify the empty point set")
    n = len(points)
    pow_alg = powerset_algebra(n)
    space = dual_space(pow_alg)
    ufs = ultrafilters(pow_alg)
    embed = []
    for i in range(n):
        expected = sum(1 << m for m in range(1 << n) if m >> i & 1)
        hits = [k for k, u in enumerate(ufs) if u.members == expected]
        if len(hits) != 1:
            raise InvariantViolation("point has no unique principal ultrafilter", i)
        embed.append(hits[0])
    comp = build_compactification(discrete_space(points), space, embed)
    return BetaSpace(comp.base, comp.space, comp.embed, ufs)


def _forced_tables(
    space: FinStoneSpace, target: FinStoneSpace, forced: Iterable[tuple[int, int]]
) -> Iterator[ContinuousLanes]:
    """The map of every continuous table from space to target taking the
    forced values, with the preimage table its continuity was tested on:
    ``_forced_lanes`` for a block of one table."""
    forced = [(point, bytes([value if 0 <= value < 256 else 255])) for point, value in forced]
    for found, _ in _forced_lanes(space, target, forced, 1):
        yield found


def _forced_lanes(
    space: FinStoneSpace, target: FinStoneSpace, forced: Sequence[tuple[int, bytes]], lanes: int
) -> Iterator[tuple[ContinuousLanes, int]]:
    """Every table from space to target that takes the forced values, as a
    block of one table per lane, with the lanes in which it is continuous.

    ``forced`` lists (point, values) pairs, the value of lane j at byte j.
    Only the points they leave free are enumerated, the same for every
    lane, so the tables come out in the lexicographic order of the full
    table space.  A lane with a forced value outside the target, or with
    two different values forced on one point, takes no table.  Each block
    is yielded with the int whose byte j is 1 when lane j takes it, unless
    no lane does; continuity is tested lane by lane only when the block's
    one test fails.
    """
    n = target.size
    inside, clamped = b"\1" * n + bytes(256 - n), bytes(range(n)) + bytes(256 - n)
    table = [bytes(lanes)] * space.size
    fixed = [False] * space.size
    kept = int.from_bytes(b"\1" * lanes, "little")
    for point, values in forced:
        kept &= int.from_bytes(values.translate(inside), "little")
        if fixed[point]:
            differ = int.from_bytes(table[point], "little") ^ int.from_bytes(values, "little")
            kept &= int.from_bytes(differ.to_bytes(lanes, "little").translate(_ZERO), "little")
        else:
            table[point] = values.translate(clamped)
            fixed[point] = True
    if not kept:
        return
    free = [s for s in range(space.size) if not fixed[s]]
    size = 1 << n
    for values in itertools.product(range(n), repeat=len(free)):
        for s, v in zip(free, values):
            table[s] = bytes([v]) * lanes
        cells = b"".join(table)
        pre = _preimage_lanes(cells, lanes, n)
        if _continuous(space, target, pre):
            passed = kept
        elif lanes == 1:
            continue
        else:
            runs = [pre[j * size : j * size + size] for j in range(lanes)]
            passed = kept & int.from_bytes(
                bytes([_continuous(space, target, run) for run in runs]), "little"
            )
        if passed:
            yield ContinuousLanes(space, target, cells, pre, lanes), passed


# byte 0 to 1 and every other byte to 0
_ZERO = b"\1" + bytes(255)


def extension_candidates(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> list[ContinuousLanes]:
    """The continuous maps g with g(embed(x)) = f(x), in the lexicographic
    order of their tables; used for certification.  The block of one map
    of ``extension_candidates_lanes``, f given as a table of ints: a block
    is found only when its one lane extends f."""
    validate_stone(target)
    ft = tuple(map(int, f))
    if len(ft) != bx.base.size or ft and (min(ft) < 0 or max(ft) >= target.size):
        raise ValueError("map must send base points into the target")
    return [found for found, _ in extension_candidates_lanes(bx, bytes(ft), target, 1)]


def extension_candidates_lanes(
    bx: BetaSpace, f: bytes, target: FinStoneSpace, lanes: int
) -> list[tuple[ContinuousLanes, int]]:
    """The continuous extensions of a block of maps from bx's base points to
    target, the value of base point x in lane j at byte ``x * lanes + j``:
    every block of ``_forced_lanes`` that takes the values f forces on the
    embedded points, with the lanes it extends."""
    validate_stone(target)
    if len(f) != bx.base.size * lanes or f and max(f) >= target.size:
        raise ValueError("map must send base points into the target")
    forced = [(e, f[x * lanes : x * lanes + lanes]) for x, e in enumerate(bx.embed)]
    return list(_forced_lanes(bx.space, target, forced, lanes))


def beta_extend_to_compact(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> ContinuousLanes:
    """The unique continuous extension of f along the compactification embedding.

    Uniqueness is certified by exhausting every table that agrees with f on
    the embedded points; zero or multiple matches signal an invariant bug,
    never bad user input.
    """
    candidates = extension_candidates(bx, f, target)
    if len(candidates) > 1:
        raise InvariantViolation("continuous extension is not unique", len(candidates))
    if not candidates:
        raise NoExtension("no continuous extension satisfies the equation")
    return candidates[0]


def sole_extension(candidates: Sequence[tuple[ContinuousLanes, int]]) -> ContinuousLanes:
    """The first block ``extension_candidates_lanes`` found, when it extends
    every lane.

    Raises NoExtension when there is none, or when the first leaves a lane
    out (which then has none, or finds its first at a later table: run
    alone, each hom gets its own first).  How many each lane found is for
    the caller to judge (the battery's ``unique_continuous_extension``
    check).
    """
    if not candidates or candidates[0][1] != int.from_bytes(
        b"\1" * candidates[0][0].lanes, "little"
    ):
        raise NoExtension("no continuous extension satisfies the equation")
    return candidates[0][0]


def beta_lift(f: Sequence[int], bx: BetaSpace, by: BetaSpace) -> ContinuousLanes:
    """Lift a map between discrete point sets via the ultrafilter formula:
    ``beta_lift_lanes`` for a block of one map.  The preimage of every B is
    read from one table."""
    ft = tuple(map(int, f))
    if len(ft) != bx.base.size or min(ft) < 0 or max(ft) >= by.base.size:
        raise ValueError("map must send base points into the target base")
    return _lift_lanes(bytes(_preimage_table(ft, by.base.size)), 1, bx, by)


def beta_lift_lanes(f: ContinuousLanes, bx: BetaSpace, by: BetaSpace) -> ContinuousLanes:
    """The ultrafilter-formula lift of every lane of a block of continuous
    maps from bx's base points to by's, read off the block's preimages."""
    if f.source.size != bx.base.size or f.target.size != by.base.size:
        raise ValueError("map must send base points into the target base")
    return _lift_lanes(f.preimages, f.lanes, bx, by)


def _lift_lanes(pre: bytes, lanes: int, bx: BetaSpace, by: BetaSpace) -> ContinuousLanes:
    """The image of an ultrafilter U is {B : preimage of B in U}, located
    among the points of the target compactification.  The preimage tables
    of the lanes, one run per lane, translated through the indicator of U
    are the membership rows of the images of U in every lane, each looked
    up among the target's ``point_rows``."""
    index = by.point_rows
    size = 1 << by.base.size
    rows = [slice(start, start + size) for start in range(0, len(pre), size)]
    table = []
    for indicator in bx.indicators:
        members = pre.translate(indicator)
        table += map(index.get, map(members.__getitem__, rows))
    if None in table:
        k = table.index(None)
        row = pre.translate(bx.indicators[k // lanes])[rows[k % lanes]]
        image_members = frozenset(mb for mb, inside in enumerate(row) if inside)
        raise InvariantViolation("lifted set is not an ultrafilter", image_members)
    return _checked_lanes(bx.space, by.space, bytes(table), lanes)


def _comparable(c1: Compactification, c2: Compactification) -> None:
    """Both share the base point set, and both spaces are within the point
    cap (``topology``), before any table of the search is built."""
    if c1.base.points != c2.base.points:
        raise ValueError("compactifications must share the base point set")
    topology(c1.space), topology(c2.space)


def compactification_leq(c1: Compactification, c2: Compactification) -> ContinuousLanes | None:
    """The map that exhibits c2 <= c1 in the compactification order, or None.

    Searches the maps from c1's space to c2's that satisfy
    f(c1.embed(x)) = c2.embed(x) for a continuous one, the first in
    lexicographic order.
    """
    _comparable(c1, c2)
    forced = [(c1.embed[i], c2.embed[i]) for i in range(c1.base.size)]
    return next(_forced_tables(c1.space, c2.space, forced), None)


def compactification_equivalent(
    c1: Compactification, c2: Compactification
) -> ContinuousLanes | None:
    """As the order check but requiring a homeomorphism witness: the first
    table of the same search that is a bijection with a continuous inverse."""
    _comparable(c1, c2)
    if c1.space.size != c2.space.size:
        return None
    for f in _forced_tables(c1.space, c2.space, zip(c1.embed, c2.embed)):
        if _is_homeomorphism(c1.space, c2.space, f.table):
            return f
    return None


def _is_homeomorphism(space: FinStoneSpace, target: FinStoneSpace, table: Sequence[int]) -> bool:
    """Whether a continuous table from space to target is a bijection whose
    inverse is continuous too."""
    if sorted(table) != list(range(target.size)):
        return False
    inverse = [0] * target.size
    for s, v in enumerate(table):
        inverse[v] = s
    return _continuous(target, space, _preimage_table(inverse, space.size))


def beta_preserves(f: Sequence[int], bx: BetaSpace, by: BetaSpace) -> str | None:
    """The first of "one-to-one", "onto" and "bijective" that f has and its
    lift lacks, or None when the lift keeps all three.

    For a bijective f the lift must moreover be a homeomorphism (continuous
    inverse).
    """
    ft = tuple(int(x) for x in f)
    injective = len(set(ft)) == len(ft)
    surjective = set(ft) == set(range(by.base.size))
    lifted = beta_lift(ft, bx, by).table
    if injective and len(set(lifted)) != len(lifted):
        return "one-to-one"
    if surjective and set(lifted) != set(range(by.space.size)):
        return "onto"
    if injective and surjective and not _is_homeomorphism(bx.space, by.space, lifted):
        return "bijective"
    return None
