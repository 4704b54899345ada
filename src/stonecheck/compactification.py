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
properties the test suite verifies.  One search, ``_forced_tables``, serves
the extension certificate, the compactification order and equivalence,
whose witness must also pass ``_is_homeomorphism``, and all three return
the maps the search made, the order and equivalence checks the first
witness map or None when there is none.  ``beta_preserves`` names the
first of one-to-one, onto and bijective that a map has and its lift
lacks, or None.  The search has no cap of its own:
``duality.topology`` caps every space at ``MAX_ATOMS`` points, so it tries
at most ``MAX_ATOMS ** MAX_ATOMS`` tables.

Both flavours work a table at a time: each candidate's continuity and the
lift's image sets read one preimage table of the point map
(``algebra._preimage_table``) instead of summing a preimage per open set or
per ultrafilter, and the target space is validated once per space.  No
table is built twice and no continuity is tested twice: the search yields
each table that passes ``duality._continuous`` as a ``ContinuousMap`` that
keeps the preimage table it was tested on, ``sole_extension`` returns the
first of those maps as it is, the lift of a ``ContinuousMap`` reads the
map's preimage table, and the lift's entries are point indices, so only its
continuity is tested.  The lift reads each image set as a byte row, that
preimage table translated through a point's indicator, and looks it up
among the target's point rows (``BetaSpace.indicators`` and ``point_rows``,
plain fields built from the space's own points).  How many tables the search found
is judged by its caller: ``beta_extend_to_compact`` raises on two or more,
and the harness battery reports them as a failed check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .algebra import (
    UltraFilter,
    _preimage_table,
    powerset_algebra,
    ultrafilters,
)
from .duality import (
    ContinuousMap,
    FinStoneSpace,
    _checked_map,
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
    fields set when the space is made.
    """

    __slots__ = (
        "base", "space", "embed", "points_as_ultrafilters", "point_rows", "indicators",
        "members", "__weakref__",
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
        rows = [indicator[: 1 << base.size] for indicator in self.indicators]
        self.members = int.from_bytes(b"".join(rows), "big")


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
) -> Iterator[ContinuousMap]:
    """The map of every continuous table from space to target taking the
    forced values, with the preimage table its continuity was tested on.

    ``forced`` lists (point, value) pairs.  Only the points they leave free
    are enumerated, so the tables come out in the lexicographic order of the
    full table space.  A forced value outside the target, or two different
    values forced on one point, leave no table.
    """
    table = [0] * space.size
    fixed = [False] * space.size
    for point, value in forced:
        if not 0 <= value < target.size or fixed[point] and table[point] != value:
            return
        table[point] = value
        fixed[point] = True
    free = [s for s in range(space.size) if not fixed[s]]
    for values in itertools.product(range(target.size), repeat=len(free)):
        for s, v in zip(free, values):
            table[s] = v
        pre = _preimage_table(table, target.size)
        if _continuous(space, target, pre):
            yield ContinuousMap(space, target, tuple(table), pre)


def extension_candidates(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> list[ContinuousMap]:
    """The continuous maps g with g(embed(x)) = f(x), in the lexicographic
    order of their tables; used for certification."""
    validate_stone(target)
    ft = tuple(map(int, f))
    if len(ft) != bx.base.size or ft and (min(ft) < 0 or max(ft) >= target.size):
        raise ValueError("map must send base points into the target")
    return list(_forced_tables(bx.space, target, zip(bx.embed, ft)))


def beta_extend_to_compact(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> ContinuousMap:
    """The unique continuous extension of f along the compactification embedding.

    Uniqueness is certified by exhausting every table that agrees with f on
    the embedded points; zero or multiple matches signal an invariant bug,
    never bad user input.
    """
    candidates = extension_candidates(bx, f, target)
    if len(candidates) > 1:
        raise InvariantViolation("continuous extension is not unique", len(candidates))
    return sole_extension(candidates)


def sole_extension(candidates: Sequence[ContinuousMap]) -> ContinuousMap:
    """The first map ``extension_candidates`` found.

    An empty list raises NoExtension; two or more maps are for the caller
    to judge (the battery's ``unique_continuous_extension`` check, or
    ``beta_extend_to_compact``).
    """
    if not candidates:
        raise NoExtension("no continuous extension satisfies the equation")
    return candidates[0]


def beta_lift(
    f: Sequence[int] | ContinuousMap, bx: BetaSpace, by: BetaSpace
) -> ContinuousMap:
    """Lift a map between discrete point sets via the ultrafilter formula.

    The image of an ultrafilter U is {B : preimage of B under f lies in U},
    located among the points of the target compactification.  The preimage
    of every B is read from one table (a ``ContinuousMap`` f lends its own),
    and the image of U is that table as a byte row translated through the
    indicator of U: a membership row, looked up among the target's
    ``point_rows``.
    """
    lent = isinstance(f, ContinuousMap)
    ft = f.table if lent else tuple(map(int, f))
    if len(ft) != bx.base.size or min(ft) < 0 or max(ft) >= by.base.size or (
        lent and f.target.size != by.base.size
    ):
        raise ValueError("map must send base points into the target base")
    index = by.point_rows
    pre = bytes(f.preimages if lent else _preimage_table(ft, by.base.size))
    table = tuple([index.get(pre.translate(indicator)) for indicator in bx.indicators])
    if None in table:
        row = pre.translate(bx.indicators[table.index(None)])
        image_members = frozenset(mb for mb, inside in enumerate(row) if inside)
        raise InvariantViolation("lifted set is not an ultrafilter", image_members)
    return _checked_map(bx.space, by.space, table)


def _comparable(c1: Compactification, c2: Compactification) -> None:
    """Both share the base point set, and both spaces are within the point
    cap (``topology``), before any table of the search is built."""
    if c1.base.points != c2.base.points:
        raise ValueError("compactifications must share the base point set")
    topology(c1.space), topology(c2.space)


def compactification_leq(c1: Compactification, c2: Compactification) -> ContinuousMap | None:
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
) -> ContinuousMap | None:
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
    lifted = beta_lift(ft, bx, by)
    if injective and not lifted.is_injective:
        return "one-to-one"
    if surjective and not lifted.is_surjective:
        return "onto"
    if injective and surjective and not _is_homeomorphism(bx.space, by.space, lifted.table):
        return "bijective"
    return None
