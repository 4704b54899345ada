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
whose witness must also pass ``_is_homeomorphism``.  The first two caps
bound the nominal table space ``target.size ** space.size``, equivalence
the point count (``MAX_ATOMS``).

Both flavours work a table at a time: each candidate's continuity and the
lift's image sets read one preimage table of the point map
(``algebra._preimage_table``) instead of summing a preimage per open set or
per ultrafilter, and the target space is validated once per space; no
table is built twice (``sole_extension`` keeps the accepted candidate's,
and the lift of a ``ContinuousMap`` reads the map's).  The lift reads each
image set as a byte row, that preimage table translated through the
ultrafilter's indicator, and looks it up among the target's
``point_rows``, which are keyed once per ``BetaSpace``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import (
    MAX_ATOMS,
    MAX_SEARCH_CANDIDATES,
    FinBoolAlg,
    UltraFilter,
    _preimage_table,
    cache_field,
    object_cache,
    powerset_algebra,
    ultrafilter_rows,
    ultrafilters,
)
from .duality import (
    ContinuousMap,
    FinStoneSpace,
    _checked_map,
    closure_mask,
    continuous_map,
    discrete_space,
    dual_space,
    open_set,
    topology,
    validate_stone,
)
from .errors import (
    BoundExceeded,
    EmptySpace,
    ImageNotDense,
    InvariantViolation,
    NoExtension,
    NotAnEmbedding,
    NotContinuous,
)


@dataclass(frozen=True, eq=False)
class Compactification:
    """A dense homeomorphic embedding of a discrete base into a Stone space.

    The raw constructor performs no validation (tests use it to build
    deliberately broken instances); ``build_compactification`` validates.
    """

    base: FinStoneSpace
    space: FinStoneSpace
    embed: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class BetaSpace:
    """The powerset-dual compactification whose points are ultrafilters."""

    compactification: Compactification
    points_as_ultrafilters: tuple[UltraFilter, ...]
    algebra: FinBoolAlg
    _cache: dict = cache_field()

    @property
    def base(self) -> FinStoneSpace:
        return self.compactification.base

    @property
    def space(self) -> FinStoneSpace:
        return self.compactification.space

    @property
    def embed(self) -> tuple[int, ...]:
        return self.compactification.embed

    @property
    @object_cache
    def point_rows(self) -> dict[bytes, int]:
        """The index of each point, keyed by its membership row over the
        subsets of the base (``ultrafilter_rows``)."""
        return ultrafilter_rows(self.points_as_ultrafilters)


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
    it; that description is checked literally against the members of each
    embedded ultrafilter.
    """
    if len(points) == 0:
        raise EmptySpace("cannot compactify the empty point set")
    if len(points) > MAX_ATOMS:
        raise BoundExceeded(f"compactification capped at {MAX_ATOMS} points", len(points))
    n = len(points)
    pow_alg = powerset_algebra(n)
    space = dual_space(pow_alg)
    ufs = ultrafilters(pow_alg)
    embed = []
    for i in range(n):
        expected = frozenset(m for m in range(1 << n) if m >> i & 1)
        hits = [k for k, u in enumerate(ufs) if u.members == expected]
        if len(hits) != 1:
            raise InvariantViolation("point has no unique principal ultrafilter", i)
        embed.append(hits[0])
    comp = build_compactification(discrete_space(points), space, embed)
    return BetaSpace(comp, ufs, pow_alg)


def _check_search_bound(space: FinStoneSpace, target: FinStoneSpace) -> None:
    total = target.size ** space.size
    if total > MAX_SEARCH_CANDIDATES:
        raise BoundExceeded(f"candidate search capped at {MAX_SEARCH_CANDIDATES}", total)


def _forced_tables(
    space: FinStoneSpace, target: FinStoneSpace, forced: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Every continuous table from space to target taking the forced values.

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
    target_opens = topology(target)
    source_opens = open_set(space)
    for values in itertools.product(range(target.size), repeat=len(free)):
        for s, v in zip(free, values):
            table[s] = v
        pre = _preimage_table(table, target.size)
        if source_opens.issuperset(map(pre.__getitem__, target_opens)):
            accepted = _Accepted(table)
            accepted.preimages = pre
            yield accepted


class _Accepted(tuple):
    """A table the search accepted, with the preimage table it was tested on,
    which ``sole_extension`` hands on to the map it returns."""


def extension_candidates(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> list[tuple[int, ...]]:
    """All continuous tables g with g(embed(x)) = f(x); used for certification."""
    validate_stone(target)
    ft = tuple(map(int, f))
    if len(ft) != bx.base.size or ft and (min(ft) < 0 or max(ft) >= target.size):
        raise ValueError("map must send base points into the target")
    _check_search_bound(bx.space, target)
    return list(_forced_tables(bx.space, target, zip(bx.embed, ft)))


def beta_extend_to_compact(
    bx: BetaSpace, f: Sequence[int], target: FinStoneSpace
) -> ContinuousMap:
    """The unique continuous extension of f along the compactification embedding.

    Uniqueness is certified by exhausting every table that agrees with f on
    the embedded points; zero or multiple matches signal an invariant bug,
    never bad user input.
    """
    return sole_extension(bx, target, extension_candidates(bx, f, target))


def sole_extension(
    bx: BetaSpace, target: FinStoneSpace, candidates: Sequence[tuple[int, ...]]
) -> ContinuousMap:
    """The one table ``extension_candidates`` found, as a continuous map."""
    if not candidates:
        raise NoExtension("no continuous extension satisfies the equation")
    if len(candidates) > 1:
        raise InvariantViolation("continuous extension is not unique", len(candidates))
    return _checked_map(bx.space, target, tuple(candidates[0]), candidates[0].preimages)


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
    table = []
    for nabla in bx.points_as_ultrafilters:
        row = pre.translate(nabla.indicator)
        k = index.get(row)
        if k is None:
            image_members = frozenset(mb for mb, inside in enumerate(row) if inside)
            raise InvariantViolation("lifted set is not an ultrafilter", image_members)
        table.append(k)
    return continuous_map(bx.space, by.space, table)


@dataclass(frozen=True)
class OrderVerdict:
    passed: bool
    witness: ContinuousMap | None = None


def _same_base(c1: Compactification, c2: Compactification) -> None:
    if c1.base.points != c2.base.points:
        raise ValueError("compactifications must share the base point set")


def compactification_leq(c1: Compactification, c2: Compactification) -> OrderVerdict:
    """Decide whether c2 is below c1 in the compactification order.

    Searches the maps from c1's space to c2's that satisfy
    f(c1.embed(x)) = c2.embed(x) for a continuous one, the first in
    lexicographic order; the witness exhibits c2 <= c1.
    """
    _same_base(c1, c2)
    _check_search_bound(c1.space, c2.space)
    forced = [(c1.embed[i], c2.embed[i]) for i in range(c1.base.size)]
    first = next(_forced_tables(c1.space, c2.space, forced), None)
    if first is None:
        return OrderVerdict(False)
    return OrderVerdict(True, ContinuousMap(c1.space, c2.space, tuple(first)))


def compactification_equivalent(c1: Compactification, c2: Compactification) -> OrderVerdict:
    """As the order check but requiring a homeomorphism witness: the first
    table of the same search that is a bijection with a continuous inverse."""
    _same_base(c1, c2)
    if c1.space.size != c2.space.size:
        return OrderVerdict(False)
    if c1.space.size > MAX_ATOMS:
        raise BoundExceeded("homeomorphism search capped", c1.space.size)
    for table in _forced_tables(c1.space, c2.space, zip(c1.embed, c2.embed)):
        if _is_homeomorphism(c1.space, c2.space, table):
            return OrderVerdict(True, ContinuousMap(c1.space, c2.space, tuple(table)))
    return OrderVerdict(False)


def _is_homeomorphism(space: FinStoneSpace, target: FinStoneSpace, table: Sequence[int]) -> bool:
    """Whether a continuous table from space to target is a bijection whose
    inverse is continuous too."""
    if sorted(table) != list(range(target.size)):
        return False
    inverse = [0] * target.size
    for s, v in enumerate(table):
        inverse[v] = s
    try:
        continuous_map(target, space, inverse)
    except NotContinuous:
        return False
    return True


@dataclass(frozen=True)
class PreservationVerdict:
    property_name: str
    applicable: bool
    passed: bool


def beta_preserves(
    f: Sequence[int], bx: BetaSpace, by: BetaSpace, property_name: str
) -> PreservationVerdict:
    """Check that the lift inherits injectivity/surjectivity/bijectivity from f.

    When f lacks the property the implication holds vacuously; the verdict
    records applicability so callers can distinguish the two cases.  For a
    bijective f the lift must moreover be a homeomorphism (continuous
    inverse).
    """
    ft = tuple(int(x) for x in f)
    injective = len(set(ft)) == len(ft)
    surjective = set(ft) == set(range(by.base.size))
    lifted = beta_lift(ft, bx, by)
    if property_name == "one-to-one":
        return PreservationVerdict(
            property_name, injective, (not injective) or lifted.is_injective
        )
    if property_name == "onto":
        return PreservationVerdict(
            property_name, surjective, (not surjective) or lifted.is_surjective
        )
    if property_name == "bijective":
        applicable = injective and surjective
        return PreservationVerdict(
            property_name,
            applicable,
            (not applicable) or _is_homeomorphism(bx.space, by.space, lifted.table),
        )
    raise ValueError(f"unknown property {property_name!r}")
