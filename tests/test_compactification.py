"""The powerset-dual compactification, map lifting, and the order checks."""

import itertools

import pytest

import stonecheck.compactification as compactification
from helpers import members_of
from stonecheck.algebra import MAX_ATOMS, _preimage_table, powerset_algebra, ultrafilters
from stonecheck.compactification import (
    BetaSpace,
    Compactification,
    beta_extend_to_compact,
    beta_lift,
    beta_preserves,
    beta_space,
    build_compactification,
    compactification_equivalent,
    compactification_leq,
    extension_candidates,
)
from stonecheck.duality import (
    FinStoneSpace,
    clopen_algebra,
    closure_mask,
    compose_continuous,
    continuous_map,
    discrete_space,
    dual_space,
    topology,
    validate_stone,
)
from stonecheck.errors import (
    BoundExceeded,
    EmptySpace,
    ImageNotDense,
    InvariantViolation,
    NoExtension,
    NotAnEmbedding,
    NotContinuous,
)


def identity_compactification(points):
    space = discrete_space(points)
    return build_compactification(space, space, tuple(range(len(points))))


def beta_compactification(points):
    """The compactification of ``beta_space(points)``, as its own record."""
    bx = beta_space(points)
    return Compactification(bx.base, bx.space, bx.embed)


def all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def quotient_compactifications(points):
    """Identification-style instances (raw; proper quotients are not genuine
    compactifications, which is exactly what the order checks probe)."""
    out = []
    for blocks in all_set_partitions(list(range(len(points)))):
        space = discrete_space(tuple(f"q{i}" for i in range(len(blocks))))
        embed = [0] * len(points)
        for b, block in enumerate(blocks):
            for x in block:
                embed[x] = b
        out.append(Compactification(discrete_space(points), space, tuple(embed)))
    return out


def brute_force_tables(space, target, embed, values):
    """Oracle: every table of the full product space, filtered by the forced
    values and then by continuity, in lexicographic order."""
    source_opens = set(topology(space))
    out = []
    for cand in itertools.product(range(target.size), repeat=space.size):
        if any(cand[embed[i]] != values[i] for i in range(len(embed))):
            continue
        if all(
            sum(1 << s for s, v in enumerate(cand) if o >> v & 1) in source_opens
            for o in topology(target)
        ):
            out.append(cand)
    return out


def candidate_tables(bx, f, target):
    """The tables of the maps ``extension_candidates`` returns, each of which
    must keep the preimage table of its own points."""
    maps = extension_candidates(bx, f, target)
    for m in maps:
        assert m.lanes == 1
        assert list(m.preimages) == _preimage_table(m.table, m.target.size)
    return [tuple(m.table) for m in maps]


def assert_map_of_its_table(c1, c2, witness):
    """The witness is the map ``continuous_map`` makes of its table."""
    expected = continuous_map(c1.space, c2.space, witness.table)
    assert (witness.source, witness.target) == (c1.space, c2.space)
    assert (witness.table, witness.preimages) == (expected.table, expected.preimages)


def assert_leq_matches_oracle(c1, c2):
    tables = brute_force_tables(c1.space, c2.space, c1.embed, c2.embed)
    witness = compactification_leq(c1, c2)
    if tables:
        assert tuple(witness.table) == tables[0]
        assert_map_of_its_table(c1, c2, witness)
    else:
        assert witness is None


def test_beta_space_of_one_point():
    bx = beta_space(("x",))
    assert bx.space.size == 1
    assert bx.embed == (0,)


def test_beta_space_points_are_principal_ultrafilters():
    bx = beta_space(("x", "y"))
    assert bx.space.size == 2
    expected = {members_of(u.members) for u in ultrafilters(powerset_algebra(2))}
    assert {members_of(u.members) for u in bx.points_as_ultrafilters} == expected
    # the embedding literally matches beta(x) = {A : x in A}
    for i in range(2):
        members = members_of(bx.points_as_ultrafilters[bx.embed[i]].members)
        assert members == frozenset(m for m in range(4) if m >> i & 1)


def test_beta_space_of_three_points_is_bijective():
    bx = beta_space(("a", "b", "c"))
    assert bx.space.size == 3
    assert sorted(bx.embed) == [0, 1, 2]


def test_beta_space_guards():
    with pytest.raises(EmptySpace):
        beta_space(())
    with pytest.raises(BoundExceeded):
        beta_space(tuple("abcdef"))


def test_extension_of_identity_into_own_beta_space():
    bx = beta_space(("x", "y"))
    g = beta_extend_to_compact(bx, (0, 1), bx.space)
    for i in range(2):
        assert g.table[bx.embed[i]] == (0, 1)[i]


def test_extension_of_constant_map_is_constant():
    bx = beta_space(("x", "y", "z"))
    target = discrete_space(("p", "q"))
    g = beta_extend_to_compact(bx, (1, 1, 1), target)
    assert set(g.table) == {1}


def test_extension_of_surjection_is_unique_among_candidates():
    bx = beta_space(("a", "b", "c"))
    target = discrete_space(("p", "q"))
    f = (0, 1, 0)
    candidates = candidate_tables(bx, f, target)
    assert len(candidates) == 1
    g = beta_extend_to_compact(bx, f, target)
    assert tuple(g.table) == candidates[0]
    for i in range(3):
        assert g.table[bx.embed[i]] == f[i]


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_extension_candidates_match_brute_force_oracle(nx):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    targets = [discrete_space(tuple(f"y{i}" for i in range(ny))) for ny in (1, 2, 3)]
    targets += [dual_space(powerset_algebra(ny)) for ny in (1, 2, 3)]
    for target in targets:
        for f in itertools.product(range(target.size), repeat=nx):
            expected = brute_force_tables(bx.space, target, bx.embed, f)
            assert candidate_tables(bx, f, target) == expected


def raw_beta_space(base_points, space_points, embed):
    """A BetaSpace on an unvalidated base, space and embedding, for fault paths."""
    return BetaSpace(discrete_space(base_points), discrete_space(space_points), embed, ())


def test_extension_without_candidates_raises_no_extension():
    # two base points glued to one space point but sent to different values
    bx = raw_beta_space(("x", "y"), ("p",), (0, 0))
    target = discrete_space(("a", "b"))
    assert extension_candidates(bx, (0, 1), target) == []
    with pytest.raises(NoExtension):
        beta_extend_to_compact(bx, (0, 1), target)


def test_extension_with_several_candidates_raises_invariant_violation():
    # the second space point is outside the image, so its value is free
    bx = raw_beta_space(("x",), ("p", "q"), (0,))
    target = discrete_space(("a", "b"))
    assert candidate_tables(bx, (1,), target) == [(1, 0), (1, 1)]
    with pytest.raises(InvariantViolation) as info:
        beta_extend_to_compact(bx, (1,), target)
    assert info.value.witness == 2


def test_search_keeps_only_the_continuous_tables_of_a_coarse_space():
    # spaces that are not Stone spaces, left unvalidated: a table that
    # splits an open of the target across a coarse open is rejected
    coarse_spaces = [
        FinStoneSpace(("p", "q"), (0b11,)),
        FinStoneSpace(("p", "q"), (0b01,)),
        FinStoneSpace(("p", "q", "r"), (0b011, 0b100)),
    ]
    rejected = 0
    for space in coarse_spaces:
        bx = BetaSpace(discrete_space(("x",)), space, (0,), ())
        for target in (discrete_space(("a", "b")), discrete_space(("a", "b", "c"))):
            for f in itertools.product(range(target.size), repeat=1):
                expected = brute_force_tables(space, target, bx.embed, f)
                assert candidate_tables(bx, f, target) == expected
                rejected += target.size ** (space.size - 1) - len(expected)
    assert rejected > 0


def above_the_cap_calls():
    """One call per entry point that reaches ``topology`` on a space of
    ``MAX_ATOMS + 1`` points."""
    six = tuple(f"p{i}" for i in range(MAX_ATOMS + 1))
    big = discrete_space(six)
    bx = beta_space(six[:MAX_ATOMS])
    beta = Compactification(bx.base, bx.space, bx.embed)
    # every point of the smaller space forced, as the diagram path does
    into_big = Compactification(bx.base, big, tuple(range(MAX_ATOMS)))
    forced = Compactification(discrete_space(six), big, tuple(range(MAX_ATOMS + 1)))
    # a non-dense image: one point embedded, the rest left free
    free = Compactification(discrete_space(six[:1]), big, (0,))
    return {
        "validate_stone": lambda: validate_stone(big),
        "build_compactification": lambda: build_compactification(big, big, range(len(six))),
        "extension_candidates": lambda: extension_candidates(bx, range(MAX_ATOMS), big),
        "leq_forced": lambda: compactification_leq(beta, into_big),
        "leq_free": lambda: compactification_leq(free, free),
        "equivalent_forced": lambda: compactification_equivalent(forced, forced),
        "equivalent_free": lambda: compactification_equivalent(free, free),
        "closure_mask": lambda: closure_mask(big, 1),
        "clopen_algebra": lambda: clopen_algebra(big),
    }


@pytest.mark.parametrize("entry", list(above_the_cap_calls()))
def test_a_space_above_the_atom_cap_is_refused_before_any_table(entry, monkeypatch):
    tried = []
    original = compactification._continuous
    monkeypatch.setattr(
        compactification, "_continuous", lambda *args: tried.append(args) or original(*args)
    )
    with pytest.raises(BoundExceeded) as info:
        above_the_cap_calls()[entry]()
    assert info.value.witness == MAX_ATOMS + 1
    assert str(info.value).startswith(f"Stone spaces capped at {MAX_ATOMS} points")
    assert tried == []


def test_lift_of_identity_is_identity():
    bx = beta_space(("x", "y"))
    lift = beta_lift((0, 1), bx, bx)
    assert tuple(lift.table) == (0, 1)


def test_lift_of_collapse_sends_everything_to_the_point():
    bx = beta_space(("x", "y"))
    by = beta_space(("z",))
    lift = beta_lift((0, 0), bx, by)
    assert tuple(lift.table) == (0, 0)


def test_lift_of_a_map_reads_its_table_and_rejects_another_target():
    bx = beta_space(("x", "y"))
    by = beta_space(("z", "w", "v"))
    onto_two = continuous_map(discrete_space(("x", "y")), discrete_space(("z", "w")), (1, 0))
    assert beta_lift(onto_two.table, bx, bx).table == beta_lift((1, 0), bx, bx).table
    with pytest.raises(ValueError):
        beta_lift((2, 0), bx, bx)


@pytest.mark.parametrize("nx, ny", list(itertools.product([1, 2, 3], repeat=2)))
def test_lift_agrees_with_certified_extension(nx, ny):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    by = beta_space(tuple(f"y{i}" for i in range(ny)))
    for f in itertools.product(range(ny), repeat=nx):
        lift = beta_lift(f, bx, by)
        composed = tuple(by.embed[v] for v in f)
        extended = beta_extend_to_compact(bx, composed, by.space)
        assert lift.table == extended.table


@pytest.mark.parametrize("nx, ny", list(itertools.product([1, 2, 3], repeat=2)))
def test_forward_images_live_in_lifted_ultrafilters(nx, ny):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    by = beta_space(tuple(f"y{i}" for i in range(ny)))
    for f in itertools.product(range(ny), repeat=nx):
        lift = beta_lift(f, bx, by)
        for d, nabla in enumerate(bx.points_as_ultrafilters):
            image_point = members_of(by.points_as_ultrafilters[lift.table[d]].members)
            for a in members_of(nabla.members):
                forward = 0
                for x in range(nx):
                    if a >> x & 1:
                        forward |= 1 << f[x]
                assert forward in image_point


def test_lift_functoriality():
    sizes = [1, 2, 3]
    spaces = {n: beta_space(tuple(f"p{i}" for i in range(n))) for n in sizes}
    for nx, ny, nz in itertools.product(sizes, repeat=3):
        bx, by, bz = spaces[nx], spaces[ny], spaces[nz]
        ident = beta_lift(tuple(range(nx)), bx, bx)
        assert tuple(ident.table) == tuple(range(bx.space.size))
        for f in itertools.product(range(ny), repeat=nx):
            for g in itertools.product(range(nz), repeat=ny):
                composed = tuple(g[v] for v in f)
                lhs = beta_lift(composed, bx, bz)
                rhs = compose_continuous(beta_lift(g, by, bz), beta_lift(f, bx, by))
                assert lhs.table == rhs.table


def test_compactification_validation_rejects_broken_inputs():
    base = discrete_space(("x", "y"))
    space = discrete_space(("p", "q"))
    with pytest.raises(NotAnEmbedding):
        build_compactification(base, space, (0, 0))
    one_point_base = discrete_space(("x",))
    with pytest.raises(ImageNotDense):
        build_compactification(one_point_base, space, (0,))


def test_compactification_leq_is_reflexive():
    c = identity_compactification(("x", "y"))
    assert tuple(compactification_leq(c, c).table) == (0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_dominates_every_quotient_compactification(n):
    points = tuple(f"x{i}" for i in range(n))
    beta = beta_compactification(points)
    for c in quotient_compactifications(points):
        assert compactification_leq(beta, c) is not None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compactification_leq_matches_brute_force_oracle(n):
    points = tuple(f"x{i}" for i in range(n))
    instances = quotient_compactifications(points) + [beta_compactification(points)]
    for c1, c2 in itertools.product(instances, repeat=2):
        assert_leq_matches_oracle(c1, c2)


def test_identification_is_strictly_below():
    # collapsing both points: the collapse is below the faithful
    # compactification but not conversely
    points = ("x", "y")
    faithful = identity_compactification(points)
    collapse = Compactification(
        discrete_space(points), discrete_space(("q",)), (0, 0)
    )
    assert compactification_leq(faithful, collapse) is not None
    assert compactification_leq(collapse, faithful) is None


def test_beta_space_equivalent_to_identity_compactification():
    points = ("x", "y", "z")
    witness = compactification_equivalent(
        beta_compactification(points), identity_compactification(points)
    )
    assert witness is not None


def test_compactifications_of_different_sizes_are_not_equivalent():
    base = discrete_space(("x",))
    small = identity_compactification(("x",))
    inflated = Compactification(base, discrete_space(("p", "q")), (0,))
    assert compactification_equivalent(inflated, small) is None
    assert compactification_equivalent(small, inflated) is None
    assert_leq_matches_oracle(inflated, small)
    assert_leq_matches_oracle(small, inflated)


def permutation_equivalence_oracle(c1, c2):
    """Oracle: the homeomorphism search as its own loop, over every
    permutation in lexicographic order, each tested for the forced values
    and for continuity both ways; the first homeomorphism's table, or None."""
    n = c1.space.size
    if c2.space.size != n:
        return None

    def continuous(table, source, target):
        opens = set(topology(source))
        return all(
            sum(1 << s for s, v in enumerate(table) if o >> v & 1) in opens
            for o in topology(target)
        )

    for cand in itertools.permutations(range(n)):
        if any(cand[c1.embed[i]] != c2.embed[i] for i in range(c1.base.size)):
            continue
        inverse = [0] * n
        for s, v in enumerate(cand):
            inverse[v] = s
        if continuous(cand, c1.space, c2.space) and continuous(inverse, c2.space, c1.space):
            return cand
    return None


def assert_equivalent_matches_oracle(c1, c2):
    table = permutation_equivalence_oracle(c1, c2)
    witness = compactification_equivalent(c1, c2)
    if table is None:
        assert witness is None
    else:
        assert tuple(witness.table) == table
        assert_map_of_its_table(c1, c2, witness)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compactification_equivalent_matches_the_permutation_oracle(n):
    points = tuple(f"x{i}" for i in range(n))
    instances = quotient_compactifications(points) + [beta_compactification(points)]
    for c1, c2 in itertools.product(instances, repeat=2):
        assert_equivalent_matches_oracle(c1, c2)


def test_equivalence_with_free_points_matches_the_permutation_oracle():
    # raw four-point spaces that embed two base points and leave two free,
    # discrete or coarse, so that some bijections have a discontinuous inverse
    base = discrete_space(("x", "y"))
    points = ("p", "q", "r", "s")
    spaces = [
        discrete_space(points),
        FinStoneSpace(points, (0b0001, 0b0010, 0b1100)),
        FinStoneSpace(points, (0b0011, 0b1100, 0b0101)),
    ]
    instances = [
        Compactification(base, space, embed)
        for space in spaces
        for embed in itertools.permutations(range(4), 2)
    ]
    found = set()
    for c1, c2 in itertools.product(instances, repeat=2):
        assert_equivalent_matches_oracle(c1, c2)
        found.add(compactification_equivalent(c1, c2) is not None)
    assert found == {False, True}


def test_equivalence_of_five_points_matches_the_oracle_and_six_exceed_the_cap():
    points = tuple(f"x{i}" for i in range(5))
    beta = beta_compactification(points)
    identity = identity_compactification(points)
    assert_equivalent_matches_oracle(beta, identity)
    assert compactification_equivalent(beta, identity) is not None
    # five points, three of them free
    free = Compactification(discrete_space(points[:2]), discrete_space(points), (3, 1))
    other = Compactification(discrete_space(points[:2]), discrete_space(points), (0, 4))
    assert_equivalent_matches_oracle(free, other)
    assert compactification_equivalent(free, other) is not None
    six = tuple(f"x{i}" for i in range(6))
    with pytest.raises(BoundExceeded):
        compactification_equivalent(
            identity_compactification(six), identity_compactification(six)
        )


def test_preservation_of_injectivity():
    bx = beta_space(("x",))
    by = beta_space(("p", "q"))
    assert beta_preserves((1,), bx, by) is None


def test_preservation_of_surjectivity():
    bx = beta_space(("x", "y"))
    by = beta_space(("p",))
    assert beta_preserves((0, 0), bx, by) is None


def test_swap_lifts_to_homeomorphism():
    bx = beta_space(("x", "y"))
    assert beta_preserves((1, 0), bx, bx) is None


@pytest.mark.parametrize("error", [NotContinuous, InvariantViolation])
def test_only_a_discontinuous_inverse_fails_bijectivity(monkeypatch, error):
    # the continuity test of the lift's inverse, the only one the search
    # module runs here, seeded to find the inverse not continuous, or to
    # raise a library bug, which must not be read as a discontinuity
    bx = beta_space(("x", "y", "z"))

    def inverse_fails(source, target, pre):
        if error is InvariantViolation:
            raise error("seeded", tuple(pre))
        return False

    monkeypatch.setattr(compactification, "_continuous", inverse_fails)
    if error is NotContinuous:
        assert beta_preserves((1, 2, 0), bx, bx) == "bijective"
    else:
        with pytest.raises(InvariantViolation, match="seeded"):
            beta_preserves((1, 2, 0), bx, bx)


def test_vacuous_preservation_is_recorded():
    bx = beta_space(("x", "y"))
    by = beta_space(("p", "q"))
    # f is neither one-to-one nor onto, so its lift, which is not
    # one-to-one either, has nothing to keep
    lifted = beta_lift((0, 0), bx, by).table
    assert len(set(lifted)) < len(lifted)
    assert beta_preserves((0, 0), bx, by) is None


@pytest.mark.parametrize("nx, ny", list(itertools.product([1, 2, 3], repeat=2)))
def test_preservation_across_all_small_maps(nx, ny):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    by = beta_space(tuple(f"y{i}" for i in range(ny)))
    for f in itertools.product(range(ny), repeat=nx):
        assert beta_preserves(f, bx, by) is None


def test_beta_space_matches_dual_space_of_powerset():
    bx = beta_space(("x", "y", "z"))
    assert bx.space is dual_space(powerset_algebra(3))
