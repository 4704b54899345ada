"""Stone duality: the embedding, dual spaces and maps, clopens, double dual."""

import itertools

import pytest

import stonecheck.duality as duality
from helpers import identity_hom, members_of, replace
from stonecheck.algebra import (
    all_homs,
    compose_homs,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.duality import (
    FinStoneSpace,
    clopen_algebra,
    compose_continuous,
    continuous_map,
    discrete_space,
    dual_map,
    dual_of_continuous,
    dual_space,
    hat_phi_point_mask,
    hat_phi_table,
    phi_mask,
    phi_table,
    stone_representation,
    topology,
    validate_stone,
)
from stonecheck.errors import (
    DegenerateAlgebra,
    InvariantViolation,
    NotContinuous,
    NotMeetPreserving,
    NotStone,
)
from stonecheck.harness import algebra_instance


def test_phi_at_bounds():
    algebra = powerset_algebra(3)
    assert phi_mask(algebra, algebra.bottom) == 0
    assert phi_mask(algebra, algebra.top) == (1 << len(ultrafilters(algebra))) - 1


def test_phi_of_atom_is_its_ultrafilter():
    algebra = powerset_algebra(2)
    ufs = ultrafilters(algebra)
    # membership oracle: scan the enumerated ultrafilters directly
    expected = sum(1 << k for k, u in enumerate(ufs) if 1 in members_of(u.members))
    assert phi_mask(algebra, 1) == expected
    assert expected.bit_count() == 1


def test_phi_of_join_of_two_atoms():
    algebra = powerset_algebra(3)
    element = algebra.lattice.join[1][2]  # atom0 or atom1
    hits = phi_mask(algebra, element)
    assert hits.bit_count() == 2
    assert hits == sum(
        1 << k for k, u in enumerate(ultrafilters(algebra)) if element in members_of(u.members)
    )
    assert phi_table(algebra)[element] == hits


def test_phi_raises_on_degenerate():
    with pytest.raises(DegenerateAlgebra):
        phi_mask(powerset_algebra(0), 0)


@pytest.mark.parametrize("n, points", [(1, 1), (2, 2), (3, 3)])
def test_dual_space_is_discrete(n, points):
    space = dual_space(powerset_algebra(n))
    assert space.size == points
    assert len(topology(space)) == 2**points


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_is_a_boolean_embedding(n):
    algebra = powerset_algebra(n)
    full = (1 << len(ultrafilters(algebra))) - 1
    masks = [phi_mask(algebra, a) for a in range(algebra.size)]
    lattice = algebra.lattice
    for a in range(algebra.size):
        for b in range(algebra.size):
            assert masks[lattice.meet[a][b]] == masks[a] & masks[b]
            assert masks[lattice.join[a][b]] == masks[a] | masks[b]
            assert (masks[a] & ~masks[b] == 0) == lattice.leq_of(a, b)
        assert masks[algebra.complement[a]] == full ^ masks[a]
    assert masks[algebra.bottom] == 0
    assert masks[algebra.top] == full


def test_dual_map_of_identity_is_identity():
    algebra = powerset_algebra(2)
    f = dual_map(identity_hom(algebra))
    assert tuple(f.table) == (0, 1)


def test_dual_map_of_unique_embedding_is_constant():
    two, four = powerset_algebra(1), powerset_algebra(2)
    hom = hom_from_atom_function(two, four, (0, 0))
    f = dual_map(hom)
    assert f.source.size == 2 and f.target.size == 1
    assert tuple(f.table) == (0, 0)


def test_dual_map_of_atom_selector():
    four, two = powerset_algebra(2), powerset_algebra(1)
    hom = hom_from_atom_function(four, two, (0,))  # h(a)=top iff atom0 <= a
    f = dual_map(hom)
    assert f.source.size == 1
    # preimage computed by hand: {a : h(a) in {1}} = {1, 3} = members of u_atom0
    assert tuple(f.table) == (0,)


def test_clopen_algebra_sizes():
    assert clopen_algebra(discrete_space(("p",))).algebra.size == 2
    assert clopen_algebra(discrete_space(("a", "b", "c"))).algebra.size == 8


def test_indiscrete_two_points_is_not_stone():
    space = FinStoneSpace(("a", "b"), (0, 0b11))
    with pytest.raises(NotStone):
        validate_stone(space)
    with pytest.raises(NotStone):
        clopen_algebra(space)


def test_continuity_validation():
    two = discrete_space(("a", "b"))
    indiscrete_like = FinStoneSpace(("x", "y"), (0b11,))
    continuous_map(two, two, (1, 0))
    # from the coarse space to the discrete one, point-splitting maps fail
    with pytest.raises(NotContinuous):
        continuous_map(indiscrete_like, two, (0, 1))


def test_dual_of_identity_map_is_identity_hom():
    space = discrete_space(("a", "b"))
    hom = dual_of_continuous(continuous_map(space, space, (0, 1)))
    assert hom.table == tuple(range(4))


def test_dual_of_constant_map_two_to_one():
    two_pt = discrete_space(("a", "b"))
    one_pt = discrete_space(("z",))
    hom = dual_of_continuous(continuous_map(two_pt, one_pt, (0, 0)))
    # Clop(1pt)={{},{z}} -> Clop(2pt): empty->empty, whole->whole
    src_clop = clopen_algebra(one_pt)
    dst_clop = clopen_algebra(two_pt)
    assert hom.table[src_clop.algebra.bottom] == dst_clop.algebra.bottom
    assert hom.table[src_clop.algebra.top] == dst_clop.algebra.top


def test_dual_of_swap_swaps_singleton_clopens():
    space = discrete_space(("a", "b"))
    swap = continuous_map(space, space, (1, 0))
    hom = dual_of_continuous(swap)
    clop = clopen_algebra(space)
    # preimages computed by hand: {a}<->{b}, bounds fixed
    i_a, i_b, i_0, i_1 = map(clop.clopen_masks.index, (0b01, 0b10, 0, 0b11))
    assert hom.table[i_a] == i_b and hom.table[i_b] == i_a
    assert hom.table[i_0] == i_0
    assert hom.table[i_1] == i_1


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stone_representation_certificate(n):
    table = stone_representation(powerset_algebra(n))
    assert len(table) == 2**n
    assert len(set(table)) == 2**n


def _reverse_clopen_order(monkeypatch):
    """List the clopens in reverse, so that the representation table is
    bijective but sends each element to the index of its complement."""
    real = duality.clopen_algebra

    def reversed_clopens(space):
        clop = real(space)
        return replace(clop, clopen_masks=clop.clopen_masks[::-1])

    monkeypatch.setattr(duality, "clopen_algebra", reversed_clopens)


def test_representation_breaking_the_laws_is_a_library_bug(monkeypatch):
    _reverse_clopen_order(monkeypatch)
    with pytest.raises(InvariantViolation, match="not a homomorphism") as info:
        stone_representation(powerset_algebra(2))
    assert not isinstance(info.value, NotMeetPreserving)
    assert isinstance(info.value.__cause__, NotMeetPreserving)
    assert info.value.witness == ("NotMeetPreserving", ("bottom", 0))


def test_representation_breaking_the_laws_is_a_failed_row(monkeypatch):
    _reverse_clopen_order(monkeypatch)
    inst = algebra_instance(2)
    assert [(c.name, c.verdict) for c in inst.checks] == [
        ("canonical_extension_dense", "pass"),
        ("canonical_extension_compact", "pass"),
        ("representation_is_isomorphism", "fail"),
    ]
    assert "not a homomorphism" in inst.checks[-1].witness["error"]
    assert not inst.passed


def test_representation_that_is_not_bijective_is_a_library_bug(monkeypatch):
    monkeypatch.setattr(duality, "phi_table", lambda algebra: (0,) * algebra.size)
    with pytest.raises(InvariantViolation, match="not bijective"):
        stone_representation(powerset_algebra(2))


def _phi_with_a_stray_point(monkeypatch, element: int) -> None:
    """Give the phi mask of ``element`` a bit outside the dual space, so
    that it is no clopen of it."""
    real = duality.phi_table

    def stray(algebra):
        table = list(real(algebra))
        table[element] |= 1 << len(ultrafilters(algebra))
        return tuple(table)

    monkeypatch.setattr(duality, "phi_table", stray)


def test_representation_of_a_mask_that_is_no_clopen_is_a_library_bug(monkeypatch):
    _phi_with_a_stray_point(monkeypatch, 2)
    with pytest.raises(InvariantViolation) as info:
        stone_representation(powerset_algebra(2))
    assert str(info.value) == "phi of an element is not a clopen; witness=2"


def test_representation_of_a_mask_that_is_no_clopen_is_a_failed_row(monkeypatch):
    _phi_with_a_stray_point(monkeypatch, 0)
    inst = algebra_instance(1)
    assert [(c.name, c.verdict) for c in inst.checks] == [
        ("canonical_extension_dense", "pass"),
        ("canonical_extension_compact", "pass"),
        ("representation_is_isomorphism", "fail"),
    ]
    assert inst.checks[-1].witness == {"error": "phi of an element is not a clopen; witness=0"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clopen_algebra_of_dual_has_same_size(n):
    algebra = powerset_algebra(n)
    assert clopen_algebra(dual_space(algebra)).algebra.size == algebra.size


def test_dual_functor_on_compositions():
    algebras = [powerset_algebra(1), powerset_algebra(2)]
    for b1, b2, b3 in itertools.product(algebras, repeat=3):
        for h in all_homs(b1, b2):
            for g in all_homs(b2, b3):
                lhs = dual_map(compose_homs(g, h))
                rhs = compose_continuous(dual_map(h), dual_map(g))
                assert lhs.table == rhs.table


def test_continuous_functor_on_compositions():
    spaces = [discrete_space(("a",)), discrete_space(("a", "b"))]
    for x, y, z in itertools.product(spaces, repeat=3):
        for ft in itertools.product(range(y.size), repeat=x.size):
            for gt in itertools.product(range(z.size), repeat=y.size):
                f = continuous_map(x, y, ft)
                g = continuous_map(y, z, gt)
                lhs = dual_of_continuous(compose_continuous(g, f))
                rhs = compose_homs(dual_of_continuous(f), dual_of_continuous(g))
                assert lhs.table == rhs.table


def test_round_trip_naturality_square():
    # dual_of_continuous(dual_map(h)) equals h conjugated by the
    # representation isomorphisms on both sides
    for k1, k2 in itertools.product([1, 2, 3], repeat=2):
        b1, b2 = powerset_algebra(k1), powerset_algebra(k2)
        rep1, rep2 = stone_representation(b1), stone_representation(b2)
        for h in all_homs(b1, b2):
            back = dual_of_continuous(dual_map(h))
            for a in range(b1.size):
                assert back.table[rep1[a]] == rep2[h.table[a]]


def test_hat_phi_at_bounds():
    algebra = powerset_algebra(2)
    ufs = ultrafilters(algebra)
    assert hat_phi_point_mask(algebra, 0) == 0
    everything = hat_phi_point_mask(algebra, (1 << len(ufs)) - 1)
    assert everything == (1 << len(ultrafilters(powerset_algebra(2)))) - 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hat_phi_table_lists_every_point_mask(k):
    algebra = powerset_algebra(k)
    table = hat_phi_table(algebra)
    assert len(table) == 1 << k
    for a in range(1 << k):
        assert table[a] == hat_phi_point_mask(algebra, a)


def test_hat_phi_of_singleton_is_principal_point():
    algebra = powerset_algebra(2)
    ufs = ultrafilters(algebra)
    hits = hat_phi_point_mask(algebra, 1)  # the singleton {u0}
    assert hits.bit_count() == 1
    # the hit is the principal ultrafilter of P(Uf(B)) at the atom {u0},
    # whose element mask in the powerset over the point order is 1
    nabla = ultrafilters(powerset_algebra(len(ufs)))[hits.bit_length() - 1]
    assert nabla.atom == 1
