"""Algebra core: validation, generators, filters, ultrafilters, homs.

The fast enumerations are cross-checked against the subset-scanning and
table-scanning oracles of ``helpers``, and the frozen expected values below
were computed with those oracles.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_filters_bruteforce,
    all_homs_bruteforce,
    all_ideals_bruteforce,
    export_presentation,
    identity_hom,
    members_of,
    ultrafilters_bruteforce,
    validate_boolean_algebra,
)
from stonecheck.algebra import (
    MAX_ATOMS,
    all_filters,
    all_homs,
    all_ideals,
    atom_function_of_hom,
    compose_homs,
    fin_lattice,
    fin_poset,
    hom_from_atom_function,
    order_dual,
    poset_of_up_sets,
    powerset_algebra,
    ultrafilters,
    validate_hom,
)
from stonecheck.errors import (
    BoundExceeded,
    ComplementLawFails,
    DegenerateAlgebra,
    NotALattice,
    NotAPoset,
    NotDistributive,
    NotMeetPreserving,
)


def chain_relation(n):
    return [(i, j) for i in range(n) for j in range(n) if i <= j]


def test_two_element_chain_is_smallest_boolean_algebra():
    algebra = validate_boolean_algebra(2, chain_relation(2), [1, 0])
    assert algebra.atom_count == 1
    assert algebra.bottom == 0 and algebra.top == 1
    assert algebra.atoms == (1,)


def test_three_element_chain_has_no_complement_for_middle():
    # whatever the table claims for the middle element breaks a law
    with pytest.raises(ComplementLawFails):
        validate_boolean_algebra(3, chain_relation(3), [2, 1, 0])
    with pytest.raises(ComplementLawFails):
        validate_boolean_algebra(3, chain_relation(3), [2, 0, 0])
    with pytest.raises(ComplementLawFails):
        validate_boolean_algebra(3, chain_relation(3), [2, 2, 0])


def diamond_m3():
    # bottom 0, three incomparable 1/2/3, top 4
    pairs = [(i, i) for i in range(5)]
    pairs += [(0, i) for i in range(1, 5)]
    pairs += [(i, 4) for i in range(1, 4)]
    return pairs


def test_diamond_m3_is_not_distributive():
    with pytest.raises(NotDistributive) as exc:
        validate_boolean_algebra(5, diamond_m3(), [4, 2, 1, 1, 0])
    x, y, z = exc.value.witness
    # independently recheck the witness against the diamond's tables
    lattice = fin_lattice(fin_poset(
        [[(i, j) in set(diamond_m3()) for j in range(5)] for i in range(5)]
    ))
    lhs = lattice.meet[x][lattice.join[y][z]]
    rhs = lattice.join[lattice.meet[x][y]][lattice.meet[x][z]]
    assert lhs != rhs


def test_matrix_and_mask_validators_give_one_poset():
    rows = [[i & ~j == 0 for j in range(8)] for i in range(8)]
    masks = [sum(1 << j for j in range(8) if rows[i][j]) for i in range(8)]
    from_rows, from_masks = fin_poset(rows), poset_of_up_sets(masks)
    assert (from_rows.up, from_rows.down) == (from_masks.up, from_masks.down)
    for bad in ([], [1, 4], [1, -1]):
        with pytest.raises(ValueError):
            poset_of_up_sets(bad)


def test_poset_validation_names_first_witness():
    with pytest.raises(NotAPoset) as exc:
        fin_poset([[False, False], [False, True]])
    assert exc.value.witness == ("reflexivity", 0)
    with pytest.raises(NotAPoset) as exc:
        fin_poset([[True, True], [True, True]])
    assert exc.value.witness == ("antisymmetry", 0, 1)
    with pytest.raises(NotAPoset) as exc:
        fin_poset(
            [
                [True, True, False],
                [False, True, True],
                [False, False, True],
            ]
        )
    assert exc.value.witness[0] == "transitivity"


def test_lattice_validation_rejects_fork():
    # two maximal elements: the pair has no least upper bound
    rows = [
        [True, True, True],
        [False, True, False],
        [False, False, True],
    ]
    with pytest.raises(NotALattice):
        fin_lattice(fin_poset(rows))


def test_powerset_algebra_sizes():
    degenerate = powerset_algebra(0)
    assert degenerate.size == 1 and degenerate.bottom == degenerate.top
    assert degenerate.atoms == ()
    assert powerset_algebra(2).size == 4 and powerset_algebra(2).atom_count == 2
    assert powerset_algebra(3).size == 2**3
    with pytest.raises(BoundExceeded):
        powerset_algebra(6)


def test_powerset_atoms_are_singleton_masks():
    assert powerset_algebra(3).atoms == (1, 2, 4)


def test_all_filters_against_bruteforce_oracle():
    two = powerset_algebra(1)
    fast = {members_of(f) for f in all_filters(two.lattice)}
    assert fast == all_filters_bruteforce(two.lattice)
    assert fast == {frozenset({1}), frozenset({0, 1})}

    four = powerset_algebra(2)
    fast = {members_of(f) for f in all_filters(four.lattice)}
    assert len(fast) == 4
    assert fast == all_filters_bruteforce(four.lattice)

    one = powerset_algebra(0)
    assert [members_of(f) for f in all_filters(one.lattice)] == [frozenset({0})]


def test_all_ideals_against_bruteforce_oracle():
    two = powerset_algebra(1)
    fast = {members_of(i) for i in all_ideals(two.lattice)}
    assert len(fast) == 2
    assert fast == all_ideals_bruteforce(two.lattice)

    four = powerset_algebra(2)
    assert {members_of(i) for i in all_ideals(four.lattice)} == all_ideals_bruteforce(
        four.lattice
    )

    one = powerset_algebra(0)
    assert [members_of(i) for i in all_ideals(one.lattice)] == [frozenset({0})]


# a three-element chain and the pentagon N5 (0 < 1 < 2 < 4, 0 < 3 < 4)
CHAIN = [[i <= j for j in range(3)] for i in range(3)]
PENTAGON = [
    [i == 0 or j == 4 or i == j or (i, j) == (1, 2) for j in range(5)] for i in range(5)
]


SUBSETS_OF_TWO = [[i & ~j == 0 for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "rows", [CHAIN, PENTAGON, SUBSETS_OF_TWO], ids=["chain", "pentagon", "subsets"]
)
def test_order_dual_is_the_validated_reversed_order(rows):
    lattice = fin_lattice(fin_poset(rows))
    dual = order_dual(lattice)
    reversed_rows = [[rows[j][i] for j in range(len(rows))] for i in range(len(rows))]
    rebuilt = fin_lattice(fin_poset(reversed_rows))
    assert (dual.poset.up, dual.poset.down) == (rebuilt.poset.up, rebuilt.poset.down)
    assert (dual.meet, dual.join, dual.bottom, dual.top) == (
        rebuilt.meet,
        rebuilt.join,
        rebuilt.bottom,
        rebuilt.top,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_filter_is_principal(n):
    lattice = powerset_algebra(n).lattice
    # the elements above (below) the generator, read off the meet (join) table
    for f in map(members_of, all_filters(lattice)):
        generator = lattice.meet_all(f)
        assert f == {j for j in range(lattice.size) if lattice.meet[generator][j] == generator}
    for i in map(members_of, all_ideals(lattice)):
        generator = lattice.join_all(i)
        assert i == {j for j in range(lattice.size) if lattice.join[j][generator] == generator}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ultrafilters_match_maximality_oracle(n):
    algebra = powerset_algebra(n)
    fast = {members_of(u.members) for u in ultrafilters(algebra)}
    assert fast == ultrafilters_bruteforce(algebra)
    assert len(ultrafilters(algebra)) == len(algebra.atoms)
    # the least element of each ultrafilter is its atom, bijectively
    leasts = [algebra.lattice.meet_all(members_of(u.members)) for u in ultrafilters(algebra)]
    assert sorted(leasts) == sorted(algebra.atoms)


def test_ultrafilter_counts():
    assert len(ultrafilters(powerset_algebra(1))) == 1
    assert [sorted(members_of(u.members)) for u in ultrafilters(powerset_algebra(1))] == [[1]]
    assert len(ultrafilters(powerset_algebra(2))) == 2
    assert len(ultrafilters(powerset_algebra(3))) == 3


def test_degenerate_algebra_has_no_ultrafilters():
    with pytest.raises(DegenerateAlgebra):
        ultrafilters(powerset_algebra(0))
    with pytest.raises(DegenerateAlgebra):
        ultrafilters_bruteforce(powerset_algebra(0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ultrafilter_dichotomy(n):
    algebra = powerset_algebra(n)
    for u in ultrafilters(algebra):
        inside = members_of(u.members)
        for a in range(algebra.size):
            assert (a in inside) != (algebra.complement[a] in inside)


def test_validate_hom_accepts_identity():
    four = powerset_algebra(2)
    hom = identity_hom(four)
    assert hom.table == (0, 1, 2, 3)


def test_constant_to_top_is_rejected_at_bottom():
    four = powerset_algebra(2)
    with pytest.raises(NotMeetPreserving) as exc:
        validate_hom([3, 3, 3, 3], four, four)
    assert exc.value.witness == ("bottom", 0)


def test_preimage_of_inclusion_is_a_hom():
    # elements of P({x, y}) as sets, mapped by U -> U & {x}; this is the
    # preimage of the inclusion {x} -> {x, y}, built here with actual sets
    universe = [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]
    small = [frozenset(), frozenset({"x"})]
    table = [small.index(u & {"x"}) for u in universe]
    hom = validate_hom(table, powerset_algebra(2), powerset_algebra(1))
    assert hom.table == (0, 1, 0, 1)


def test_all_homs_counts_match_duality_formula():
    two = powerset_algebra(1)
    four = powerset_algebra(2)
    assert len(all_homs(two, two)) == 1
    assert len(all_homs(four, two)) == 2
    assert len(all_homs(two, four)) == 1
    for k1, k2 in itertools.product([1, 2, 3], repeat=2):
        homs = all_homs(powerset_algebra(k1), powerset_algebra(k2))
        assert len(homs) == k1**k2


@pytest.mark.parametrize(
    "k1, k2",
    [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)],
)
def test_all_homs_against_table_scan_oracle(k1, k2):
    b1, b2 = powerset_algebra(k1), powerset_algebra(k2)
    fast = {h.table for h in all_homs(b1, b2)}
    assert fast == all_homs_bruteforce(b1, b2)


def test_all_homs_bound():
    # every hom between two algebras at the cap; none above it can be built
    top = powerset_algebra(MAX_ATOMS)
    assert len({h.table for h in all_homs(top, top)}) == MAX_ATOMS**MAX_ATOMS == 3125
    with pytest.raises(BoundExceeded):
        powerset_algebra(MAX_ATOMS + 1)


def test_atom_function_round_trip():
    b1, b2 = powerset_algebra(3), powerset_algebra(2)
    for g in itertools.product(range(3), repeat=2):
        hom = hom_from_atom_function(b1, b2, g)
        assert atom_function_of_hom(hom) == g


def test_compose_homs():
    two, four = powerset_algebra(1), powerset_algebra(2)
    embed = hom_from_atom_function(two, four, (0, 0))
    collapse = hom_from_atom_function(four, two, (0,))
    assert compose_homs(collapse, embed).table == identity_hom(two).table


def test_export_round_trip_is_identity():
    for n in [1, 2, 3]:
        algebra = powerset_algebra(n)
        size, pairs, comp = export_presentation(algebra)
        again = validate_boolean_algebra(size, pairs, comp)
        assert again.atom_mask == algebra.atom_mask
        assert again.complement == algebra.complement


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(4)))
def test_relabeled_presentation_revalidates(perm):
    # permute the carrier of the 4-element algebra and validate the result
    algebra = powerset_algebra(2)
    size, pairs, comp = export_presentation(algebra)
    pairs = [(perm[i], perm[j]) for i, j in pairs]
    relabeled_comp = [0] * size
    for i in range(size):
        relabeled_comp[perm[i]] = perm[comp[i]]
    again = validate_boolean_algebra(size, pairs, relabeled_comp)
    assert sorted(again.atom_mask) == sorted(algebra.atom_mask)
    assert again.atom_count == 2
