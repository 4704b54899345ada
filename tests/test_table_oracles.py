"""The table-at-a-time arrows against the per-entry computations they replace.

Each reference below is the earlier per-entry code, kept literally: the
per-set preimage sum (``ref_preimage_mask``), the
per-ultrafilter sums of the ultrafilter lift, the per-subset double-dual
scan, the per-set forward image, the pair-by-pair homomorphism-law loop
of the battery, and the filter-quantified double loop of ``sigma_extend``.
The tables must agree with them exactly, including the first witness and
the exception raised on corrupted input.  ``algebra.atom_additive``, the
battery's fast test of the hom laws and of the isomorphism law, must
accept exactly the tables that the pair loop passes, whatever ints they
hold.
"""

import itertools
import random
from functools import reduce
from operator import and_
from pathlib import Path
from types import SimpleNamespace

import pytest

import stonecheck.algebra as algebra
import stonecheck.checks as checks
import stonecheck.harness as harness
from helpers import (
    export_presentation,
    identity_hom,
    members_of,
    replace,
    validate_boolean_algebra,
)
from stonecheck.algebra import (
    MAX_ATOMS,
    BoolHom,
    _preimage_table,
    all_filters,
    all_homs,
    atom_additive,
    boolean_algebra_of_up_sets,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.compactification import beta_lift, beta_space, extension_candidates
from stonecheck.duality import (
    FinStoneSpace,
    continuous_map,
    discrete_space,
    dual_map,
    hat_phi_table,
    phi_table,
    ultrafilter_rows,
    validate_stone,
)
from stonecheck.documents import parse_document
from stonecheck.errors import BoundExceeded, InvariantViolation, NoClopenPreimage, NotStone
from stonecheck.checks import _forward_images, _hom_law_witness
from stonecheck.extension import _filter_plan, sigma_extend
from stonecheck.harness import build_diagram, double_dual_map

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"
RELABELLED_FIVE = Path(__file__).resolve().parent / "data/relabelled_five.json"


def homs_up_to(atoms):
    for k1, k2 in itertools.product(range(1, atoms + 1), repeat=2):
        yield from all_homs(powerset_algebra(k1), powerset_algebra(k2))


def reference_lift_table(f, bx, by):
    ny = by.base.size
    index = {members_of(u.members): k for k, u in enumerate(by.points_as_ultrafilters)}
    table = []
    for nabla in bx.points_as_ultrafilters:
        members = members_of(nabla.members)
        image_members = frozenset(
            mb
            for mb in range(1 << ny)
            if sum(1 << i for i, v in enumerate(f) if mb >> v & 1) in members
        )
        table.append(index[image_members])
    return tuple(table)


def reference_double_dual_map(diagram, subset_mask, hat_phi_table=hat_phi_table):
    (hom,) = diagram.homs
    upstairs = hat_phi_table(hom.source)[subset_mask]
    pre = sum(
        1 << d
        for d, img in enumerate(diagram.h_star_beta.table)
        if upstairs >> img & 1
    )
    matches = [
        b for b, image in enumerate(hat_phi_table(hom.target)) if image == pre
    ]
    if not matches:
        raise NoClopenPreimage("preimage is not the embedding of any subset", subset_mask)
    if len(matches) > 1:
        raise InvariantViolation("double-dual image is not unique", subset_mask)
    return matches[0]


def reference_forward_image(member_mask, table):
    out = 0
    for x, v in enumerate(table):
        if member_mask >> x & 1:
            out |= 1 << v
    return out


def reference_hom_law(sigma_table, n1, n2):
    full1 = (1 << n1) - 1
    full2 = (1 << n2) - 1
    hom_law = {"law": "bounds"} if sigma_table[0] != 0 or sigma_table[full1] != full2 else None
    for a in range(1 << n1):
        for b in range(1 << n1):
            if sigma_table[a & b] != sigma_table[a] & sigma_table[b]:
                hom_law = hom_law or {"law": "meet", "pair": [a, b]}
            if sigma_table[a | b] != sigma_table[a] | sigma_table[b]:
                hom_law = hom_law or {"law": "join", "pair": [a, b]}
        if sigma_table[full1 ^ a] != full2 ^ sigma_table[a]:
            hom_law = hom_law or {"law": "complement", "element": a}
    return hom_law


def ref_preimage_mask(table, target_mask):
    return sum(1 << i for i, v in enumerate(table) if target_mask >> v & 1)


def test_preimage_table_matches_preimage_mask_on_random_tables():
    rng = random.Random(6)
    for _ in range(300):
        source = discrete_space(range(rng.randint(1, 5)))
        target = discrete_space(range(rng.randint(1, 5)))
        table = tuple(rng.randrange(target.size) for _ in range(source.size))
        f = continuous_map(source, target, table)
        expected = [ref_preimage_mask(table, m) for m in range(1 << target.size)]
        assert _preimage_table(table, target.size) == expected
        assert list(f.preimages) == expected


@pytest.mark.parametrize("points, target_size", [(2, 20), (MAX_ATOMS + 1, 2)])
def test_a_preimage_table_above_the_point_cap_is_refused_before_any_column(points, target_size):
    # the subset columns are cached per point count, so a target above the
    # cap must not reach them; the refusal is topology's, for the first
    # space above the cap in the order continuity reads them
    held = algebra._member_columns.cache_info().currsize
    table = tuple(range(points)) if points <= target_size else (0,) * points
    with pytest.raises(BoundExceeded) as info:
        _preimage_table(table, target_size)
    assert str(info.value).startswith(f"Stone spaces capped at {MAX_ATOMS} points")
    assert info.value.witness == max(points, target_size)
    with pytest.raises(BoundExceeded) as via_map:
        continuous_map(discrete_space(range(points)), discrete_space(range(target_size)), table)
    assert str(via_map.value) == str(info.value)
    assert algebra._member_columns.cache_info().currsize == held


@pytest.mark.parametrize("nx, ny", list(itertools.product([1, 2, 3, 4], repeat=2)))
def test_lift_table_matches_per_ultrafilter_sums(nx, ny):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    by = beta_space(tuple(f"y{i}" for i in range(ny)))
    for f in itertools.product(range(ny), repeat=nx):
        assert tuple(beta_lift(f, bx, by).table) == reference_lift_table(f, bx, by)


def test_forward_images_match_per_set_images():
    rng = random.Random(6)
    for _ in range(200):
        table = tuple(rng.randrange(5) for _ in range(rng.randint(1, 5)))
        expected = [reference_forward_image(m, table) for m in range(1 << len(table))]
        assert list(_forward_images(table)) == expected


def test_double_dual_table_matches_per_subset_scan_up_to_three_atoms():
    count = 0
    for hom in homs_up_to(3):
        diagram = build_diagram(hom)
        n1 = len(ultrafilters(hom.source))
        expected = tuple(reference_double_dual_map(diagram, a) for a in range(1 << n1))
        assert tuple(diagram.double_dual) == expected
        assert tuple(double_dual_map(diagram, a) for a in range(1 << n1)) == expected
        count += 1
    assert count == 56


def test_fibres_invert_the_hat_phi_table():
    for k in range(1, 5):
        table = hat_phi_table(powerset_algebra(k))
        fibres = harness._diagram_side(powerset_algebra(k)).fibres
        assert sorted(fibres) == sorted(set(table))
        for points, subsets in fibres.items():
            assert subsets == tuple(b for b, image in enumerate(table) if image == points)


def raised_by(compute):
    try:
        compute()
    except (NoClopenPreimage, InvariantViolation) as exc:
        return type(exc), exc.witness
    return None


@pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (0, 3), (3, 0)])
def test_corrupted_hat_phi_table_raises_as_the_scan_did(monkeypatch, i, j):
    # entry i copies entry j: the old image of i has no subset and the image
    # of j has two, whichever the double dual meets first
    real = hat_phi_table

    def corrupted(algebra):
        table = list(real(algebra))
        table[i] = table[j]
        return tuple(table)

    # the diagram path reads the table off each algebra's side record,
    # whose fibres are derived from it when the record is made
    real_side = harness._diagram_side
    two = powerset_algebra(2)
    kinds = set()
    for hom in [*all_homs(two, two), *all_homs(two, powerset_algebra(3))]:
        diagram = build_diagram(hom)
        n1 = len(ultrafilters(hom.source))
        expected = raised_by(
            lambda: [reference_double_dual_map(diagram, a, corrupted) for a in range(1 << n1)]
        )
        monkeypatch.setattr(
            harness,
            "_diagram_side",
            lambda algebra: replace(real_side(algebra), hat_phi=corrupted(algebra)),
        )
        assert raised_by(lambda: build_diagram(hom)) == expected
        monkeypatch.undo()
        kinds.add(expected and expected[0])
    assert kinds & {NoClopenPreimage, InvariantViolation}


def test_corrupted_fibres_raise(monkeypatch):
    # the fibres are derived when a side record is made, so each corrupted
    # copy is a stand-in with the record's fields
    hom = identity_hom(powerset_algebra(2))
    side = harness._diagram_side(hom.target)
    target_table = side.hat_phi

    def with_fibres(fibres):
        fields = dict(beta=side.beta, hat_phi=target_table, bit_rows=side.bit_rows)
        inverse, unmatched = harness._fibre_tables(fibres)
        return lambda algebra: SimpleNamespace(
            **fields, fibres=fibres, inverse=inverse, unmatched=unmatched
        )

    missing = dict(side.fibres)
    del missing[target_table[3]]
    monkeypatch.setattr(harness, "_diagram_side", with_fibres(missing))
    with pytest.raises(NoClopenPreimage):
        build_diagram(hom)
    doubled = dict(side.fibres)
    doubled[target_table[1]] += (2,)
    monkeypatch.setattr(harness, "_diagram_side", with_fibres(doubled))
    with pytest.raises(InvariantViolation):
        build_diagram(hom)


def corrupted_tables(table, full2):
    """Every table with one entry changed to another value, in or out of range."""
    for position, original in enumerate(table):
        for value in [*range(full2 + 1), full2 + 1, 256, -1]:
            if value != original:
                yield table[:position] + (value,) + table[position + 1 :]


def test_hom_law_scan_gives_the_loop_witness_on_corrupted_sigma_tables():
    laws = set()
    homs = list(homs_up_to(3))
    rng = random.Random(6)
    homs += rng.sample(list(all_homs(powerset_algebra(4), powerset_algebra(4))), 12)
    for hom in homs:
        n1, n2 = len(ultrafilters(hom.source)), len(ultrafilters(hom.target))
        sigma_table = sigma_extend(hom)
        assert _hom_law_witness(sigma_table, n1, n2) is None
        for table in corrupted_tables(sigma_table, (1 << n2) - 1):
            witness = _hom_law_witness(table, n1, n2)
            assert witness == reference_hom_law(table, n1, n2)
            laws.add(witness["law"])
    assert laws == {"bounds", "meet", "join"}


def assert_fast_path_agrees(table, n1, n2):
    # read through the checks module, so that a mutant bound there runs
    expected = reference_hom_law(table, n1, n2)
    assert checks.atom_additive(table, n1, n2) == (expected is None), table
    assert checks._hom_law_witness(table, n1, n2) == expected, table
    return expected


@pytest.mark.parametrize("n1, n2", list(itertools.product(range(3), repeat=2)))
def test_hom_law_fast_path_is_the_pair_loop_on_every_small_table(n1, n2):
    # every table whose entries lie in the target, one past it, at 256 or at -1
    full2 = (1 << n2) - 1
    values = [-1, *range(full2 + 2), 256]
    homs = 0
    for table in itertools.product(values, repeat=1 << n1):
        homs += assert_fast_path_agrees(table, n1, n2) is None
    assert homs == n1**n2
    # the battery's test of a block: every table with byte entries as one
    # lane, each flagged exactly when it breaks a law
    tables = list(itertools.product(range(full2 + 2), repeat=1 << n1))
    block = bytes(v for entry in zip(*tables) for v in entry)
    lawless = {j for j, table in enumerate(tables) if reference_hom_law(table, n1, n2)}
    assert algebra._lawless_lanes(block, n1, n2, len(tables)) == sorted(lawless)


def test_a_sigma_table_that_atom_additivity_rejects_is_a_library_bug(monkeypatch):
    # every law holds, so the loop names no witness: the two tests disagree
    monkeypatch.setattr(checks, "atom_additive", lambda *args: False)
    with pytest.raises(InvariantViolation):
        checks._hom_law_witness((0, 1, 2, 3), 2, 2)


def test_hom_law_fast_path_is_the_pair_loop_on_twice_corrupted_sigma_tables():
    rng = random.Random(18)
    laws = set()
    for hom in homs_up_to(3):
        n1, n2 = hom.source.atom_count, hom.target.atom_count
        full2 = (1 << n2) - 1
        table = list(sigma_extend(hom))
        for _ in range(40):
            corrupted = list(table)
            for i in rng.sample(range(1 << n1), min(2, 1 << n1)):
                corrupted[i] = rng.choice([-5, -1, *range(full2 + 1), full2 + 1, 256, 1000])
            witness = assert_fast_path_agrees(corrupted, n1, n2)
            laws.add(witness and witness["law"])
    # a table that keeps the bounds and the meet and join of a with its
    # complement keeps that complement too, so no complement witness comes up
    assert laws == {None, "bounds", "meet", "join"}


def reference_sigma_table(h):
    """For every point set A, the union over all filters of the source whose
    embedded intersection lies inside A of the intersection of the embedded
    images of their members: one pass over the filters per set."""
    src, dst = h.source, h.target
    n1 = len(ultrafilters(src))
    n2 = len(ultrafilters(dst))
    phi1 = phi_table(src)
    phi2 = phi_table(dst)
    full2 = (1 << n2) - 1
    contributions = []
    for F in all_filters(src.lattice):
        inter1 = (1 << n1) - 1
        inter2 = full2
        for a in members_of(F):
            inter1 &= phi1[a]
            inter2 &= phi2[h.table[a]]
        contributions.append((inter1, inter2))
    table = []
    for A in range(1 << n1):
        out = 0
        for inter1, inter2 in contributions:
            if inter1 & ~A == 0:
                out |= inter2
        table.append(out)
    return tuple(table)


def up_set_powerset(atoms, rng):
    """The powerset algebra on a shuffled carrier, given to the constructor
    as up-set masks: carrier index ``perm[m]`` holds the element with atom
    mask m."""
    size = 1 << atoms
    perm = list(range(size))
    rng.shuffle(perm)
    up = [0] * size
    comp = [0] * size
    for m in range(size):
        up[perm[m]] = sum(1 << perm[k] for k in range(size) if m & ~k == 0)
        comp[perm[m]] = perm[(size - 1) ^ m]
    return boolean_algebra_of_up_sets(up, comp)


def test_sigma_extend_matches_the_filter_loop_on_every_hom_up_to_four_atoms():
    homs = list(homs_up_to(4))
    assert len(homs) == 494
    for h in homs:
        assert sigma_extend(h) == reference_sigma_table(h)


def test_sigma_extend_matches_the_filter_loop_on_shuffled_presentations():
    rng = random.Random(13)
    algebras = [up_set_powerset(atoms, rng) for atoms in (1, 2, 3, 4) for _ in range(2)]
    # on a powerset an element's index is its atom mask, which hides confusions
    assert sum(alg.atom_mask != tuple(range(alg.size)) for alg in algebras) >= 6
    count = 0
    for source, target in itertools.product(algebras, repeat=2):
        for h in all_homs(source, target):
            assert sigma_extend(h) == reference_sigma_table(h)
            count += 1
    assert count == 4 * 494


def test_sigma_extend_matches_the_filter_loop_on_a_sample_of_five_atom_homs():
    rng = random.Random(17)
    five = powerset_algebra(5)
    count = 0
    for k in range(1, 6):
        other = powerset_algebra(k)
        for source, target in ((five, other), (other, five)):
            for _ in range(5):
                g = [rng.randrange(source.atom_count) for _ in range(target.atom_count)]
                h = hom_from_atom_function(source, target, g)
                assert sigma_extend(h) == reference_sigma_table(h)
                count += 1
    assert count == 50


def test_sigma_extend_matches_the_filter_loop_on_the_relabelled_five_atom_document():
    doc = parse_document(RELABELLED_FIVE.read_text())
    five = doc.algebra("five")
    assert five.atom_count == 5 and five.atom_mask != tuple(range(five.size))
    rng = random.Random(19)
    count = 0
    for other in doc.algebras.values():
        for source, target in ((five, other), (other, five)):
            for _ in range(8):
                g = [rng.randrange(source.atom_count) for _ in range(target.atom_count)]
                h = hom_from_atom_function(source, target, g)
                assert sigma_extend(h) == reference_sigma_table(h)
                count += 1
    assert count == 48


def test_filter_plan_splits_each_filter_into_its_generator_and_maximal_subfilters():
    # n * 2**(n - 1) subfilter reads in all, against 3**n members
    rng = random.Random(23)
    algebras = [powerset_algebra(k) for k in range(1, 6)]
    algebras += [up_set_powerset(k, rng) for k in range(1, 6)]
    for algebra in algebras:
        filters = all_filters(algebra.lattice)
        plan, inters = _filter_plan(algebra)
        assert sorted(k for k, _, _ in plan) == list(range(len(filters)))
        # each filter's embedded intersection, from the Stone embedding of
        # every member
        phi = phi_table(algebra)
        assert inters == tuple(
            reduce(and_, (phi[a] for a in range(algebra.size) if f >> a & 1)) for f in filters
        )
        done = set()
        lattice = algebra.lattice
        sets = [members_of(f) for f in filters]
        for k, g, subfilters in plan:
            members = sets[k]
            # the elements above g, read off the meet table
            assert members == {j for j in range(algebra.size) if lattice.meet[g][j] == g}
            assert done.issuperset(subfilters)
            assert members == {g}.union(*(sets[j] for j in subfilters))
            for j in subfilters:
                assert sets[j] < members
                assert not any(sets[j] < f < members for f in sets)
            done.add(k)
        n = algebra.atom_count
        assert sum(len(subfilters) for _, _, subfilters in plan) == n << n >> 1


def test_each_space_is_validated_once():
    # fresh copies of the powerset algebras, so that their dual spaces and
    # the base spaces of their beta spaces are new objects
    fresh = {
        k: validate_boolean_algebra(*export_presentation(powerset_algebra(k))) for k in (1, 2)
    }
    new_spaces, spaces = set(), set()
    before = validate_stone.cache_info()
    for k1, k2 in itertools.product(fresh, repeat=2):
        for hom in all_homs(fresh[k1], fresh[k2]):
            diagram = build_diagram(hom)
            new_spaces |= {
                diagram.h_star.source, diagram.h_star.target, diagram.beta1.base, diagram.beta2.base
            }
            spaces |= new_spaces | {diagram.beta1.space, diagram.beta2.space}
            extension_candidates(diagram.beta2, diagram.lift, diagram.beta1.space)
    after = validate_stone.cache_info()
    misses, hits = after.misses - before.misses, after.hits - before.hits
    assert len(new_spaces) == 4
    assert len(new_spaces) <= misses <= len(spaces)
    assert hits > misses


def test_a_space_that_fails_validation_fails_every_time():
    # two points and no base set: the generated topology is indiscrete
    space = FinStoneSpace(("p", "q"), ())
    for _ in range(2):
        with pytest.raises(NotStone):
            validate_stone(space)


# The byte-row membership tests against the frozenset scans they replace.
# Each reference is the earlier code, kept literally.


def reference_dual_map_table(hom):
    index = {members_of(u.members): i for i, u in enumerate(ultrafilters(hom.source))}
    table = []
    for v in ultrafilters(hom.target):
        members = members_of(v.members)
        pre = frozenset(a for a in range(hom.source.size) if hom.table[a] in members)
        if pre not in index:
            raise InvariantViolation("hom preimage of an ultrafilter is not one", pre)
        table.append(index[pre])
    return tuple(table)


def reference_beta_lift_table(f, bx, by):
    ny = by.base.size
    index = {members_of(u.members): k for k, u in enumerate(by.points_as_ultrafilters)}
    pre = _preimage_table(f, ny)
    table = []
    for nabla in bx.points_as_ultrafilters:
        members = members_of(nabla.members)
        image_members = frozenset(mb for mb in range(1 << ny) if pre[mb] in members)
        if image_members not in index:
            raise InvariantViolation("lifted set is not an ultrafilter", image_members)
        table.append(index[image_members])
    return tuple(table)


def reference_preimage_membership(h, diagram):
    members2 = [members_of(u.members) for u in diagram.beta2.points_as_ultrafilters]
    return next(
        (
            {"subset_mask": a, "point": d}
            for a, upstairs in enumerate(hat_phi_table(h.source))
            for d, img in enumerate(diagram.h_star_beta.table)
            if bool(upstairs >> img & 1) != (diagram.h_star.preimages[a] in members2[d])
        ),
        None,
    )


def shuffled_powerset(atoms, rng):
    """The powerset algebra presented on a shuffled carrier."""
    size = 1 << atoms
    perm = list(range(size))
    rng.shuffle(perm)
    pairs = [(perm[m], perm[k]) for m in range(size) for k in range(size) if m & ~k == 0]
    comp = [0] * size
    for m in range(size):
        comp[perm[m]] = perm[(size - 1) ^ m]
    return validate_boolean_algebra(size, pairs, comp)


def shuffled_homs():
    rng = random.Random(9)
    algebras = [shuffled_powerset(atoms, rng) for atoms in (1, 2, 3, 4)]
    for source, target in itertools.product(algebras, repeat=2):
        for _ in range(4):
            g = [rng.randrange(source.atom_count) for _ in range(target.atom_count)]
            yield hom_from_atom_function(source, target, g)


def sample_homs():
    doc = parse_document(SAMPLE.read_text())
    return list(doc.homs.values())


def every_hom_family():
    return [*homs_up_to(4), *sample_homs(), *shuffled_homs()]


def raised(compute):
    """The computed value, or the class and witness of the InvariantViolation."""
    try:
        return compute()
    except InvariantViolation as exc:
        return InvariantViolation, exc.witness


def battery_witness(h, diagram, name):
    """The witness of one check of the battery on a one-hom diagram."""
    (checks,), _ = harness._lane_checks(diagram, bytes(sigma_extend(h)))
    return next((c.witness for c in checks or () if c.name == name), None)


def membership_check(h, diagram):
    return battery_witness(h, diagram, "preimage_membership_equivalence")


def test_ultrafilter_rows_mark_exactly_the_members_of_every_ultrafilter():
    rng = random.Random(8)
    algebras = [powerset_algebra(k) for k in range(1, 6)]
    algebras += [shuffled_powerset(k, rng) for k in range(1, 6)]
    doc = parse_document(SAMPLE.read_text())
    algebras += doc.algebras.values()
    for algebra in algebras:
        ufs = ultrafilters(algebra)
        rows, indicators = ultrafilter_rows(ufs)
        assert len(rows) == len(indicators) == len(ufs)
        for k, (u, indicator) in enumerate(zip(ufs, indicators)):
            assert len(indicator) == 256
            assert set(indicator) <= {0, 1}
            assert {a for a, inside in enumerate(indicator) if inside} == members_of(u.members)
            assert rows[indicator[: algebra.size]] == k


def test_dual_map_matches_the_frozenset_preimages():
    count = 0
    for hom in every_hom_family():
        assert tuple(dual_map(hom).table) == reference_dual_map_table(hom)
        count += 1
    assert count > 494


def test_dual_map_miss_raises_as_the_frozenset_scan_did():
    # tables that are not homomorphisms, built without validation: the
    # preimage of some ultrafilter is then not an ultrafilter
    rng = random.Random(4)
    misses = 0
    for k1, k2 in itertools.product(range(1, 5), repeat=2):
        source, target = powerset_algebra(k1), powerset_algebra(k2)
        for _ in range(20):
            table = tuple(rng.randrange(target.size) for _ in range(source.size))
            hom = BoolHom(source, target, table)
            expected = raised(lambda: reference_dual_map_table(hom))
            got = raised(lambda: tuple(dual_map(hom).table))
            assert got == expected
            misses += expected[0] is InvariantViolation
    assert misses > 100


def test_dual_map_miss_names_the_preimage_members_without_an_address():
    # the witness is a frozenset of element indices, so the internal-error
    # text is the same in every run
    hom = BoolHom(powerset_algebra(1), powerset_algebra(2), (0, 1))
    with pytest.raises(InvariantViolation) as info:
        dual_map(hom)
    assert info.value.witness == frozenset()
    assert str(info.value) == "hom preimage of an ultrafilter is not one; witness=frozenset()"
    assert "0x" not in str(info.value)


def test_beta_lift_on_every_diagram_matches_the_frozenset_lift():
    for hom in every_hom_family():
        diagram = build_diagram(hom)
        expected = reference_beta_lift_table(diagram.h_star.table, diagram.beta2, diagram.beta1)
        assert tuple(diagram.lift) == expected


def test_forced_beta_lift_miss_raises_with_the_frozenset_witness():
    bx = beta_space(("x0", "x1", "x2"))
    by = beta_space(("y0", "y1"))
    points = by.points_as_ultrafilters
    for dropped in range(len(points)):
        # a target that lacks one point: lifting onto it has no match
        crippled = replace(
            by, points_as_ultrafilters=points[:dropped] + points[dropped + 1 :]
        )
        for f in itertools.product(range(2), repeat=3):
            expected = raised(lambda: reference_beta_lift_table(f, bx, crippled))
            got = raised(lambda: tuple(beta_lift(f, bx, crippled).table))
            assert got == expected
            if got[0] is InvariantViolation:
                assert type(got[1]) is frozenset
                assert got[1] == members_of(points[dropped].members)


def test_preimage_membership_rows_agree_with_the_frozenset_scan():
    for hom in every_hom_family():
        diagram = build_diagram(hom)
        assert membership_check(hom, diagram) is None
        assert reference_preimage_membership(hom, diagram) is None


def membership_faults(diagram):
    """Diagrams with one arrow or one point order wrong."""
    points1 = diagram.beta1.space.size
    table = bytes((v + 1) % points1 for v in diagram.h_star_beta.table)
    pre = bytes(_preimage_table(table, points1))
    yield replace(
        diagram, h_star_beta=replace(diagram.h_star_beta, table=table, preimages=pre)
    )
    yield replace(
        diagram,
        beta2=replace(
            diagram.beta2, points_as_ultrafilters=diagram.beta2.points_as_ultrafilters[::-1]
        ),
    )
    h_star = diagram.h_star
    shifted = bytes((v + 1) % h_star.target.size for v in h_star.table)
    pre = bytes(_preimage_table(shifted, h_star.target.size))
    yield replace(
        diagram, h_star=replace(h_star, table=shifted, preimages=pre)
    )


def test_preimage_membership_rows_give_the_scan_witness_on_faulty_diagrams():
    failures = 0
    for hom in [*homs_up_to(3), *sample_homs(), *shuffled_homs()]:
        for faulty in membership_faults(build_diagram(hom)):
            expected = reference_preimage_membership(hom, faulty)
            assert membership_check(hom, faulty) == expected
            failures += expected is not None
    assert failures > 100


def reference_forward_image_lemma(h, diagram):
    members1 = [members_of(u.members) for u in diagram.beta1.points_as_ultrafilters]
    members2 = [members_of(u.members) for u in diagram.beta2.points_as_ultrafilters]
    images = _forward_images(diagram.h_star.table)
    return next(
        (
            {"point": d, "member_mask": a}
            for d, members in enumerate(members2)
            for a in members
            if images[a] not in members1[diagram.h_star_beta.table[d]]
        ),
        None,
    )


def lemma_check(h, diagram):
    return battery_witness(h, diagram, "forward_image_in_lifted_ultrafilter")


def test_forward_image_rows_agree_with_the_frozenset_scan():
    for hom in every_hom_family():
        diagram = build_diagram(hom)
        assert lemma_check(hom, diagram) is None
        assert reference_forward_image_lemma(hom, diagram) is None


def test_forward_image_rows_give_the_scan_witness_on_faulty_diagrams():
    failures = 0
    for hom in [*homs_up_to(3), *sample_homs(), *shuffled_homs()]:
        for faulty in membership_faults(build_diagram(hom)):
            expected = reference_forward_image_lemma(hom, faulty)
            assert lemma_check(hom, faulty) == expected
            failures += expected is not None
    assert failures > 100


def test_atom_additivity_matches_the_pair_loops_on_bijections():
    # the isomorphism law of the battery tests the inverse table by atom
    # additivity: a bijection of the powerset that carries either operation
    # is an automorphism, so it carries both, and most other bijections
    # carry neither
    rng = random.Random(15)
    verdicts = []
    for n in range(1, 5):
        size = 1 << n
        tables = [
            [sum(1 << atoms[i] for i in range(n) if m >> i & 1) for m in range(size)]
            for atoms in itertools.permutations(range(n))
        ]
        tables += [rng.sample(range(size), size) for _ in range(40)]
        for table in tables:
            additive = atom_additive(table, n, n)
            for apply in (int.__and__, int.__or__):
                expected = all(
                    table[apply(x, y)] == apply(table[x], table[y])
                    for x in range(size)
                    for y in range(size)
                )
                assert additive == expected
                verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_every_arrow_keeps_the_preimage_table_of_its_own_point_table():
    # the search hands the table it accepted on to the extension, and the
    # lift reads the one of h_*: each must be the table of the arrow's points
    for hom in every_hom_family():
        diagram = build_diagram(hom)
        for arrow in (diagram.h_star, diagram.h_star_beta):
            assert list(arrow.preimages) == _preimage_table(arrow.table, arrow.target.size)
        assert tuple(diagram.lift) == reference_beta_lift_table(
            diagram.h_star.table, diagram.beta2, diagram.beta1
        )
