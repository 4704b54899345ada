"""The table-at-a-time arrows against the per-entry computations they replace.

Each reference below is the earlier per-entry code, kept literally: the
per-set preimage sum (once ``ContinuousMap.preimage_mask``), the
per-ultrafilter sums of the ultrafilter lift, the per-subset double-dual
scan, the per-set forward image, and the pair-by-pair homomorphism-law loop
of the battery.  The
tables must agree with them exactly, including the first witness and the
exception raised on corrupted input.
"""

import dataclasses
import itertools
import random
from pathlib import Path

import pytest

import stonecheck.harness as harness
from stonecheck.algebra import (
    BoolHom,
    _preimage_table,
    all_homs,
    export_presentation,
    hom_from_atom_function,
    identity_hom,
    powerset_algebra,
    ultrafilters,
    validate_boolean_algebra,
)
from stonecheck.compactification import beta_lift, beta_space, extension_candidates
from stonecheck.duality import (
    ContinuousMap,
    _hat_phi_fibres,
    discrete_space,
    dual_map,
    hat_phi_table,
    stone_space,
    validate_stone,
)
from stonecheck.documents import parse_document
from stonecheck.errors import InvariantViolation, NoClopenPreimage, NotStone
from stonecheck.extension import sigma_extend
from stonecheck.harness import (
    _forward_images,
    _hom_law_witness,
    build_diagram,
    double_dual_map,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"


def homs_up_to(atoms):
    for k1, k2 in itertools.product(range(1, atoms + 1), repeat=2):
        yield from all_homs(powerset_algebra(k1), powerset_algebra(k2))


def reference_lift_table(f, bx, by):
    ny = by.base.size
    index = {u.members: k for k, u in enumerate(by.points_as_ultrafilters)}
    table = []
    for nabla in bx.points_as_ultrafilters:
        image_members = frozenset(
            mb
            for mb in range(1 << ny)
            if sum(1 << i for i, v in enumerate(f) if mb >> v & 1) in nabla.members
        )
        table.append(index[image_members])
    return tuple(table)


def reference_double_dual_map(bundle, subset_mask, hat_phi_table=hat_phi_table):
    upstairs = hat_phi_table(bundle.hom.source)[subset_mask]
    pre = sum(
        1 << d
        for d, img in enumerate(bundle.h_star_beta.table)
        if upstairs >> img & 1
    )
    matches = [
        b for b, image in enumerate(hat_phi_table(bundle.hom.target)) if image == pre
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
        f = ContinuousMap(source, target, table)
        expected = [ref_preimage_mask(table, m) for m in range(1 << target.size)]
        assert _preimage_table(table, target.size) == expected
        assert f.preimages == expected


@pytest.mark.parametrize("nx, ny", list(itertools.product([1, 2, 3, 4], repeat=2)))
def test_lift_table_matches_per_ultrafilter_sums(nx, ny):
    bx = beta_space(tuple(f"x{i}" for i in range(nx)))
    by = beta_space(tuple(f"y{i}" for i in range(ny)))
    for f in itertools.product(range(ny), repeat=nx):
        assert beta_lift(f, bx, by).table == reference_lift_table(f, bx, by)


def test_forward_images_match_per_set_images():
    rng = random.Random(6)
    for _ in range(200):
        table = tuple(rng.randrange(5) for _ in range(rng.randint(1, 5)))
        expected = [reference_forward_image(m, table) for m in range(1 << len(table))]
        assert _forward_images(table) == expected


def test_double_dual_table_matches_per_subset_scan_up_to_three_atoms():
    count = 0
    for hom in homs_up_to(3):
        bundle = build_diagram(hom)
        n1 = len(ultrafilters(hom.source))
        expected = tuple(reference_double_dual_map(bundle, a) for a in range(1 << n1))
        assert bundle.double_dual == expected
        assert tuple(double_dual_map(bundle, a) for a in range(1 << n1)) == expected
        count += 1
    assert count == 56


def test_fibres_invert_the_hat_phi_table():
    for k in range(1, 5):
        table = hat_phi_table(powerset_algebra(k))
        fibres = _hat_phi_fibres(table)
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

    two = powerset_algebra(2)
    kinds = set()
    for hom in [*all_homs(two, two), *all_homs(two, powerset_algebra(3))]:
        bundle = build_diagram(hom)
        n1 = len(ultrafilters(hom.source))
        expected = raised_by(
            lambda: [reference_double_dual_map(bundle, a, corrupted) for a in range(1 << n1)]
        )
        monkeypatch.setattr(harness, "hat_phi_table", corrupted)
        assert raised_by(lambda: build_diagram(hom)) == expected
        monkeypatch.undo()
        kinds.add(expected and expected[0])
    assert kinds & {NoClopenPreimage, InvariantViolation}


def test_corrupted_fibres_raise(monkeypatch):
    hom = identity_hom(powerset_algebra(2))
    target_table = hat_phi_table(hom.target)
    missing = dict(_hat_phi_fibres(target_table))
    del missing[target_table[3]]
    monkeypatch.setattr(harness, "_hat_phi_fibres", lambda table: missing)
    with pytest.raises(NoClopenPreimage):
        build_diagram(hom)
    doubled = dict(_hat_phi_fibres(target_table))
    doubled[target_table[1]] += (2,)
    monkeypatch.setattr(harness, "_hat_phi_fibres", lambda table: doubled)
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
        sigma_table = sigma_extend(hom).table
        assert _hom_law_witness(sigma_table, n1, n2) is None
        for table in corrupted_tables(sigma_table, (1 << n2) - 1):
            witness = _hom_law_witness(table, n1, n2)
            assert witness == reference_hom_law(table, n1, n2)
            laws.add(witness["law"])
    assert laws == {"bounds", "meet", "join"}


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
            bundle = build_diagram(hom)
            new_spaces |= {
                bundle.h_star.source, bundle.h_star.target, bundle.beta1.base, bundle.beta2.base
            }
            spaces |= new_spaces | {bundle.beta1.space, bundle.beta2.space}
            extension_candidates(bundle.beta2, bundle.lift, bundle.beta1.space)
    after = validate_stone.cache_info()
    misses, hits = after.misses - before.misses, after.hits - before.hits
    assert len(new_spaces) == 4
    assert len(new_spaces) <= misses <= len(spaces)
    assert hits > misses


def test_a_space_that_fails_validation_fails_every_time():
    # two points and no base set: the generated topology is indiscrete
    space = stone_space(("p", "q"), [])
    for _ in range(2):
        with pytest.raises(NotStone):
            validate_stone(space)


# The byte-row membership tests against the frozenset scans they replace.
# Each reference is the earlier code, kept literally.


def reference_dual_map_table(hom):
    index = {u.members: i for i, u in enumerate(ultrafilters(hom.source))}
    table = []
    for v in ultrafilters(hom.target):
        pre = frozenset(a for a in range(hom.source.size) if hom.table[a] in v.members)
        if pre not in index:
            raise InvariantViolation("hom preimage of an ultrafilter is not one", v)
        table.append(index[pre])
    return tuple(table)


def reference_beta_lift_table(f, bx, by):
    ny = by.base.size
    index = {u.members: k for k, u in enumerate(by.points_as_ultrafilters)}
    pre = _preimage_table(f, ny)
    table = []
    for nabla in bx.points_as_ultrafilters:
        members = nabla.members
        image_members = frozenset(mb for mb in range(1 << ny) if pre[mb] in members)
        if image_members not in index:
            raise InvariantViolation("lifted set is not an ultrafilter", image_members)
        table.append(index[image_members])
    return tuple(table)


def reference_preimage_membership(h, bundle):
    members2 = [u.members for u in bundle.beta2.points_as_ultrafilters]
    return next(
        (
            {"subset_mask": a, "point": d}
            for a, upstairs in enumerate(hat_phi_table(h.source))
            for d, img in enumerate(bundle.h_star_beta.table)
            if bool(upstairs >> img & 1) != (bundle.h_star.preimages[a] in members2[d])
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
    return [doc.hom(name) for name in doc.hom_order]


def every_hom_family():
    return [*homs_up_to(4), *sample_homs(), *shuffled_homs()]


def raised(compute):
    """The computed value, or the class and witness of the InvariantViolation."""
    try:
        return compute()
    except InvariantViolation as exc:
        return InvariantViolation, exc.witness


def membership_check(h, bundle):
    checks = harness._hom_checks(h, bundle, sigma_extend(h).table)
    (check,) = [c for c in checks if c.name == "preimage_membership_equivalence"]
    return check.witness


def test_indicator_marks_exactly_the_members_of_every_ultrafilter():
    rng = random.Random(8)
    algebras = [powerset_algebra(k) for k in range(1, 6)]
    algebras += [shuffled_powerset(k, rng) for k in range(1, 6)]
    doc = parse_document(SAMPLE.read_text())
    algebras += [doc.algebra(name) for name in doc.algebra_order]
    for algebra in algebras:
        for u in ultrafilters(algebra):
            assert len(u.indicator) == 256
            assert set(u.indicator) <= {0, 1}
            assert {a for a, inside in enumerate(u.indicator) if inside} == u.members


def test_dual_map_matches_the_frozenset_preimages():
    count = 0
    for hom in every_hom_family():
        assert dual_map(hom).table == reference_dual_map_table(hom)
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
            got = raised(lambda: dual_map(hom).table)
            assert got == expected
            misses += expected[0] is InvariantViolation
    assert misses > 100


def test_beta_lift_on_every_diagram_matches_the_frozenset_lift():
    for hom in every_hom_family():
        bundle = build_diagram(hom)
        expected = reference_beta_lift_table(bundle.h_star.table, bundle.beta2, bundle.beta1)
        assert bundle.lift == expected


def test_forced_beta_lift_miss_raises_with_the_frozenset_witness():
    bx = beta_space(("x0", "x1", "x2"))
    by = beta_space(("y0", "y1"))
    points = by.points_as_ultrafilters
    for dropped in range(len(points)):
        # a target that lacks one point: lifting onto it has no match
        crippled = dataclasses.replace(
            by, points_as_ultrafilters=points[:dropped] + points[dropped + 1 :]
        )
        for f in itertools.product(range(2), repeat=3):
            expected = raised(lambda: reference_beta_lift_table(f, bx, crippled))
            got = raised(lambda: beta_lift(f, bx, crippled).table)
            assert got == expected
            if got[0] is InvariantViolation:
                assert type(got[1]) is frozenset
                assert got[1] == points[dropped].members


def test_preimage_membership_rows_agree_with_the_frozenset_scan():
    for hom in every_hom_family():
        bundle = build_diagram(hom)
        assert membership_check(hom, bundle) is None
        assert reference_preimage_membership(hom, bundle) is None


def membership_faults(bundle):
    """Diagrams with one arrow or one point order wrong."""
    points1 = bundle.beta1.space.size
    table = tuple((v + 1) % points1 for v in bundle.h_star_beta.table)
    yield dataclasses.replace(
        bundle, h_star_beta=dataclasses.replace(bundle.h_star_beta, table=table)
    )
    yield dataclasses.replace(
        bundle,
        beta2=dataclasses.replace(
            bundle.beta2, points_as_ultrafilters=bundle.beta2.points_as_ultrafilters[::-1]
        ),
    )
    h_star = bundle.h_star
    shifted = tuple((v + 1) % h_star.target.size for v in h_star.table)
    yield dataclasses.replace(bundle, h_star=dataclasses.replace(h_star, table=shifted))


def test_preimage_membership_rows_give_the_scan_witness_on_faulty_diagrams():
    failures = 0
    for hom in [*homs_up_to(3), *sample_homs(), *shuffled_homs()]:
        for faulty in membership_faults(build_diagram(hom)):
            expected = reference_preimage_membership(hom, faulty)
            assert membership_check(hom, faulty) == expected
            failures += expected is not None
    assert failures > 100
