"""The diagram bundle, the double-dual map, and the verification suite."""

import hashlib
import itertools
import json

import pytest

import stonecheck.harness as harness
from stonecheck.algebra import (
    all_homs,
    hom_from_atom_function,
    identity_hom,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.compactification import beta_lift, extension_candidates
from stonecheck.duality import phi_mask
from stonecheck.errors import BoundExceeded
from stonecheck.extension import sigma_extend
from stonecheck.harness import (
    VerificationReport,
    build_diagram,
    double_dual_map,
    exhaustive_suite,
    full_hom_instance,
    report_jsonable,
    shrink_failing_hom,
)


def test_identity_diagram_is_all_identities():
    two = powerset_algebra(1)
    bundle = build_diagram(identity_hom(two))
    assert bundle.h_star.table == (0,)
    assert bundle.h_star_beta.table == (0,)
    assert bundle.double_dual == (0, 1)


def test_unique_embedding_gives_constant_arrows():
    two, four = powerset_algebra(1), powerset_algebra(2)
    bundle = build_diagram(hom_from_atom_function(two, four, (0, 0)))
    assert set(bundle.h_star.table) == {0}
    assert set(bundle.h_star_beta.table) == {0}


def test_atom_swap_gives_swapped_arrows():
    four = powerset_algebra(2)
    swap = hom_from_atom_function(four, four, (1, 0))
    bundle = build_diagram(swap)
    assert bundle.h_star.table == (1, 0)
    assert bundle.h_star_beta.table == (1, 0)
    # the double dual swaps the two singleton subsets
    assert bundle.double_dual == (0, 2, 1, 3)


def test_double_dual_at_bounds():
    four = powerset_algebra(2)
    for hom in all_homs(four, four):
        bundle = build_diagram(hom)
        n1 = len(ultrafilters(four))
        n2 = len(ultrafilters(four))
        assert double_dual_map(bundle, 0) == 0
        assert double_dual_map(bundle, (1 << n1) - 1) == (1 << n2) - 1


def test_bundle_carries_search_count_and_lift():
    for k1, k2 in [(2, 2), (3, 2), (2, 3)]:
        for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
            bundle = build_diagram(hom)
            composed = tuple(bundle.beta1.embed[v] for v in bundle.h_star.table)
            candidates = extension_candidates(bundle.beta2, composed, bundle.beta1.space)
            assert bundle.candidate_count == len(candidates) == 1
            assert bundle.h_star_beta.table == candidates[0]
            lift = beta_lift(bundle.h_star.table, bundle.beta2, bundle.beta1)
            assert bundle.lift == lift.table


def test_diagram_bound():
    with pytest.raises(BoundExceeded):
        build_diagram(identity_hom(powerset_algebra(5)))


def test_verify_main_theorem_identity():
    inst = full_hom_instance(identity_hom(powerset_algebra(2)))
    assert inst.passed


@pytest.mark.parametrize("k1, k2", list(itertools.product([1, 2, 3], repeat=2)))
def test_main_theorem_exhaustive_small(k1, k2):
    for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
        bundle = build_diagram(hom)
        sigma = sigma_extend(hom)
        assert sigma.table == bundle.double_dual


def test_outer_rectangle_on_elements():
    for k1, k2 in itertools.product([1, 2, 3], repeat=2):
        b1, b2 = powerset_algebra(k1), powerset_algebra(k2)
        for hom in all_homs(b1, b2):
            bundle = build_diagram(hom)
            for a in range(b1.size):
                assert bundle.double_dual[phi_mask(b1, a)] == phi_mask(b2, hom.table[a])


def test_verify_corollary_injective_case():
    two, four = powerset_algebra(1), powerset_algebra(2)
    embed = hom_from_atom_function(two, four, (0, 0))
    assert embed.is_injective
    assert full_hom_instance(embed).passed
    sigma = sigma_extend(embed)
    assert len(set(sigma.table)) == len(sigma.table)


def test_verify_corollary_surjective_case():
    four, two = powerset_algebra(2), powerset_algebra(1)
    collapse = hom_from_atom_function(four, two, (0,))
    assert collapse.is_surjective
    assert full_hom_instance(collapse).passed
    sigma = sigma_extend(collapse)
    assert set(sigma.table) == {0, 1}


def test_verify_corollary_automorphism_case():
    four = powerset_algebra(2)
    swap = hom_from_atom_function(four, four, (1, 0))
    assert full_hom_instance(swap).passed
    sigma = sigma_extend(swap)
    assert sorted(sigma.table) == list(range(4))


def test_suite_at_one_atom():
    report = exhaustive_suite(1)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    assert len(homs) == 1
    assert report.all_passed


def test_suite_at_two_atoms_counts_eight_homs():
    report = exhaustive_suite(2)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    assert len(homs) == 1 + 1 + 2 + 4
    assert report.all_passed


def test_suite_at_three_atoms_matches_duality_count():
    report = exhaustive_suite(3)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    expected = sum(k1**k2 for k1 in [1, 2, 3] for k2 in [1, 2, 3])
    assert len(homs) == expected == 56
    assert report.all_passed


def test_suite_bound():
    with pytest.raises(BoundExceeded):
        exhaustive_suite(5)


@pytest.mark.parametrize(
    "max_atoms, sample",
    [(0, None), (-2, None), (2, (1, 0)), (3, (3, -3))],
    ids=["no_atoms", "negative_atoms", "no_draws", "negative_draws"],
)
def test_vacuous_range_is_rejected_before_any_instance(monkeypatch, max_atoms, sample):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(harness, "algebra_instance", no_work)
    monkeypatch.setattr(harness, "full_hom_instance", no_work)
    with pytest.raises(ValueError, match="at least 1"):
        exhaustive_suite(max_atoms, sample=sample)


def test_sampled_suite_bound_holds_for_every_seed_before_any_instance(monkeypatch):
    built = []

    def record(*args, **kwargs):
        built.append(args)

    monkeypatch.setattr(harness, "algebra_instance", record)
    monkeypatch.setattr(harness, "full_hom_instance", record)
    for seed in range(10):
        with pytest.raises(BoundExceeded):
            exhaustive_suite(5, sample=(seed, 1))
    assert built == []


def test_sampled_suite_is_deterministic():
    a = exhaustive_suite(3, sample=(42, 10))
    b = exhaustive_suite(3, sample=(42, 10))
    assert json.dumps(report_jsonable(a)) == json.dumps(report_jsonable(b))
    c = exhaustive_suite(3, sample=(43, 10))
    assert json.dumps(report_jsonable(a)) != json.dumps(report_jsonable(c))


def test_sampled_suite_runs_the_battery_once_per_distinct_hom(monkeypatch):
    calls = {"build_diagram": 0, "sigma_extend": 0}

    def counted(name):
        real = getattr(harness, name)

        def wrapper(h):
            calls[name] += 1
            return real(h)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    report = exhaustive_suite(2, (5, 300))
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    assert len(homs) == 300
    first_draw = {}
    for inst in sorted(homs, key=lambda i: i.descriptor["sample_index"]):
        d = inst.descriptor
        key = (d["source_atoms"], tuple(d["atom_function"]))
        first = first_draw.setdefault(key, inst)
        assert inst.checks is first.checks
        assert {k: v for k, v in d.items() if k != "sample_index"} == {
            k: v for k, v in first.descriptor.items() if k != "sample_index"
        }
        if inst is not first:
            assert inst.timing_ms == 0
    assert len(first_draw) < 300
    assert calls == {"build_diagram": len(first_draw), "sigma_extend": len(first_draw)}
    assert sorted(i.descriptor["sample_index"] for i in homs) == list(range(300))


def test_report_serialization_zeroes_timing():
    report = VerificationReport([full_hom_instance(identity_hom(powerset_algebra(1)))])
    payload = report_jsonable(report)
    assert all(inst["timing_ms"] == 0 for inst in payload)


def test_full_instance_check_names():
    inst = full_hom_instance(identity_hom(powerset_algebra(2)))
    names = {c.name for c in inst.checks}
    assert {
        "sigma_equals_double_dual",
        "embedded_elements_preserved",
        "preimage_membership_equivalence",
        "sigma_is_boolean_hom",
        "sigma_injective_when_injective",
        "sigma_surjective_when_surjective",
        "sigma_isomorphism_when_isomorphism",
        "unique_continuous_extension",
        "extension_square_commutes",
        "lift_paths_agree",
        "forward_image_in_lifted_ultrafilter",
    } == names


def test_shrinker_finds_minimal_failing_instance():
    # synthetic predicate: "fails" whenever the target has >= 2 atoms;
    # the shrinker must walk down to a two-atom target
    start = hom_from_atom_function(powerset_algebra(3), powerset_algebra(3), (0, 1, 2))

    def fails(candidate):
        return candidate.target.atom_count >= 2

    shrunk = shrink_failing_hom(start, fails)
    assert shrunk["target_atoms"] == 2
    assert shrunk["source_atoms"] <= 2


def test_shrinker_keeps_unshrinkable_instance():
    start = hom_from_atom_function(powerset_algebra(2), powerset_algebra(1), (0,))

    def fails(candidate):
        return True

    shrunk = shrink_failing_hom(start, fails)
    assert shrunk["target_atoms"] == 1
    assert shrunk["source_atoms"] == 1


def test_reports_sort_deterministically():
    report = exhaustive_suite(2)
    keys = [json.dumps(i.descriptor, sort_keys=True) for i in report.instances]
    assert keys == sorted(keys)


def report_digest(report):
    payload = json.dumps(report_jsonable(report), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(
    "max_atoms, sample, digest",
    [
        (3, None, "e8b95ce3dfc633ded4d8e8ad539abbdb22d757a6d70d6338299081cc26198a15"),
        (4, (7, 200), "77fef6e80d3b32caf68278d210ac057551d1642e49c61b9ef5cc4cdaa431ca06"),
    ],
)
def test_suite_reports_stay_byte_identical(max_atoms, sample, digest):
    # digests pinned from reports of the unoptimised search and scans
    assert report_digest(exhaustive_suite(max_atoms, sample)) == digest
