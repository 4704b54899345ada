"""The diagram, the double-dual map, and the verification suite."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import stonecheck.algebra as algebra
import stonecheck.compactification as compactification
import stonecheck.duality as duality
import stonecheck.extension as extension
import stonecheck.harness as harness
from helpers import identity_hom, report_jsonable
from stonecheck.algebra import (
    BoolHom,
    all_homs,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.compactification import beta_lift, extension_candidates
from stonecheck.documents import parse_document
from stonecheck.duality import hat_phi_table, phi_mask
from stonecheck.errors import BoundExceeded
from stonecheck.extension import sigma_extend
from stonecheck.harness import (
    VerificationReport,
    build_diagram,
    double_dual_map,
    exhaustive_suite,
    full_hom_instance,
    shrink_failing_hom,
)

RELABELLED_FIVE = Path(__file__).resolve().parent / "data/relabelled_five.json"


def test_identity_diagram_is_all_identities():
    two = powerset_algebra(1)
    diagram = build_diagram(identity_hom(two))
    assert tuple(diagram.h_star.table) == (0,)
    assert tuple(diagram.h_star_beta.table) == (0,)
    assert tuple(diagram.double_dual) == (0, 1)


def test_unique_embedding_gives_constant_arrows():
    two, four = powerset_algebra(1), powerset_algebra(2)
    diagram = build_diagram(hom_from_atom_function(two, four, (0, 0)))
    assert set(diagram.h_star.table) == {0}
    assert set(diagram.h_star_beta.table) == {0}


def test_atom_swap_gives_swapped_arrows():
    four = powerset_algebra(2)
    swap = hom_from_atom_function(four, four, (1, 0))
    diagram = build_diagram(swap)
    assert tuple(diagram.h_star.table) == (1, 0)
    assert tuple(diagram.h_star_beta.table) == (1, 0)
    # the double dual swaps the two singleton subsets
    assert tuple(diagram.double_dual) == (0, 2, 1, 3)


def test_double_dual_at_bounds():
    four = powerset_algebra(2)
    for hom in all_homs(four, four):
        diagram = build_diagram(hom)
        n1 = len(ultrafilters(four))
        n2 = len(ultrafilters(four))
        assert double_dual_map(diagram, 0) == 0
        assert double_dual_map(diagram, (1 << n1) - 1) == (1 << n2) - 1


def test_bundle_carries_search_count_and_lift():
    for k1, k2 in [(2, 2), (3, 2), (2, 3)]:
        for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
            diagram = build_diagram(hom)
            composed = tuple(diagram.beta1.embed[v] for v in diagram.h_star.table)
            candidates = extension_candidates(diagram.beta2, composed, diagram.beta1.space)
            assert diagram.candidate_counts == [len(candidates)] == [1]
            assert diagram.h_star_beta.table == candidates[0].table
            lift = beta_lift(diagram.h_star.table, diagram.beta2, diagram.beta1)
            assert diagram.lift == lift.table


def test_diagram_bound():
    # the identity at the cap is built and passes the battery; no algebra
    # above the cap can be built
    top = identity_hom(powerset_algebra(algebra.MAX_ATOMS))
    assert build_diagram(top).candidate_counts == [1]
    assert full_hom_instance(top).passed
    with pytest.raises(BoundExceeded):
        powerset_algebra(algebra.MAX_ATOMS + 1)


def test_battery_on_the_relabelled_five_atom_presentation_matches_the_powersets():
    # shuffled carriers hide any confusion of element index with atom mask
    doc = parse_document(RELABELLED_FIVE.read_text())
    five, three = doc.algebra("five"), doc.algebra("three")
    assert (five.atom_count, three.atom_count) == (5, 3)
    assert five.atom_mask != tuple(range(five.size))
    rng = random.Random(23)
    sides = [five, three, *(powerset_algebra(k) for k in range(1, 6))]
    for _ in range(200):
        # a relabelled algebra on one side, any of them on the other
        pair = [rng.choice((five, three)), rng.choice(sides)]
        rng.shuffle(pair)
        source, target = pair
        g = tuple(rng.randrange(source.atom_count) for _ in range(target.atom_count))
        inst = full_hom_instance(hom_from_atom_function(source, target, g))
        reference = full_hom_instance(hom_from_atom_function(
            powerset_algebra(source.atom_count), powerset_algebra(target.atom_count), g
        ))
        assert inst.passed
        assert (inst.descriptor, inst.checks) == (reference.descriptor, reference.checks)


def test_hat_phi_bit_rows_read_the_hat_phi_table():
    # the battery cannot see a wrong row: the prefilter it feeds falls back
    # to a literal scan of hat_phi_table, which finds no witness
    doc = parse_document(RELABELLED_FIVE.read_text())
    sides = [powerset_algebra(k) for k in range(1, algebra.MAX_ATOMS + 1)]
    for alg in sides + [doc.algebra("five"), doc.algebra("three")]:
        table, n = hat_phi_table(alg), alg.atom_count
        assert len(table) == 1 << n
        assert harness._diagram_side(alg).bit_rows == tuple(
            bytes(points >> d & 1 for points in table) for d in range(n)
        )


def test_verify_main_theorem_identity():
    inst = full_hom_instance(identity_hom(powerset_algebra(2)))
    assert inst.passed


@pytest.mark.parametrize("k1, k2", list(itertools.product([1, 2, 3], repeat=2)))
def test_main_theorem_exhaustive_small(k1, k2):
    for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
        assert sigma_extend(hom) == tuple(build_diagram(hom).double_dual)


def test_outer_rectangle_on_elements():
    for k1, k2 in itertools.product([1, 2, 3], repeat=2):
        b1, b2 = powerset_algebra(k1), powerset_algebra(k2)
        for hom in all_homs(b1, b2):
            diagram = build_diagram(hom)
            for a in range(b1.size):
                assert diagram.double_dual[phi_mask(b1, a)] == phi_mask(b2, hom.table[a])


def test_verify_corollary_injective_case():
    two, four = powerset_algebra(1), powerset_algebra(2)
    embed = hom_from_atom_function(two, four, (0, 0))
    assert len(set(embed.table)) == embed.source.size
    assert full_hom_instance(embed).passed
    sigma = sigma_extend(embed)
    assert len(set(sigma)) == len(sigma)


def test_verify_corollary_surjective_case():
    four, two = powerset_algebra(2), powerset_algebra(1)
    collapse = hom_from_atom_function(four, two, (0,))
    assert set(collapse.table) == set(range(collapse.target.size))
    assert full_hom_instance(collapse).passed
    sigma = sigma_extend(collapse)
    assert set(sigma) == {0, 1}


def test_verify_corollary_automorphism_case():
    four = powerset_algebra(2)
    swap = hom_from_atom_function(four, four, (1, 0))
    assert full_hom_instance(swap).passed
    sigma = sigma_extend(swap)
    assert sorted(sigma) == list(range(4))


def test_suite_at_one_atom():
    report = exhaustive_suite(1)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    assert len(homs) == 1
    assert all(i.passed for i in report.instances)


def test_suite_at_two_atoms_counts_eight_homs():
    report = exhaustive_suite(2)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    assert len(homs) == 1 + 1 + 2 + 4
    assert all(i.passed for i in report.instances)


def test_suite_at_three_atoms_matches_duality_count():
    report = exhaustive_suite(3)
    homs = [i for i in report.instances if i.descriptor["kind"] == "hom"]
    expected = sum(k1**k2 for k1 in [1, 2, 3] for k2 in [1, 2, 3])
    assert len(homs) == expected == 56
    assert all(i.passed for i in report.instances)


def test_each_extension_search_tests_one_table(monkeypatch):
    # a validated finite Stone space is discrete, so the embedding forces
    # every point of the beta space and no table is left to enumerate: each
    # block's search tests one block of tables, in one continuity test
    searches, tested = [], []
    real_search, real_continuous = harness.extension_candidates_lanes, compactification._continuous

    def search(*args):
        before = len(tested)
        result = real_search(*args)
        searches.append((len(tested) - before, args[-1]))
        return result

    monkeypatch.setattr(harness, "extension_candidates_lanes", search)
    monkeypatch.setattr(
        compactification, "_continuous", lambda *args: tested.append(args) or real_continuous(*args)
    )
    exhaustive_suite(3)
    assert [tests for tests, _ in searches] == [1] * 9
    assert sum(lanes for _, lanes in searches) == 56


def test_suite_bound():
    with pytest.raises(BoundExceeded):
        exhaustive_suite(algebra.MAX_ATOMS + 1)


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
            exhaustive_suite(algebra.MAX_ATOMS + 1, sample=(seed, 1))
    assert built == []


def test_sampled_suite_is_deterministic():
    a = exhaustive_suite(3, sample=(42, 10))
    b = exhaustive_suite(3, sample=(42, 10))
    assert json.dumps(report_jsonable(a)) == json.dumps(report_jsonable(b))
    c = exhaustive_suite(3, sample=(43, 10))
    assert json.dumps(report_jsonable(a)) != json.dumps(report_jsonable(c))


def test_sampled_suite_runs_the_battery_once_per_distinct_hom(monkeypatch):
    # one block per size pair, one lane per distinct hom
    calls = {"diagram_lanes": [], "sigma_lanes": []}

    def counted(name):
        real = getattr(harness, name)

        def wrapper(homs):
            calls[name].append(len(homs))
            return real(homs)

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
    assert len(first_draw) < 300
    blocks = {(k1, len(g)) for k1, g in first_draw}
    for lanes in calls.values():
        assert len(lanes) == len(blocks) == 4
        assert sum(lanes) == len(first_draw)
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


def test_a_passing_battery_returns_a_list_of_its_own():
    # every passing battery returns the same rows, each in a fresh list, so
    # a caller that grows or reorders one report's checks leaves the next
    # report's alone
    first = full_hom_instance(identity_hom(powerset_algebra(2)))
    second = full_hom_instance(identity_hom(powerset_algebra(3)))
    assert first.passed and second.passed
    assert first.checks == second.checks and first.checks is not second.checks
    names = [c.name for c in second.checks]
    first.checks.append(harness.CheckResult("extra", {"note": 1}))
    first.checks.reverse()
    third = full_hom_instance(identity_hom(powerset_algebra(2)))
    assert [c.name for c in second.checks] == [c.name for c in third.checks] == names
    assert third.passed


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


def test_shrinker_renumbers_the_source_atoms_of_an_unshrinkable_instance():
    # one target atom cannot be dropped; source atoms 0 and 1 are unused
    start = hom_from_atom_function(powerset_algebra(3), powerset_algebra(1), (2,))
    assert shrink_failing_hom(start, lambda candidate: True) == {
        "source_atoms": 1,
        "target_atoms": 1,
        "atom_function": [0],
    }
    # a compressed instance that does not fail is not reported
    assert shrink_failing_hom(start, lambda candidate: candidate is start) == {
        "source_atoms": 3,
        "target_atoms": 1,
        "atom_function": [2],
    }


def test_reports_sort_deterministically():
    report = exhaustive_suite(2)
    keys = [json.dumps(i.descriptor, sort_keys=True) for i in report.instances]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "max_atoms, sample",
    [(5, None), (5, (3, 3000)), (4, (7, 2000)), (2, (5, 40)), (1, (1, 12))],
    ids=["exhaustive_5", "sampled_5", "sampled_4", "sampled_2", "sampled_1"],
)
def test_the_plan_orders_instances_by_the_text_of_json_dumps(max_atoms, sample):
    # the plan's keys never encode a descriptor; the order they give is
    # that of the descriptors' sorted-key JSON texts
    plan = harness.suite_plan(max_atoms, sample)
    descriptors = [
        {
            "kind": "hom",
            "source_atoms": k1,
            "target_atoms": len(g),
            "atom_function": list(g),
            **({} if i is None else {"sample_index": i}),
        }
        for k1, g, i in plan.homs
    ]
    descriptors += [{"kind": "algebra", "atoms": k} for k in plan.algebra_sizes]
    keys = [json.dumps(d, sort_keys=True) for d in descriptors]
    assert len(plan) == len(keys) and keys == sorted(keys)
    if sample is not None:
        assert sorted(d["sample_index"] for d in descriptors[: len(plan.homs)]) == list(
            range(sample[1])
        )


@pytest.mark.parametrize("sample", [None, (7, 2000)], ids=["exhaustive", "sampled"])
def test_the_plan_holds_atom_functions_and_no_hom(sample):
    # each block's homs are made when it runs, so the plan's memory is its
    # atom functions alone
    plan = harness.suite_plan(4, sample)
    assert all(type(g) is tuple and all(type(p) is int for p in g) for _, g, _ in plan.homs)
    assert not any(isinstance(value, BoolHom) for entry in plan.homs for value in entry)


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


def _cached_functions():
    """Every function and property getter of the package that counts its
    cache lookups in ``cache_info()``, once each."""
    found = {}
    for module in (algebra, duality, compactification, extension, harness):
        for value in vars(module).values():
            getters = [value]
            if isinstance(value, type):
                getters = [p.fget for p in vars(value).values() if isinstance(p, property)]
            found.update((id(g), g) for g in getters if hasattr(g, "cache_info"))
    return list(found.values())


def test_one_hom_builds_each_arrow_table_once_and_a_fixed_number_of_lookups(monkeypatch):
    # h_*, the accepted extension and the lift each build one block of
    # preimage tables, and the diagram and battery read the caches a fixed
    # number of times, the same for a block of one hom as for the block of
    # all 256 homs between two 4-atom powersets: both counts are exact, so
    # work done per hom, or done twice, shows here first.  The hom law of
    # sigma is tested by atom additivity, which reads no cached operation
    # block, and each block's preimage tables are a field, read without a
    # cache lookup.  What depends on one algebra only is read off one
    # record per algebra and path: sigma reads the source's filter plan and
    # the target's Stone embedding, the diagram each side's _diagram_side
    # (the battery the source's again), and a battery whose checks all pass
    # copies one tuple of passing rows.  The 21 lookups: h_*'s dual spaces
    # and ultrafilter rows (4), two per continuity test of h_*, the
    # search's one block and the lift (6), the search's target validation
    # (1), the sides (3), one subset-column table per preimage block (3),
    # sigma's two and the battery's two Stone embeddings (4)
    h = hom_from_atom_function(powerset_algebra(4), powerset_algebra(4), (0, 0, 1, 2))
    homs = all_homs(powerset_algebra(4), powerset_algebra(4))
    full_hom_instance(h)
    real = algebra._preimage_lanes
    built = []

    def counted(table, lanes, target_size):
        built.append(lanes)
        return real(table, lanes, target_size)

    for module in (algebra, duality, compactification, harness):
        if getattr(module, "_preimage_lanes", None) is real:
            monkeypatch.setattr(module, "_preimage_lanes", counted)
    functions = _cached_functions()

    def lookups() -> int:
        return sum(f.cache_info().hits + f.cache_info().misses for f in functions)

    before = lookups()
    full_hom_instance(h)
    assert built == [1, 1, 1]
    assert lookups() - before == 21
    before = lookups()
    sigma_extend(h)
    assert lookups() - before == 2
    built.clear()
    before = lookups()
    verdicts, _ = harness._lane_checks(harness.diagram_lanes(homs), extension.sigma_lanes(homs))
    assert verdicts == [None] * 256
    assert built == [256, 256, 256]
    assert lookups() - before == 21
