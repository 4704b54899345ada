"""Completions: density, compactness, the canonical extension, sigma maps.

The independent oracle for extension values is the preimage transform
computed directly from the hom table with plain set logic -- no code shared
with the filter-formula implementation.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stonecheck.cli as cli
import stonecheck.extension as extension
import stonecheck.harness as harness
from helpers import export_presentation, identity_hom, members_of, validate_boolean_algebra
from stonecheck.algebra import (
    FinLattice,
    all_filters,
    all_homs,
    fin_lattice,
    fin_poset,
    hom_from_atom_function,
    powerset_algebra,
    ultrafilters,
)
from stonecheck.documents import parse_document
from stonecheck.errors import (
    BoundExceeded,
    DegenerateAlgebra,
    InvariantViolation,
    NotAnEmbedding,
)
from stonecheck.extension import (
    _assert_complete,
    canonical_extension,
    completion,
    completion_isomorphic,
    is_compact,
    is_dense,
    permuted_completion,
    sigma_extend,
)

SAMPLE = Path(__file__).resolve().parents[1] / "src/stonecheck/data/sample_document.json"


def identity_completion(algebra):
    return completion(algebra.lattice, algebra.lattice, tuple(range(algebra.size)))


def sigma_oracle(hom):
    """Preimage transform: image(A) = {v : preimage of v under hom lies in A}."""
    ufs1 = ultrafilters(hom.source)
    ufs2 = ultrafilters(hom.target)
    uf_index = {members_of(u.members): i for i, u in enumerate(ufs1)}
    table = []
    for a_mask in range(1 << len(ufs1)):
        image = 0
        for k, v in enumerate(ufs2):
            inside = members_of(v.members)
            pre = frozenset(x for x in range(hom.source.size) if hom.table[x] in inside)
            if a_mask >> uf_index[pre] & 1:
                image |= 1 << k
        table.append(image)
    return tuple(table)


def test_identity_completion_is_dense_and_compact():
    for n in [1, 2, 3]:
        c = identity_completion(powerset_algebra(n))
        assert is_dense(c).passed
        assert is_compact(c).passed


def test_canonical_extension_is_dense_exhaustively():
    assert is_dense(canonical_extension(powerset_algebra(2))).passed


def test_canext_and_the_algebra_instance_judge_density_and_compactness_once(monkeypatch):
    # canonical_extension asserts both verdicts, and the command and the
    # suite's algebra instance write pass rows once it returns, judging neither
    calls = Counter()
    for name in ("is_dense", "is_compact"):
        real = getattr(extension, name)

        def counted(c, real=real, name=name):
            calls[name] += 1
            return real(c)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("stonecheck") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert cli.main(["canext", str(SAMPLE), "abstract_four"]) == 0
    assert calls == {"is_dense": 1, "is_compact": 1}
    calls.clear()
    # the process-wide algebra may hold its extension from an earlier test
    algebra = powerset_algebra(3)
    monkeypatch.delitem(algebra._cache, canonical_extension.slot, raising=False)
    assert harness.algebra_instance(3).passed
    assert calls == {"is_dense": 1, "is_compact": 1}


def test_density_and_compactness_fold_the_embedded_bounds_once(monkeypatch):
    # a fresh algebra, so that its extension is built here
    eight = validate_boolean_algebra(*export_presentation(powerset_algebra(3)))
    calls = Counter()
    real = FinLattice.meet_all

    def counted(lattice, elems):
        calls[lattice] += 1
        return real(lattice, elems)

    monkeypatch.setattr(FinLattice, "meet_all", counted)
    complete = canonical_extension(eight).complete
    # one meet per embedded filter, shared by is_dense and is_compact, and
    # one meet side per element of the completion in is_dense
    assert dict(calls) == {complete: len(all_filters(eight.lattice)) + complete.size}


def test_padding_completion_fails_density():
    # embed the 4-element algebra into the 16-element one by zero-padding;
    # element {atom2} of the big algebra is not a join of embedded meets
    small = powerset_algebra(2)
    big = powerset_algebra(4)
    c = completion(small.lattice, big.lattice, (0, 1, 2, 3))
    verdict = is_dense(c)
    assert not verdict.passed
    assert verdict.element == 4
    assert verdict.side == "join"


FAILED_VERDICTS = pytest.mark.parametrize(
    "law, verdict, message",
    [
        ("is_dense", extension.DensityVerdict(False, 2, "meet"), "not dense; witness=(2, 'meet')"),
        # the up-set of element 1 and the down-set of element 2, disjoint
        (
            "is_compact",
            extension.CompactnessVerdict(False, 0b1010, 0b0101),
            "not compact; witness=(10, 5)",
        ),
    ],
    ids=["dense", "compact"],
)


@FAILED_VERDICTS
def test_a_failed_extension_verdict_raises_with_its_witness(monkeypatch, law, verdict, message):
    # a fresh algebra, so that its extension is built under the fault
    four = validate_boolean_algebra(*export_presentation(powerset_algebra(2)))
    monkeypatch.setattr(extension, law, lambda c: verdict)
    with pytest.raises(InvariantViolation) as info:
        canonical_extension(four)
    assert str(info.value) == f"canonical extension is {message}"


@FAILED_VERDICTS
def test_a_failed_extension_verdict_is_exit_3_of_canext_and_verify(
    monkeypatch, capsys, law, verdict, message
):
    # canext and the suite's algebra rows print pass for both verdicts once
    # canonical_extension returns, so a failing verdict must stop them
    monkeypatch.setattr(extension, law, lambda c: verdict)
    expected = f"internal error: canonical extension is {message}\n"
    # each parse makes a fresh algebra, whose extension is built under the fault
    assert cli.main(["canext", str(SAMPLE), "abstract_four"]) == 3
    assert capsys.readouterr() == ("", expected)
    # the process-wide algebra may hold its extension from an earlier test
    monkeypatch.delitem(powerset_algebra(1)._cache, canonical_extension.slot, raising=False)
    assert cli.main(["verify", "--all", "--max-atoms", "1"]) == 3
    assert capsys.readouterr().err == expected


def test_compactness_of_canonical_extension_of_three_atoms():
    assert is_compact(canonical_extension(powerset_algebra(3))).passed


def test_collapsing_embedding_is_rejected_before_compactness():
    four = powerset_algebra(2)
    two = powerset_algebra(1)
    with pytest.raises(NotAnEmbedding):
        completion(four.lattice, two.lattice, (0, 1, 1, 1))


def first_unbounded_subset(lattice):
    """Reference completeness scan: fold each subset with meet_all/join_all
    and return the first subset whose meet or join is not a bound of it."""
    up = lattice.poset.up
    for bits in range(1 << lattice.size):
        members = [i for i in range(lattice.size) if bits >> i & 1]
        m = lattice.meet_all(members)
        j = lattice.join_all(members)
        if any(not up[m] >> x & 1 for x in members) or any(not up[x] >> j & 1 for x in members):
            return bits
    return None


def corrupted_lattice(lattice, table, a, b, value):
    rows = [list(row) for row in getattr(lattice, table)]
    rows[a][b] = value
    tables = {"meet": lattice.meet, "join": lattice.join, table: tuple(map(tuple, rows))}
    return FinLattice(lattice.poset, tables["meet"], tables["join"], lattice.bottom, lattice.top)


@pytest.mark.parametrize(
    "atoms, table, a, b, value",
    [(3, "meet", 3, 4, 7), (3, "join", 3, 4, 0), (4, "meet", 5, 10, 15), (4, "join", 9, 14, 8)],
)
def test_completeness_scan_reports_the_reference_witness(atoms, table, a, b, value):
    # a and b lie outside the embedded image, so only the subset scan sees
    # the corrupted entry
    broken = corrupted_lattice(powerset_algebra(atoms).lattice, table, a, b, value)
    top = broken.size - 1
    expected = first_unbounded_subset(broken)
    assert expected is not None
    with pytest.raises(InvariantViolation) as info:
        completion(powerset_algebra(1).lattice, broken, (0, top))
    assert info.value.witness == expected


def scans_during(action) -> tuple[int, int]:
    """The completeness scans ``action`` ran and those it found cached."""
    before = _assert_complete.cache_info()
    action()
    after = _assert_complete.cache_info()
    return after.misses - before.misses, after.hits - before.hits


def test_each_completion_lattice_is_scanned_once():
    # a fresh lattice is scanned on its first completion only
    pow_alg = powerset_algebra(2)
    fresh = fin_lattice(fin_poset([[i & ~j == 0 for j in range(4)] for i in range(4)]))
    base = powerset_algebra(1).lattice

    def complete_twice():
        for _ in range(2):
            completion(base, fresh, (0, 3))

    assert scans_during(complete_twice) == (1, 1)
    # two parses give two algebra objects, both completed by the lattice of
    # the one powerset algebra on their two ultrafilters, scanned at most once
    _assert_complete(pow_alg.lattice)
    text = SAMPLE.read_text()

    def extend_two_parses():
        for _ in range(2):
            canonical_extension(parse_document(text).algebra("abstract_four"))

    assert scans_during(extend_two_parses) == (0, 2)


def test_a_lattice_that_fails_the_scan_fails_every_time():
    broken = corrupted_lattice(powerset_algebra(3).lattice, "meet", 3, 4, 7)
    for _ in range(2):
        with pytest.raises(InvariantViolation):
            completion(powerset_algebra(1).lattice, broken, (0, broken.size - 1))


def test_canonical_extension_sizes():
    assert canonical_extension(powerset_algebra(1)).complete.size == 2
    assert canonical_extension(powerset_algebra(3)).complete.size == 8
    assert canonical_extension(powerset_algebra(4)).complete.size == 16


def test_canonical_extension_rejects_degenerate():
    with pytest.raises(DegenerateAlgebra):
        canonical_extension(powerset_algebra(0))


def test_canonical_extension_atoms_are_ultrafilter_singletons():
    # the atoms of the completing lattice: the elements that cover bottom
    algebra = powerset_algebra(3)
    complete = canonical_extension(algebra).complete
    atoms = {x for x in range(complete.size) if complete.poset.down[x].bit_count() == 2}
    assert atoms == {1 << k for k in range(len(ultrafilters(algebra)))}


def test_sigma_of_identity_on_two_element_algebra():
    assert sigma_extend(identity_hom(powerset_algebra(1))) == (0, 1)


def test_sigma_of_atom_selector_frozen_values():
    # h: P(2 atoms) -> 2 with h(a)=top iff atom0 <= a; the extension sends A
    # to {v} exactly when the ultrafilter at atom0 belongs to A.  Expected
    # values computed with the preimage-transform oracle.
    four, two = powerset_algebra(2), powerset_algebra(1)
    hom = hom_from_atom_function(four, two, (0,))
    sigma = sigma_extend(hom)
    assert sigma == sigma_oracle(hom)
    assert sigma == (0, 1, 0, 1)


def test_sigma_of_empty_set_is_empty():
    for k1, k2 in itertools.product([1, 2, 3], repeat=2):
        for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
            assert sigma_extend(hom)[0] == 0


@pytest.mark.parametrize("k1, k2", list(itertools.product([1, 2, 3], repeat=2)))
def test_sigma_matches_preimage_oracle_exhaustively(k1, k2):
    for hom in all_homs(powerset_algebra(k1), powerset_algebra(k2)):
        assert sigma_extend(hom) == sigma_oracle(hom)


@pytest.mark.parametrize("fault", ["not_principal", "top_filter_missing"])
def test_a_filter_enumeration_the_plan_cannot_split_is_a_library_bug(monkeypatch, fault):
    # a fresh algebra, so that its filter plan is built under the fault
    four = validate_boolean_algebra(*export_presentation(powerset_algebra(2)))
    real = extension.all_filters

    def faulty(lattice):
        filters = real(lattice)
        if fault == "not_principal":
            # the member mask of {1, 2}, the up-set of no element
            return (0b110,) + filters[1:]
        return filters[:-1]

    monkeypatch.setattr(extension, "all_filters", faulty)
    with pytest.raises(InvariantViolation) as info:
        sigma_extend(identity_hom(four))
    assert str(info.value).startswith(
        "filter is not the up-set of a member"
        if fault == "not_principal"
        else "a maximal proper subfilter is not listed"
    )


def test_sigma_is_monotone_and_extends():
    four = powerset_algebra(2)
    for hom in all_homs(four, four):
        sigma = sigma_extend(hom)
        n1 = len(ultrafilters(four))
        for a in range(1 << n1):
            for b in range(1 << n1):
                if a & ~b == 0:
                    assert sigma[a] & ~sigma[b] == 0


def test_completion_isomorphic_to_itself():
    ext = canonical_extension(powerset_algebra(2))
    verdict = completion_isomorphic(ext, ext)
    assert verdict.passed
    assert verdict.table == tuple(range(4))


def test_completion_isomorphic_to_relabeled_copy():
    ext = canonical_extension(powerset_algebra(2))
    shuffled = permuted_completion(ext, (2, 0, 3, 1))
    verdict = completion_isomorphic(ext, shuffled)
    assert verdict.passed
    assert verdict.table == (2, 0, 3, 1)


def test_identity_completion_isomorphic_to_canonical():
    algebra = powerset_algebra(2)
    verdict = completion_isomorphic(identity_completion(algebra), canonical_extension(algebra))
    assert verdict.passed


def test_completion_isomorphic_requires_same_base():
    c1 = identity_completion(powerset_algebra(1))
    c2 = identity_completion(powerset_algebra(2))
    with pytest.raises(ValueError):
        completion_isomorphic(c1, c2)


def test_completion_isomorphic_bound():
    big = identity_completion(powerset_algebra(5))
    with pytest.raises(BoundExceeded):
        completion_isomorphic(big, big)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_compact_completions_are_unique_at_small_scale(n):
    algebra = powerset_algebra(n)
    canon = canonical_extension(algebra)
    candidates = [identity_completion(algebra), canon]
    # relabelings of the canonical completion stay dense and compact
    perms = [
        tuple(reversed(range(algebra.size))),
        tuple((i + 1) % algebra.size for i in range(algebra.size)),
    ]
    candidates += [permuted_completion(canon, perm) for perm in perms]
    for c in candidates:
        assert is_dense(c).passed and is_compact(c).passed
        assert completion_isomorphic(canon, c).passed


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(4)))
def test_relabeled_canonical_completion_stays_isomorphic(perm):
    ext = canonical_extension(powerset_algebra(2))
    shuffled = permuted_completion(ext, tuple(perm))
    assert is_dense(shuffled).passed
    assert is_compact(shuffled).passed
    assert completion_isomorphic(ext, shuffled).passed
