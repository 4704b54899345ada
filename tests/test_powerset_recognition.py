"""The powerset-order recognizer against the generic validation chain.

``boolean_algebra_of_up_sets`` recognises a powerset order from its up-set
masks and reads the algebra's tables off the atom masks; every other order
goes through ``poset_of_up_sets``, ``fin_lattice`` and ``fin_bool_alg``.
Every input must give the same result both ways: identical tables on a
valid presentation, and the same exception class, message and witness on an
invalid one.  Valid inputs are powerset orders on seeded shuffled carriers,
built through the constructor, ``validate_boolean_algebra`` and
``parse_document``; invalid ones are the corrupted presentations of
``test_validation_oracles``, random relations on 2**k elements, and pinned
orders that a faulty recognizer would accept.  A recognised algebra is
validated on its atom masks alone: the three-way test also pins that its
tables are built only when first read.

The ``check_*`` functions take the constructor as an argument, so that
``test_mutants`` can run them against seeded faults in the recognizer.
"""

import json
import random

import pytest

import stonecheck.algebra as algebra
import stonecheck.cli as cli
from stonecheck.algebra import (
    MAX_ATOMS,
    FinBoolAlg,
    _atom_encoding,
    boolean_algebra_of_up_sets,
    fin_bool_alg,
    fin_lattice,
    poset_of_up_sets,
    validate_boolean_algebra,
    validate_hom,
)
from stonecheck.documents import parse_document
from stonecheck.errors import BoundExceeded, ComplementLawFails, NotALattice, NotAPoset
from test_validation_oracles import random_relation, relabeled_powerset

LATTICE = FinBoolAlg.lattice.fget.slot
FIELDS = (
    "leq", "up", "down", "meet", "join", "bottom", "top",
    "complement", "atoms", "atom_mask", "_mask_index",
)


def generic(up, complement):
    return fin_bool_alg(fin_lattice(poset_of_up_sets(up)), complement)


def tables(alg):
    lattice, poset = alg.lattice, alg.lattice.poset
    values = (
        poset.leq, poset.up, poset.down, lattice.meet, lattice.join, lattice.bottom,
        lattice.top, alg.complement, alg.atoms, alg.atom_mask, alg._mask_index,
    )
    return dict(zip(FIELDS, values))


def outcome(build, up, complement):
    """("ok", tables) or (exception class, message, witness); any exception
    counts, so that a faulty constructor that crashes is told apart too."""
    try:
        return "ok", tables(build(up, complement))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def assert_matches_generic(build, up, complement):
    expected = outcome(generic, up, complement)
    assert outcome(build, up, complement) == expected
    return expected[0]


def as_up_sets(rows):
    return [sum(1 << j for j, x in enumerate(row) if x) for row in rows]


def shuffled_powerset(atoms, rng):
    rows, comp = relabeled_powerset(atoms, rng)
    return as_up_sets(rows), comp


def algebra_entry(name, up, comp):
    n = len(up)
    labels = [f"e{i}" for i in range(n)]
    return {
        "name": name,
        "carrier": labels,
        "leq": [[labels[i], labels[j]] for i in range(n) for j in range(n) if up[i] >> j & 1],
        "complement": [[labels[i], labels[c]] for i, c in enumerate(comp)],
    }


def document_of(up, comp):
    return json.dumps({"algebras": [algebra_entry("B", up, comp)]})


# ------------------------------------------ pinned orders a faulty recognizer accepts


def powerset_up_sets(perm):
    """The up-sets of the powerset order that puts mask m at index perm[m]."""
    n = len(perm)
    up = [0] * n
    for m in range(n):
        up[perm[m]] = sum(1 << perm[x] for x in range(n) if m & ~x == 0)
    return up


def check_corrupted_last_row(build):
    """A 3-atom powerset order whose last element, the bottom, is no longer
    below the top; the atoms' up-sets, and so the atom masks, are intact."""
    perm = [7, 2, 5, 0, 3, 6, 1, 4]
    up = powerset_up_sets(perm)
    up[7] &= ~(1 << perm[7])
    comp = [0] * 8
    for m in range(8):
        comp[perm[m]] = perm[7 ^ m]
    assert assert_matches_generic(build, up, comp) is NotAPoset


def check_three_atoms_under_a_top(build):
    """Three elements below a top: three candidate atoms where a 4-element
    powerset has two, and masks that still pass the up-set test."""
    assert assert_matches_generic(build, [0b1001, 0b1010, 0b1100, 0b1000], [3, 3, 3, 0]) is NotALattice


def check_two_elements_with_one_mask(build):
    """Two elements below each other, and two more above everything: the
    masks repeat, yet every up-set is the one its mask asks for."""
    assert assert_matches_generic(build, [0b0011, 0b0011, 0b1111, 0b1111], [2, 3, 0, 1]) is NotAPoset


PINNED = (check_corrupted_last_row, check_three_atoms_under_a_top, check_two_elements_with_one_mask)


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("check", PINNED, ids=lambda check: check.__name__)
def test_pinned_orders_are_not_recognised(check):
    check(boolean_algebra_of_up_sets)


@pytest.mark.parametrize("atoms", range(1, MAX_ATOMS + 1))
def test_shuffled_powersets_build_the_same_algebra_three_ways(monkeypatch, tmp_path, capsys, atoms):
    rng = random.Random(1000 + atoms)
    cases = [shuffled_powerset(atoms, rng) for _ in range(20)]
    expected = [tables(generic(up, comp)) for up, comp in cases]
    # a recognised order never reaches the scans
    monkeypatch.setattr(algebra, "poset_of_up_sets", None)
    for (up, comp), want in zip(cases, expected):
        assert _atom_encoding(tuple(up)) is not None
        n = len(up)
        pairs = [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1]
        # the tables are built when first read, and a hom that is atom
        # additive is accepted without them
        alg = boolean_algebra_of_up_sets(up, comp)
        assert LATTICE not in alg._cache
        validate_hom(range(n), alg, alg)
        assert alg._cache == {}
        assert tables(alg) == want
        assert LATTICE in alg._cache
        assert tables(validate_boolean_algebra(n, pairs, comp)) == want
        doc = parse_document(document_of(up, comp))
        assert doc.labels["B"] == tuple(f"e{i}" for i in range(n))
        assert LATTICE not in doc.algebra("B")._cache
        assert tables(doc.algebra("B")) == want

    # one dual command over nine algebras builds the lattice it reads, only
    parsed = []
    monkeypatch.setattr(cli, "parse_document", lambda text: parsed.append(parse_document(text)) or parsed[-1])
    path = tmp_path / "nine.json"
    entries = [algebra_entry(f"B{k}", up, comp) for k, (up, comp) in enumerate(cases[:9])]
    path.write_text(json.dumps({"algebras": entries}))
    misses = FinBoolAlg.lattice.fget.cache_info().misses
    assert cli.main(["dual", str(path), "B4"]) == 0
    assert FinBoolAlg.lattice.fget.cache_info().misses == misses + 1
    assert [name for name, alg in parsed[0].algebras.items() if LATTICE in alg._cache] == ["B4"]
    assert capsys.readouterr().out.startswith("dual space of B4\n")


def test_the_one_element_algebra_is_recognised():
    assert _atom_encoding((1,)) == ((), b"\0")
    assert assert_matches_generic(boolean_algebra_of_up_sets, [1], [0]) == "ok"
    assert tables(boolean_algebra_of_up_sets([1], [0]))["atoms"] == ()
    assert assert_matches_generic(boolean_algebra_of_up_sets, [0], [0]) is NotAPoset


@pytest.mark.parametrize("atoms", [4, 5])
def test_one_corrupted_order_entry_names_the_generic_witness(atoms):
    # the cases of test_validation_oracles' corrupted-order test, plus one
    # corrupted entry in each row in turn
    rng = random.Random(atoms)
    seen = set()
    for _ in range(12):
        rows, comp = relabeled_powerset(atoms, rng)
        i, j = rng.sample(range(len(rows)), 2)
        rows[i][j] = not rows[i][j]
        seen.add(assert_matches_generic(boolean_algebra_of_up_sets, as_up_sets(rows), comp))
    up, comp = shuffled_powerset(atoms, rng)
    for i in range(len(up)):
        broken = list(up)
        broken[i] ^= 1 << rng.randrange(len(up))
        seen.add(assert_matches_generic(boolean_algebra_of_up_sets, broken, comp))
    assert NotAPoset in seen and "ok" not in seen


@pytest.mark.parametrize("atoms", [4, 5])
def test_one_corrupted_complement_names_the_generic_witness(atoms):
    rng = random.Random(100 + atoms)
    up, comp = shuffled_powerset(atoms, rng)
    assert assert_matches_generic(boolean_algebra_of_up_sets, up, comp) == "ok"
    seen = set()
    for _ in range(8):
        bad = list(comp)
        i = rng.randrange(len(bad))
        bad[i] = rng.choice([v for v in range(len(bad)) if v != bad[i]])
        seen.add(assert_matches_generic(boolean_algebra_of_up_sets, up, bad))
    for bad in ([len(comp)] + comp[1:], comp[:-1]):
        seen.add(assert_matches_generic(boolean_algebra_of_up_sets, up, bad))
    assert seen == {ComplementLawFails, ValueError}


def test_random_relations_on_powerset_carriers_name_the_generic_witness():
    rng = random.Random(20261019)
    seen = set()
    for atoms in range(MAX_ATOMS + 1):
        n = 1 << atoms
        for _ in range(60):
            rows = random_relation(n, rng)
            comp = [rng.randrange(n) for _ in range(n)]
            seen.add(assert_matches_generic(boolean_algebra_of_up_sets, as_up_sets(rows), comp))
    assert {NotAPoset, NotALattice} <= seen


def test_a_valid_64_element_powerset_is_capped_before_any_byte_table(monkeypatch):
    size = 1 << (MAX_ATOMS + 1)
    up, comp = shuffled_powerset(MAX_ATOMS + 1, random.Random(64))
    assert _atom_encoding(tuple(up)) is not None
    expected = outcome(generic, up, comp)
    assert expected[0] is BoundExceeded and expected[2] == size
    monkeypatch.setattr(algebra, "_mask_ops", None)
    assert outcome(boolean_algebra_of_up_sets, up, comp) == expected


def test_a_non_transitive_pair_list_names_the_generic_witness():
    # the 4-element powerset's pairs without bottom <= top
    pairs = [(i, j) for i in range(4) for j in range(4) if i & ~j == 0 and (i, j) != (0, 3)]
    up = [sum(1 << j for i2, j in pairs if i2 == i) for i in range(4)]
    expected = outcome(generic, up, [3, 2, 1, 0])
    assert expected[0] is NotAPoset and expected[2] == ("transitivity", 0, 1, 3)
    assert outcome(lambda u, c: validate_boolean_algebra(4, pairs, c), up, [3, 2, 1, 0]) == expected
